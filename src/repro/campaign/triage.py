"""Triage over a campaign store: distributions, outliers, promotion.

``build_report`` turns the store's rows into a deterministic report dict —
per-family outcome and size distributions, flagged outliers, and every
oracle disagreement with its artifact pointer.  Determinism is a contract,
not an accident: rows are keyed and ordered by ``(family, seed)`` (never by
the wall-clock order batches landed in), and the perf sections
(states/sec, RSS, elapsed) are segregated behind ``include_perf`` so the
golden-report test can pin the stable remainder byte-for-byte.

``promote_outliers`` closes the mining loop: the hardest agreeing instance
per family — largest explored state count, ties broken by transitions then
by *lowest* seed — is regenerated from its spec and committed into
``benchmarks/campaign_corpus/`` with a manifest, where
``benchmarks/run_all.py`` replays it as a standing row, gated on legacy
parity and on the manifest's state/transition counts.  A campaign
is thus a regression-miner: what it finds hard today, the bench suite
guards tomorrow.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Optional, Sequence

from repro.campaign.generator import FAMILIES, FormSpec, generate_form
from repro.campaign.store import CampaignStore
from repro.io.serialization import save_guarded_form

#: Manifest schema of a committed campaign corpus directory.
CORPUS_SCHEMA = "campaign-corpus/1"

#: A row is an outlier when its state count exceeds the family mean by this
#: many standard deviations (single-row families can't be outliers).
OUTLIER_SIGMA = 2.0


def _distribution(values: Sequence[float]) -> dict:
    data = sorted(values)
    return {
        "min": data[0],
        "max": data[-1],
        "mean": round(statistics.fmean(data), 2),
        "median": statistics.median(data),
    }


def _hardness_key(row):
    """Deterministic 'hardest first' ordering: states, transitions, low seed."""
    return (-row.states, -row.transitions, row.seed)


def build_report(store_path: "str | Path", include_perf: bool = True) -> dict:
    """The campaign report dict (deterministic given the store's rows).

    With ``include_perf=False`` every machine-dependent number (seconds,
    states/sec, RSS) is dropped, leaving a report that is a pure function
    of the campaign configuration — the form the golden test pins.
    """
    with CampaignStore(store_path) as store:
        rows = store.rows()  # ordered by (family, seed)
        config = store.config()

    by_family: dict[str, list] = {}
    for row in rows:
        by_family.setdefault(row.family, []).append(row)

    families = {}
    outliers = []
    for family, family_rows in sorted(by_family.items()):
        states = [r.states for r in family_rows]
        entry = {
            "kind": family_rows[0].kind,
            "forms": len(family_rows),
            "states": _distribution(states),
            "transitions": _distribution([r.transitions for r in family_rows]),
            "truncated": sum(r.truncated for r in family_rows),
            "undecided": sum(not r.decided for r in family_rows),
            "answered_yes": sum(r.answer is True for r in family_rows),
            "answered_no": sum(r.answer is False for r in family_rows),
            "disagreements": sum(len(r.disagreements) for r in family_rows),
        }
        if include_perf:
            entry["elapsed_seconds"] = _distribution(
                [round(r.elapsed, 6) for r in family_rows]
            )
            entry["states_per_second"] = _distribution(
                [r.states_per_second for r in family_rows]
            )
            entry["peak_rss_kb"] = _distribution(
                [r.peak_rss_kb for r in family_rows]
            )
            entry["guard_hit_rate"] = _distribution(
                [r.guard_hit_rate for r in family_rows]
            )
        families[family] = entry

        # outliers: statistically heavy rows, plus always the family's
        # hardest instance (the promotion candidate)
        flagged = set()
        if len(states) > 1:
            mean = statistics.fmean(states)
            sigma = statistics.pstdev(states)
            if sigma > 0:
                for r in family_rows:
                    if r.states > mean + OUTLIER_SIGMA * sigma:
                        flagged.add((r.family, r.seed))
        hardest = min(family_rows, key=_hardness_key)
        flagged.add((hardest.family, hardest.seed))
        for r in sorted(family_rows, key=_hardness_key):
            if (r.family, r.seed) in flagged:
                outliers.append(
                    {
                        "family": r.family,
                        "seed": r.seed,
                        "kind": r.kind,
                        "states": r.states,
                        "transitions": r.transitions,
                        "digest": r.digest,
                        "hardest": (r.family, r.seed)
                        == (hardest.family, hardest.seed),
                    }
                )

    disagreements = [
        {
            "family": r.family,
            "seed": r.seed,
            "digest": r.digest,
            "disagreements": r.disagreements,
        }
        for r in rows
        if r.disagreements
    ]

    return {
        "schema": "campaign-report/1",
        "config": config,
        "total_forms": len(rows),
        "total_disagreements": sum(len(r.disagreements) for r in rows),
        "families": families,
        "outliers": outliers,
        "disagreements": disagreements,
    }


def render_report(report: dict) -> str:
    """Human-readable rendering of a report dict (the CLI's output)."""
    lines = []
    config = report.get("config") or {}
    lines.append(
        f"campaign report: {report['total_forms']} forms, "
        f"{report['total_disagreements']} disagreements"
    )
    if config:
        lines.append(
            f"  config: families={','.join(config.get('families', []))} "
            f"count={config.get('count')} oracles={','.join(config.get('oracles', []))} "
            f"smoke={config.get('smoke')}"
        )
    for family, entry in report["families"].items():
        states = entry["states"]
        line = (
            f"  {family:<14} ({entry['kind']:<7}) forms={entry['forms']:<5} "
            f"states {states['min']}..{states['max']} (median {states['median']}) "
            f"truncated={entry['truncated']} undecided={entry['undecided']} "
            f"disagreements={entry['disagreements']}"
        )
        if "states_per_second" in entry:
            line += f" states/s median={entry['states_per_second']['median']}"
        lines.append(line)
    hard = [o for o in report["outliers"] if o["hardest"]]
    if hard:
        lines.append("  hardest instances:")
        for o in hard:
            lines.append(
                f"    {o['family']} seed={o['seed']} states={o['states']} "
                f"transitions={o['transitions']} digest={o['digest']}"
            )
    for d in report["disagreements"]:
        for item in d["disagreements"]:
            lines.append(
                f"  DISAGREEMENT {d['family']} seed={d['seed']} "
                f"oracle={item['oracle']}: {item['detail']}"
            )
    return "\n".join(lines)


def promote_outliers(
    store_path: "str | Path",
    dest: "str | Path",
    per_family: int = 1,
    families: Optional[Sequence[str]] = None,
) -> list[Path]:
    """Commit the hardest agreeing instances into a corpus directory.

    Picks the *per_family* hardest rows of each (requested) family whose
    oracle stack fully agreed, regenerates their forms from their specs, and
    writes them next to a ``manifest.json`` that ``benchmarks/run_all.py``
    consumes.  Returns the written form paths.
    """
    with CampaignStore(store_path) as store:
        rows = store.rows()
        config = store.config() or {}
    dest_dir = Path(dest)
    dest_dir.mkdir(parents=True, exist_ok=True)

    by_family: dict[str, list] = {}
    for row in rows:
        if row.disagreements:
            continue  # never promote a disputed instance
        if families is not None and row.family not in families:
            continue
        by_family.setdefault(row.family, []).append(row)

    manifest_path = dest_dir / "manifest.json"
    entries = []
    if manifest_path.exists():
        entries = json.loads(manifest_path.read_text()).get("workloads", [])
    known = {(e["family"], e["seed"]) for e in entries}

    written = []
    for family in sorted(by_family):
        candidates = sorted(by_family[family], key=_hardness_key)[:per_family]
        for row in candidates:
            spec = FormSpec(row.family, row.seed)
            form = generate_form(spec)
            path = dest_dir / f"{row.family}_seed{row.seed}.json"
            save_guarded_form(form, path)
            written.append(path)
            if (row.family, row.seed) not in known:
                entries.append(
                    {
                        "family": row.family,
                        "seed": row.seed,
                        "kind": FAMILIES[row.family].kind,
                        "states": row.states,
                        "transitions": row.transitions,
                        "digest": row.digest,
                        "file": path.name,
                    }
                )
                known.add((row.family, row.seed))
    entries.sort(key=lambda e: (e["family"], e["seed"]))
    manifest_path.write_text(
        json.dumps(
            {
                "schema": CORPUS_SCHEMA,
                # the campaign's state cap: whoever replays a corpus workload
                # (benchmarks/run_all.py) explores under the same limits, so
                # the manifest's states/transitions are reproducible numbers
                "max_states": config.get("max_states"),
                "workloads": entries,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return written
