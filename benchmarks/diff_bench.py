"""Render a human-readable diff of two ``BENCH_engine.json`` reports.

CI runs this after the benchmark smoke to publish, next to the raw report, a
markdown artifact showing how every workload moved against the committed
baseline — states/sec, formula evaluations, the worker-answer volume
fields added in PR 4 (wire bytes per candidate, shape-dedup hit rate, the
reduction vs the PR 3 encoding), and the sizes of the campaign-mined corpus
workloads.  Fields missing from either side (e.g. the
``wire_*`` fields in a pre-PR-4 baseline) render as ``—`` instead of
failing, mirroring ``run_all.py --check``'s tolerance for old baselines.

Usage::

    python benchmarks/diff_bench.py BENCH_engine.json /tmp/bench-ci.json -o /tmp/bench-diff.md
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: ``(field, header, is_percentage)`` columns of the per-workload table.
_COLUMNS = (
    ("states_per_second", "states/s", False),
    ("formula_evaluations", "formula evals", False),
    ("wire_bytes_per_candidate", "wire B/cand", False),
    ("legacy_wire_bytes_per_candidate", "PR3 B/cand", False),
    ("wire_dedup_hit_rate", "dedup", True),
    ("wire_reduction_vs_legacy", "reduction", True),
    # bounded-residency fields (PR 5); pre-PR-5 reports render them as —
    ("hydration_fraction_restored", "hydrated", True),
    ("states_resident", "resident shapes", False),
    ("reps_resident", "resident reps", False),
    # hot-path fields (PR 6): wire decode wall time and warm-attach guard
    # cache; older reports render them as —
    ("wire_decode_seconds", "wire decode s", False),
    ("guard_cache_hit_rate", "guard hits", True),
    ("cold_states_per_second", "cold states/s", False),
    ("peak_rss_kb", "peak RSS KB", False),
    # campaign-corpus fields (PR 7): sizes of the campaign-mined workloads;
    # also populated for the classic engine workloads where recorded
    ("states", "states", False),
    ("transitions", "transitions", False),
    # telemetry fields (PR 8): enabled-vs-disabled overhead and the merged
    # trace's shape; pre-PR-8 reports render them as —
    ("telemetry_overhead_fraction", "telemetry overhead", True),
    ("disabled_states_per_second", "untraced states/s", False),
    ("trace_events", "trace events", False),
    ("worker_snapshots_merged", "worker snapshots", False),
    ("eviction_sweeps", "eviction sweeps", False),
)


def _fmt(value, percentage: bool) -> str:
    if value is None:
        return "—"
    if percentage:
        return f"{value:.1%}"
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}"


def _delta(old, new) -> str:
    if old in (None, 0) or new is None:
        return "—"
    return f"{(new - old) / old:+.1%}"


def diff_reports(baseline: dict, fresh: dict) -> str:
    """The markdown diff of two ``run_all.py`` reports."""
    old_workloads = {
        w["workload"]: w for w in baseline.get("engine", {}).get("workloads", [])
    }
    new_workloads = {
        w["workload"]: w for w in fresh.get("engine", {}).get("workloads", [])
    }
    lines = [
        "# Engine benchmark diff",
        "",
        f"Baseline schema: `{baseline.get('schema', '?')}` — "
        f"fresh schema: `{fresh.get('schema', '?')}` "
        f"(host: {fresh.get('engine', {}).get('cpu_count', '?')} CPUs)",
        "",
    ]
    for name in sorted(set(old_workloads) | set(new_workloads)):
        old = old_workloads.get(name, {})
        new = new_workloads.get(name, {})
        status = []
        if not old:
            status.append("**new workload**")
        if not new:
            status.append("**not measured in this run**")
        for flag in (
            "state_set_parity_with_legacy",
            "serial_parallel_parity",
            "attach_budget_parity",
            "attach_parallel_parity",
            "telemetry_parity",
            "traced_parallel_parity",
            "trace_has_worker_spans",
        ):
            if new.get(flag) is False:
                status.append(f"**{flag} BROKEN**")
        lines.append(f"## {name}" + (" — " + ", ".join(status) if status else ""))
        lines.append("")
        lines.append("| metric | baseline | this run | delta |")
        lines.append("|---|---:|---:|---:|")
        for field, header, percentage in _COLUMNS:
            old_value = old.get(field)
            new_value = new.get(field)
            if old_value is None and new_value is None:
                continue
            lines.append(
                f"| {header} | {_fmt(old_value, percentage)} "
                f"| {_fmt(new_value, percentage)} "
                f"| {_delta(old_value, new_value) if not percentage else '—'} |"
            )
        lines.append("")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("fresh", help="freshly measured report JSON")
    parser.add_argument(
        "-o", "--output", default=None, help="write markdown here (default: stdout)"
    )
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[diff_bench] cannot read reports: {exc}", file=sys.stderr)
        return 1
    rendered = diff_reports(baseline, fresh)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"[diff_bench] wrote {args.output}")
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
