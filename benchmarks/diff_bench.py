"""Render a human-readable diff of two ``BENCH_engine.json`` reports.

CI runs this after the benchmark smoke to publish, next to the raw report, a
markdown artifact showing how every row moved against the committed
baseline: states/sec (raw and at the reference host speed), formula
evaluations, the bounded-attach residency fields, the telemetry overhead,
the store-vs-memory and warm-cache ratios, and the sizes of the
campaign-mined corpus rows.  Both reports' ``host``
blocks head the diff, since throughput compares only between equal hosts.
Fields missing from either side render as ``—`` instead of failing.

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
    ("reference_states_per_second", "states/s at reference speed", False),
    ("formula_evaluations", "formula evals", False),
    ("hydration_fraction_restored", "hydrated", True),
    ("states_resident", "resident shapes", False),
    ("reps_resident", "resident reps", False),
    ("eviction_sweeps", "eviction sweeps", False),
    ("guard_cache_hit_rate", "guard hits", True),
    ("peak_rss_kb", "peak RSS KB", False),
    ("states", "states", False),
    ("transitions", "transitions", False),
    ("telemetry_overhead_fraction", "telemetry overhead", True),
    ("telemetry_overhead_q1", "telemetry overhead q1", True),
    ("trace_events", "trace events", False),
    ("store_vs_memory", "store/memory time", False),
    ("cache_warm_speedup", "warm-hit speedup", False),
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
        f"Baseline schema: `{baseline.get('schema', '?')}`, host "
        f"`{json.dumps(baseline.get('host'), sort_keys=True)}`",
        "",
        f"Fresh schema: `{fresh.get('schema', '?')}`, host "
        f"`{json.dumps(fresh.get('host'), sort_keys=True)}`",
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
        for check, passed in new.get("checks", {}).items():
            if not passed:
                status.append(f"**{check} BROKEN**")
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
