"""The engine benchmark's ``--check`` gate, on hand-built reports.

Deterministic verdicts and the row ceilings fail on any host; drift of
states/sec at the reference speed fails only against a baseline measured on
the same host.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

RUN_ALL = Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("bench_run_all", RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST = {"cpu_count": 2, "python": "3.11.7", "machine": "x86_64", "system": "Linux"}
FOREIGN_HOST = dict(HOST, cpu_count=1)


def report(host=HOST, **telemetry_fields):
    return {
        "host": host,
        "engine": {
            "workloads": [
                {
                    "workload": "store row",
                    "kind": "bounded-store",
                    "states_per_second": 2000.0,
                    "reference_states_per_second": 1500.0,
                    "checks": {"store_matches_memory": True},
                },
                {
                    "workload": "telemetry row",
                    "kind": "telemetry",
                    "states_per_second": 5000.0,
                    "reference_states_per_second": 4000.0,
                    "telemetry_overhead_q1": 0.01,
                    "checks": {"traced_matches_untraced": True},
                    **telemetry_fields,
                },
            ]
        },
    }


def rows(doc):
    return {row["workload"]: row for row in doc["engine"]["workloads"]}


@pytest.mark.parametrize("baseline_host", [HOST, FOREIGN_HOST, None])
def test_unchanged_report_passes(run_all, baseline_host):
    assert run_all.check_regressions(report(), report(host=baseline_host), 0.25) == []


@pytest.mark.parametrize("baseline_host", [HOST, FOREIGN_HOST])
def test_parity_break_fails_on_any_host(run_all, baseline_host):
    fresh = report()
    rows(fresh)["store row"]["checks"]["store_matches_memory"] = False
    failures = run_all.check_regressions(fresh, report(host=baseline_host), 0.25)
    assert len(failures) == 1 and "store_matches_memory" in failures[0]


def test_states_per_second_drop_fails_only_on_same_host(run_all):
    fresh = report()
    rows(fresh)["store row"]["reference_states_per_second"] = 750.0
    same = run_all.check_regressions(fresh, report(), 0.25)
    assert len(same) == 1 and "regressed" in same[0]
    assert run_all.check_regressions(fresh, report(host=FOREIGN_HOST), 0.25) == []
    assert run_all.check_regressions(fresh, report(host=None), 0.25) == []


def test_slower_host_alone_passes(run_all):
    """Raw states/sec that fell with the host's speed, at an unchanged rate
    at the reference speed, is the host's drift, not a regression."""
    fresh = report()
    rows(fresh)["store row"]["states_per_second"] = 1000.0
    assert run_all.check_regressions(fresh, report(), 0.25) == []


def test_missing_baseline_row_fails(run_all):
    baseline = report(host=FOREIGN_HOST)
    extra = copy.deepcopy(rows(baseline)["store row"])
    extra.update(workload="cache row", kind="result-cache")
    baseline["engine"]["workloads"].append(extra)
    failures = run_all.check_regressions(report(), baseline, 0.25)
    assert len(failures) == 1 and "'cache row' present in baseline but not measured" in failures[0]


def test_telemetry_overhead_lower_quartile_above_ceiling_fails(run_all):
    failures = run_all.check_regressions(
        report(telemetry_overhead_q1=0.06), report(host=FOREIGN_HOST), 0.25
    )
    assert len(failures) == 1 and "6.0%" in failures[0]


def test_reference_rate_scales_each_run_by_the_host_speed(run_all):
    """A run's seconds at the reference speed divide out the mean pass time
    of its two readings, so a run that took twice as long on a host half as
    fast scores the same reference rate."""
    fast = run_all.Run(1.0, (2.0, 2.0), None)
    slow = run_all.Run(2.0, (1.0, 1.0), None)
    assert fast.reference_seconds == pytest.approx(2.0)
    assert slow.reference_seconds == pytest.approx(2.0)
    # readings of 1 and 3: mean pass time (1 + 1/3) / 2, speed 1.5
    assert run_all.Run(3.0, (1.0, 3.0), None).reference_seconds == pytest.approx(4.5)
    fields = run_all.timed_fields(100, [fast, slow, run_all.Run(4.0, (1.0, 1.0), None)])
    assert fields["states_per_second"] == 100.0  # the fastest raw run
    assert fields["reference_states_per_second"] == 50.0  # the median scaled run
    assert fields["host_speed"] == [[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]]
