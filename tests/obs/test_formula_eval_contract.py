"""Every guard-cache miss runs through ``repro.engine.guards.evaluate``.

Timing harnesses wrap that module-level function to charge formula
evaluation to its own layer, so the count of its calls must equal the
cache's ``guard_cache_misses`` — on bounded and on depth-1 explorations,
with telemetry off and on.
"""

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.semisoundness import decide_semisoundness
from repro.analysis.statespace import ExplorationLimits
from repro.benchgen.families import (
    positive_deep_family,
    qsat_semisoundness_family,
    sat_completability_family,
    sat_semisoundness_family,
)
from repro.engine import ExplorationEngine
from repro.engine import guards as guards_module
from repro.obs import NO_TELEMETRY, Telemetry, use_telemetry

LIMITS = ExplorationLimits(max_states=120)

#: name -> (form builder, procedure, keyword arguments)
CASES = {
    "bounded-deep": (
        lambda: positive_deep_family(3, width=2),
        decide_completability,
        {"strategy": "bounded", "limits": LIMITS},
    ),
    "bounded-upward": (
        lambda: qsat_semisoundness_family(2, seed=3)[0],
        decide_completability,
        {"limits": LIMITS},
    ),
    "depth1": (
        lambda: sat_completability_family(6, seed=3)[0],
        decide_completability,
        {},
    ),
    "depth1-semisound": (
        lambda: sat_semisoundness_family(4, seed=3)[0],
        decide_semisoundness,
        {},
    ),
}


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Count the calls of the module-level ``evaluate`` the guards use."""
    calls = []
    original = guards_module.evaluate

    def counting(node, rule):
        calls.append(rule)
        return original(node, rule)

    monkeypatch.setattr(guards_module, "evaluate", counting)
    return calls


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(CASES))
def test_evaluate_calls_equal_misses(name, traced, evaluate_calls, no_env_telemetry):
    build, decide, options = CASES[name]
    form = build()
    with use_telemetry(Telemetry() if traced else NO_TELEMETRY):
        engine = ExplorationEngine(form)
        result = decide(form, engine=engine, **options)
    misses = result.stats["engine"]["guard_cache_misses"]
    assert misses > 0
    assert len(evaluate_calls) == misses == engine.guards.misses
    assert (engine.guards.eval_seconds > 0) == traced
