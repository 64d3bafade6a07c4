"""Golden guard counters: how the engine probes its guards is pinned.

The hit and miss counts were recorded with the AST-interpreting guard cache,
before rules were compiled and probes bundled into per-schema-node plans.
Equal counts mean every probe is made, and served from memory or evaluated,
exactly as before.  An equal digest of the cached entries means every key,
and the value memoized under it, is unchanged: the guard cache shares
evaluations by these keys, so a key that changes shape could merge or split
entries without moving a count.  The forms are those of the benchmark's
request pools, at fixed seeds, plus the positive chain and the deadlock
reduction, whose depth-1 semi-soundness graphs exercise the
support-projected keys on a positive and on a negated fragment.
"""

import hashlib

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.semisoundness import decide_semisoundness
from repro.analysis.statespace import ExplorationLimits
from repro.benchgen.families import (
    counter_machine_family,
    deadlock_family,
    positive_chain_family,
    positive_deep_family,
    qsat_semisoundness_family,
    sat_completability_family,
    sat_semisoundness_family,
)
from repro.engine import ExplorationEngine
from repro.engine.guards import map_subtree_keys
from repro.fbwis.catalog import leave_application

BUDGET = {"limits": ExplorationLimits(max_states=300)}

#: name -> (form builder, procedure, keyword arguments)
CASES = {
    "sat": (
        lambda: sat_completability_family(8, clause_ratio=4.3, seed=1)[0],
        decide_completability,
        {},
    ),
    "sat-semisound": (
        lambda: sat_semisoundness_family(5, clause_ratio=4.0, seed=1)[0],
        decide_semisoundness,
        {},
    ),
    "chain": (lambda: positive_chain_family(24), decide_semisoundness, {}),
    "deadlock": (lambda: deadlock_family(3, seed=3)[0], decide_semisoundness, {}),
    "deep": (
        lambda: positive_deep_family(3, width=2),
        decide_completability,
        {"strategy": "bounded", **BUDGET},
    ),
    "two-counter": (lambda: counter_machine_family(3)[0], decide_completability, {}),
    "qsat": (lambda: qsat_semisoundness_family(2, seed=1)[0], decide_completability, BUDGET),
    "leave-semisound": (
        lambda: leave_application(single_period=True),
        decide_semisoundness,
        {},
    ),
}

#: name -> (answer, guard_cache_hits, guard_cache_misses, expansions_computed,
#: states (canonical states for depth-1 forms), transitions, key digest)
GOLDEN = {
    "sat": (True, 3056, 272, 256, 256, 2048, "e2f5e23fd56647ab"),
    "sat-semisound": (False, 4020, 273, 243, 243, 810, "5ec045cee41b9cb8"),
    "chain": (True, 829, 96, 25, 25, 24, "eb4f6c00252ea257"),
    "deadlock": (True, 322, 90, 18, 18, 34, "1cdd7476e9c6f730"),
    "deep": (True, 2670, 1367, 300, 300, 1555, "7a7e78f4dfba9de3"),
    "two-counter": (True, 192, 4574, 71, 71, 97, "ae68957162ddb57b"),
    "qsat": (True, 475, 3010, 300, 300, 1775, "ddc44fde47128027"),
    "leave-semisound": (True, 8, 378, 29, 29, 94, "d2eedcfd2d563b27"),
}


def canonical(term) -> str:
    """A ``repr`` of a guard-key term that does not depend on string hashing:
    frozenset elements are sorted by their own canonical form."""
    if isinstance(term, frozenset):
        return "{" + ", ".join(sorted(canonical(item) for item in term)) + "}"
    if isinstance(term, tuple):
        return "(" + ", ".join(canonical(item) for item in term) + ")"
    return repr(term)


#: Tags of the depth-1 guard keys, ``(tag, label, projected state mask)``.
DEPTH1_TAGS = ("1a", "1d", "1p")


def label_key(key: tuple, root_labels: list) -> tuple:
    """*key* with a depth-1 state mask replaced by its label set: bit *i* is
    the *i*-th root child of the form's schema."""
    if key[0] not in DEPTH1_TAGS:
        return key
    tag, label, mask = key
    return (tag, label, frozenset(name for i, name in enumerate(root_labels) if mask >> i & 1))


def key_digest(engine, form) -> str:
    """A digest of the cached guard entries, independent of insertion order
    and of ``PYTHONHASHSEED``: the sorted canonical keys, each with its
    value.  Subtree-keyed entries are digested with the nested shape of
    their subtree id."""
    root_labels = [child.label for child in form.schema.root.children]
    entries = map_subtree_keys(list(engine.guards._cache.items()), engine.interner.nested)
    rows = sorted(
        f"{canonical(label_key(key, root_labels))}={value}" for key, value in entries
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_counters_match_golden(name):
    build, decide, options = CASES[name]
    form = build()
    engine = ExplorationEngine(form)
    result = decide(form, engine=engine, **options)
    stats = result.stats
    engine_stats = stats["engine"]
    states = stats.get("states_explored", stats.get("canonical_states"))
    observed = (
        result.answer,
        engine_stats["guard_cache_hits"],
        engine_stats["guard_cache_misses"],
        engine_stats["expansions_computed"],
        states,
        stats["transitions"],
        key_digest(engine, form),
    )
    assert observed == GOLDEN[name]
