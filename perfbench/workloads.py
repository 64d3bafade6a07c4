"""Seeded request pools and the independent oracles that check their verdicts.

A pool is a list of :class:`Entry`: an ``analysis-request/1`` wire payload
with its guarded form inlined (what a remote client sends) and the verdict
predicted by an oracle that shares no code with the decision procedure under
test.  The oracles are the source problems of the paper's reductions:

* SAT completability (Theorem 5.1): completable iff the CNF is satisfiable,
  decided by DPLL;
* SAT semi-soundness (Theorem 5.6): semi-sound iff the CNF is unsatisfiable;
* two-counter machines (Theorem 4.1): completable iff the machine accepts,
  decided by running it;
* positive nested documents: completable per the saturation procedure of
  Theorem 5.5, a different algorithm from the bounded exploration measured;
* QSAT forms (Theorem 5.3): the reduction's initial instance holds the root
  field ``uc``, the first disjunct of its completion formula, so every one
  is completable; the request still explores its whole state budget, under
  access rules that navigate upwards (state-keyed guard entries).

Every family has a fixed size; the seed draws only the random content (CNFs,
QBF matrices) and the request order, so the work per request stays
comparable from seed to seed.  (Reachable-deadlock forms are left out: their
state count swings from 1 to a few hundred with the random problem.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.analysis.completability import completability_by_saturation
from repro.benchgen.families import (
    counter_machine_family,
    positive_deep_family,
    qsat_semisoundness_family,
    sat_completability_family,
    sat_semisoundness_family,
)
from repro.io.serialization import guarded_form_to_dict
from repro.logic.dpll import is_satisfiable
from repro.service.request import REQUEST_API_VERSION

#: States one bounded exploration may discover (the request's ``max_states``);
#: the exploration uses all of it, which fixes the work per request.
BOUNDED_MAX_STATES = 300


@dataclass(frozen=True)
class Entry:
    """One pool request and the verdict its oracle predicts."""

    family: str
    payload: dict
    expected: bool


def _payload(form, kind: str, **fields) -> dict:
    return {
        "api": REQUEST_API_VERSION,
        "form": guarded_form_to_dict(form),
        "kind": kind,
        **fields,
    }


def _sat(seed: int) -> Entry:
    # clause ratio 4.3, the 3-SAT threshold, so both verdicts occur
    form, cnf = sat_completability_family(8, clause_ratio=4.3, seed=seed)
    return Entry("sat", _payload(form, "completability"), is_satisfiable(cnf))


def _sat_semisound(seed: int) -> Entry:
    form, cnf = sat_semisoundness_family(5, clause_ratio=4.0, seed=seed)
    return Entry(
        "sat-semisound", _payload(form, "semisoundness"), not is_satisfiable(cnf)
    )


def _deep(seed: int) -> Entry:
    del seed  # the nested document has no random content
    form = positive_deep_family(3, width=2)
    payload = _payload(
        form, "completability", strategy="bounded", max_states=BOUNDED_MAX_STATES
    )
    return Entry("deep", payload, completability_by_saturation(form).answer)


def _two_counter(seed: int) -> Entry:
    del seed  # the counting machine has no random content
    form, machine = counter_machine_family(3)
    accepts = machine.reaches_accepting_state(10_000) is True
    return Entry("two-counter", _payload(form, "completability"), accepts)


def _qsat(seed: int) -> Entry:
    form, _qbf = qsat_semisoundness_family(2, seed=seed)
    payload = _payload(form, "completability", max_states=BOUNDED_MAX_STATES)
    starts_complete = form.initial_instance().root.has_child_with_label("uc")
    return Entry("qsat", payload, starts_complete)


DEPTH1_FAMILIES = (_sat, _sat_semisound)
BOUNDED_FAMILIES = (_deep, _two_counter, _qsat)

#: The parallel workload's request settings: two frontier worker processes,
#: a resident budget small enough that the store fallback (and the shape KV
#: tier in front of it) is used, and a smaller state budget, since every
#: request also starts its worker pool.  Two-counter forms are left out:
#: their frontier never grows wide enough for a worker wave.
PARALLEL_FIELDS = {"workers": 2, "resident_budget": 64, "max_states": 200}


def _parallel(build, seed: int) -> Entry:
    entry = build(seed)
    return Entry(entry.family, {**entry.payload, **PARALLEL_FIELDS}, entry.expected)


PARALLEL_FAMILIES = (partial(_parallel, _deep), partial(_parallel, _qsat))


def build_pool(families, per_family: int, rng: random.Random) -> "list[Entry]":
    """*per_family* entries of each family, their seeds drawn from *rng*."""
    return [
        build(rng.randrange(1 << 30)) for _ in range(per_family) for build in families
    ]


#: workload -> (families, entries per family) of its request pool; the
#: depth-1 pool is the largest because its per-form cost varies most with
#: the random CNF.  The cached pool holds one two-counter form in seven: its
#: inlined form is over ten times the others, so a cache hit on it costs
#: ten times more, and at one in five the 80th percentile would sit on the
#: edge between the two costs.
POOLS = {
    "depth1": (DEPTH1_FAMILIES, 16),
    "bounded": (BOUNDED_FAMILIES, 3),
    "parallel": (PARALLEL_FAMILIES, 2),
    "service": (BOUNDED_FAMILIES, 1),
    "cached": (DEPTH1_FAMILIES * 2 + BOUNDED_FAMILIES, 1),
}


def pool_and_order(workload: str, seed: int) -> "tuple[list[Entry], list[int]]":
    """The request pool of *workload* for *seed*, and the order to send it in."""
    rng = random.Random(f"perfbench-{workload}-{seed}")
    families, per_family = POOLS[workload]
    pool = build_pool(families, per_family, rng)
    order = list(range(len(pool)))
    rng.shuffle(order)
    return pool, order
