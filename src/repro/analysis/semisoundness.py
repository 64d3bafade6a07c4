"""The form semi-soundness problem (Definition 3.14).

A guarded form is semi-sound when every reachable instance is still
completable.  ``decide_semisoundness`` dispatches on the fragment:

* depth-1 forms — :func:`semisoundness_depth1`: build the complete reachable
  canonical-state graph (Lemma 4.3) and check that every reachable state lies
  in the backward closure of the completion states.  This realises the
  PSPACE procedures of Corollary 4.7 and the coNP procedure of
  Corollary 5.7 (for positive/positive forms the graph is small because
  deletions are the only way to leave the monotone add-lattice).

* deeper forms — :func:`semisoundness_bounded`: bounded exploration of the
  reachable instances, then a completability check from every explored state.
  Negative answers require an exact incompletability verdict for the
  offending state; positive answers require the reachability exploration to
  have been exhaustive.  Anything else is undecided — unavoidable, since the
  problem is Π₂ᵏ-hard for positive rules (Theorem 5.3) and undecidable in
  general (Theorem 4.1).

As in :mod:`repro.analysis.completability`, the dispatcher picks the
procedure, builds one :class:`~repro.engine.ExplorationEngine` and runs the
procedure on it.  Semi-soundness is where that shared engine pays off most:
the per-suspicious-state completability checks re-explore regions the
reachability sweep already visited, and the engine serves those states'
memoized expansions and guard evaluations from cache instead of
re-evaluating every access-rule formula.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.completability import (
    decide_completability,
    delegate_to_request,
    positive_rules_copy_bound,
    transition_count,
)
from repro.analysis.results import AnalysisResult, ExplorationLimits
from repro.core.canonical import depth1_state_to_instance
from repro.core.fragments import classify
from repro.core.guarded_form import GuardedForm
from repro.core.instance import Instance
from repro.engine import ExplorationEngine, StateStore, engine_for
from repro.exceptions import AnalysisError, RequestError

_PROBLEM = "semisoundness"


def semisoundness_depth1(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    *,
    resume: bool = False,
    step_limit: Optional[int] = None,
) -> AnalysisResult:
    """Exact semi-soundness for depth-1 guarded forms.

    The reachable canonical states are enumerated once, as label bitmasks;
    the form is semi-sound iff every reachable state can reach a state
    satisfying the completion formula (a backward-closure computation over
    the same graph's moves).  The counterexample is the stuck state whose
    sorted label list is smallest.  *step_limit*
    and *resume* slice the enumeration through the engine's store; the
    enumeration is serial on a parallel *engine* too (see
    :func:`~repro.analysis.completability.completability_depth1`).
    """
    engine = engine_for(guarded_form, engine, frontier)
    graph = engine.explore_depth1(
        start=start, strategy=frontier, resume=resume, step_limit=step_limit
    )
    reachable = graph.reachable_masks(graph.initial_mask)
    completion = engine.guards.d1_completion
    can_complete = graph.backward_closure_masks(
        [mask for mask in graph.masks if completion(mask)]
    )
    stuck = reachable - can_complete
    answer = not stuck
    counterexample = None
    witness_run = None
    if stuck:
        first = graph.first_by_labels(stuck)
        counterexample = depth1_state_to_instance(guarded_form.schema, graph.label_set(first))
        witness_run = graph.run_to_mask(first)
    return AnalysisResult(
        problem=_PROBLEM,
        decided=True,
        answer=answer,
        procedure="depth1_canonical_graph",
        witness_run=witness_run,
        counterexample=counterexample,
        stats={
            "canonical_states": len(graph.masks),
            "transitions": graph.transition_count(),
            "reachable_states": len(reachable),
            "incompletable_reachable_states": len(stuck),
            "engine": engine.stats_snapshot(),
        },
    )


def semisoundness_bounded(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    limits: Optional[ExplorationLimits] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    resume: bool = False,
    step_limit: Optional[int] = None,
) -> AnalysisResult:
    """Bounded semi-soundness for guarded forms of arbitrary depth.

    The reachable space is explored up to *limits*; from every explored state
    the graph itself answers "can this state reach a complete state?", and
    states that cannot within the explored graph are re-checked with a
    dedicated completability analysis (so a negative verdict is based on an
    exact incompletability proof for the counterexample state).  Those
    per-state checks reuse the same *limits*, so the total work stays
    proportional to the configured exploration budget, and the same engine,
    so they mostly replay memoized expansions.

    On a store-backed engine each exploration (the reachability sweep and
    every per-suspicious-state completability check) keeps its own
    checkpoint, keyed by its start shape; *resume* picks up whichever of
    them was interrupted.

    On a :class:`~repro.engine.parallel.ParallelExplorationEngine` every
    exploration — the reachability sweep *and* the per-suspicious-state
    completability checks, which share the one engine and hence its staged
    worker results — runs on its frontier worker pool; verdicts and
    witnesses are bit-identical to serial runs.
    """
    limits = limits or ExplorationLimits()
    engine = engine_for(guarded_form, engine, frontier)
    graph = engine.explore(
        start=start,
        limits=limits,
        strategy=frontier,
        resume=resume,
        step_limit=step_limit,
    )
    complete_states = engine.complete_ids(graph)
    can_complete = graph.backward_closure(complete_states)
    suspicious = [state_id for state_id in graph.states if state_id not in can_complete]
    stats = {
        "states_explored": len(graph.states),
        "transitions": transition_count(graph),
        "truncated": graph.truncated,
        "suspicious_states": len(suspicious),
        "limits": limits,
    }

    for state_id in suspicious:
        instance = graph.instance_of(state_id)
        check = decide_completability(
            guarded_form,
            start=instance,
            limits=limits,
            frontier=frontier,
            engine=engine,
            resume=resume,
        )
        if check.decided and check.answer is False:
            return AnalysisResult(
                problem=_PROBLEM,
                decided=True,
                answer=False,
                procedure="bounded_exploration",
                witness_run=graph.run_to(state_id),
                counterexample=instance,
                stats={**stats, "engine": engine.stats_snapshot()},
            )

    stats["engine"] = engine.stats_snapshot()
    if not graph.truncated and not suspicious:
        return AnalysisResult(
            problem=_PROBLEM,
            decided=True,
            answer=True,
            procedure="bounded_exploration",
            stats=stats,
        )
    # undecided: either the sweep was truncated, so unexplored states may be
    # incompletable, or it was exhaustive (its backward closure is exact) and
    # the suspicious states' own completability checks were all undecided
    return AnalysisResult(
        problem=_PROBLEM,
        decided=False,
        answer=None,
        procedure="bounded_exploration",
        stats=stats,
    )


def decide_semisoundness(
    guarded_form: Optional[GuardedForm] = None,
    start: Optional[Instance] = None,
    strategy: str = "auto",
    limits: Optional[ExplorationLimits] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    store: Optional[StateStore] = None,
    resume: bool = False,
    workers: int = 1,
    resident_budget: Optional[int] = None,
    step_limit: Optional[int] = None,
    request=None,
) -> AnalysisResult:
    """Decide semi-soundness, selecting a procedure from the fragment.

    Args:
        guarded_form: the guarded form to analyse.
        start: use this instance instead of the initial instance.
        strategy: ``"auto"``, ``"depth1"`` or ``"bounded"``.
        limits: exploration limits for the bounded procedure.
        frontier: frontier strategy for the exploration engine (``"bfs"``,
            ``"dfs"`` or ``"guided"``; default BFS).
        engine: an :class:`~repro.engine.ExplorationEngine` to reuse, sharing
            interned shapes and guard evaluations with previous analyses of
            the same form.
        store: a :class:`~repro.engine.store.StateStore` backing a freshly
            built engine (ignored when *engine* is supplied).
        resume: continue the explorations from checkpoints earlier
            identically parameterised runs saved in the store.
        workers / resident_budget: as for
            :func:`~repro.analysis.completability.decide_completability`.
        step_limit: checkpoint and raise
            :class:`~repro.exceptions.ExplorationInterrupted` after this many
            state expansions of the reachability sweep (of the bounded
            procedure) or of the canonical-state enumeration (depth-1).
        request: a single :class:`~repro.service.AnalysisRequest` instead of
            the keyword surface; delegates to
            :func:`repro.service.dispatch.run_analysis`.
    """
    if request is not None:
        return delegate_to_request(
            "decide_semisoundness", "semisoundness", request, guarded_form
        )
    if guarded_form is None:
        raise RequestError(
            "decide_semisoundness needs a guarded form or request="
        )
    if strategy not in ("auto", "depth1", "bounded"):
        raise AnalysisError(f"unknown semi-soundness strategy {strategy!r}")
    procedure = strategy
    if strategy == "auto":
        procedure = "depth1" if guarded_form.schema_depth() <= 1 else "bounded"
        if procedure == "bounded" and limits is None and classify(guarded_form).positive_access:
            limits = ExplorationLimits(max_sibling_copies=positive_rules_copy_bound(guarded_form))
    owns_engine = engine is None
    engine = engine_for(guarded_form, engine, frontier, store=store, workers=workers, resident_budget=resident_budget)
    try:
        if procedure == "depth1":
            return semisoundness_depth1(
                guarded_form,
                start,
                frontier=frontier,
                engine=engine,
                resume=resume,
                step_limit=step_limit,
            )
        return semisoundness_bounded(
            guarded_form,
            start,
            limits,
            frontier=frontier,
            engine=engine,
            resume=resume,
            step_limit=step_limit,
        )
    finally:
        if owns_engine:
            engine.shutdown_workers()
