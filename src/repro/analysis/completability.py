"""The form completability problem (Definition 3.13).

``decide_completability`` dispatches on the guarded form's fragment:

=====================================  ======================================
fragment                               procedure
=====================================  ======================================
``F(A+, φ+, ·)``                       :func:`completability_by_saturation`
                                       (polynomial — Theorem 5.5)
``F(·, ·, 1)``                         :func:`completability_depth1`
                                       (exact canonical-state search — the
                                       PSPACE procedure of Theorem 4.6)
everything else                        :func:`completability_bounded`
                                       (bounded explicit-state search; the
                                       problem is NP-complete for
                                       ``F(A+, φ−, k)`` — Theorems 5.1/5.2 —
                                       and undecidable for ``F(A−, ·, ≥2)`` —
                                       Theorem 4.1)
=====================================  ======================================

The dispatcher picks the procedure, builds one
:class:`~repro.engine.ExplorationEngine` through
:func:`~repro.engine.engine_for` (the caller's *engine*, or a fresh one on
*store* with *workers* and *resident_budget*) and runs the procedure on it;
saturation gets no engine.  The exploration-based procedures take that
*engine* (a serial in-memory one when omitted); sharing it across analyses
of the same form shares its interned shapes and memoized guard evaluations
(the semi-soundness procedure and the CLI do).  *frontier* (``"bfs"``,
``"dfs"`` or ``"guided"``) sets the exploration order, and engine counters
are surfaced under ``AnalysisResult.stats["engine"]``.

A store-backed engine persists the bounded search's interned shapes,
checkpoints and per-state representatives or origins
(:mod:`repro.engine.store`), and the depth-1 search's checkpoints when a
*step_limit* slices it; *resume* picks an interrupted exploration up.
*stop_on_complete* opts into early exit: the bounded and depth-1 searches
return as soon as a complete state is discovered (negative and undecided
answers are unaffected — they only arise when no early exit happened).

For positive access rules the bounded search is *complete* when the sibling
copy bound is at least the size of the completion formula: the witness
argument of Theorem 5.2 (via Lemma 4.4) shows a completable form has a
complete run whose intermediate instances never need more same-label siblings
under one node than the completion formula can distinguish.  The dispatcher
sets the bound accordingly and reports the negative answer as decided; for
unrestricted access rules an exhausted bounded search is reported as
*undecided* unless it exhausted the reachable space outright.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.analysis.results import AnalysisResult, ExplorationLimits
from repro.core.fragments import classify
from repro.core.guarded_form import Addition, GuardedForm
from repro.core.instance import Instance
from repro.core.runs import Run
from repro.engine import ExplorationEngine, StateStore, engine_for
from repro.exceptions import AnalysisError, RequestError

_PROBLEM = "completability"


def delegate_to_request(dispatcher_name: str, kind: str, request, guarded_form):
    """The shared ``request=`` shim of the analysis dispatchers.

    Every dispatcher accepts either its classic keyword surface *or* a
    single :class:`~repro.service.AnalysisRequest`; with a request it
    becomes a thin shim over :func:`repro.service.dispatch.run_analysis` —
    the same dispatcher the HTTP API and the CLI go through, pinned
    equivalent to the kwargs path by the parity tests.  Mixing both
    surfaces, or handing a request whose ``kind`` names a different verb,
    is rejected outright.
    """
    if guarded_form is not None:
        raise RequestError(
            f"{dispatcher_name} takes either a guarded form (with keyword "
            "arguments) or request=, not both"
        )
    if request.kind != kind:
        raise RequestError(
            f"{dispatcher_name} expects a request of kind {kind!r}, got "
            f"{request.kind!r}"
        )
    from repro.service.dispatch import run_analysis

    return run_analysis(request)


def transition_count(graph) -> int:
    """Total transitions of an explored graph (any graph flavour)."""
    return sum(len(edges) for edges in graph.transitions.values())


def completability_by_saturation(
    guarded_form: GuardedForm, start: Optional[Instance] = None
) -> AnalysisResult:
    """Polynomial-time completability for positive rules and positive
    completion formulas (Theorem 5.5).

    The procedure adds as many edges as possible without ever creating a
    second same-label sibling under a node.  Positive access rules are
    monotone under additions, so a greedy order is as good as any; positive
    completion formulas are monotone too, so the saturated instance satisfies
    ``φ`` iff some reachable instance does.

    Raises:
        AnalysisError: when the guarded form is not in an ``F(A+, φ+, ·)``
            fragment (the argument above would be unsound).
    """
    if not guarded_form.has_positive_access_rules():
        raise AnalysisError(
            "saturation requires positive access rules (fragment A+)"
        )
    if not guarded_form.has_positive_completion():
        raise AnalysisError(
            "saturation requires a positive completion formula (fragment phi+)"
        )
    instance = (start or guarded_form.initial_instance()).copy()
    run = Run(guarded_form, [], start=instance.copy())
    steps = 0
    changed = True
    while changed:
        changed = False
        for node in list(instance.nodes()):
            schema_node = guarded_form.schema.node_at(node.label_path())
            for schema_child in schema_node.children:
                label = schema_child.label
                if node.has_child_with_label(label):
                    continue
                if guarded_form.is_addition_allowed(instance, node, label):
                    update = Addition(node.node_id, label)
                    run.updates.append(update)
                    guarded_form.apply_unchecked(instance, update, in_place=True)
                    steps += 1
                    changed = True
    completable = guarded_form.is_complete(instance)
    return AnalysisResult(
        problem=_PROBLEM,
        decided=True,
        answer=completable,
        procedure="positive_saturation",
        witness_run=run if completable else None,
        stats={"saturation_steps": steps, "saturated_size": instance.size()},
    )


def completability_depth1(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    *,
    resume: bool = False,
    stop_on_complete: bool = False,
    step_limit: Optional[int] = None,
) -> AnalysisResult:
    """Exact completability for depth-1 guarded forms (Theorem 4.6).

    Explores the full graph of reachable canonical states (label sets below
    the root, Lemma 4.3, held as label bitmasks) and reports whether any of
    them satisfies the completion formula.  Always terminates; worst case
    ``2^n`` states, but the engine's support-projected guard cache shares
    formula evaluations across states that agree on the labels a rule can
    observe.  The witness is the complete reachable state whose sorted label
    list is smallest; only those candidate masks become label sets.

    *stop_on_complete* stops the exploration at the first complete state it
    discovers (opt-in, as on the bounded path; the stats then carry
    ``stopped_on_complete``).  *step_limit* slices the exploration: after
    that many expansions it checkpoints into the engine's store (in memory
    or persistent) and raises
    :class:`~repro.exceptions.ExplorationInterrupted`, and an identical call
    with *resume* continues it.  The store holds nothing else of a depth-1
    run: its canonical states are masks, re-derived from the checkpoint, and
    guard values stay in memory.  The exploration is serial on a parallel
    *engine* too: canonical depth-1 states are far cheaper to expand than to
    ship to a worker process.
    """
    engine = engine_for(guarded_form, engine, frontier)
    graph = engine.explore_depth1(
        start=start,
        strategy=frontier,
        stop_on_complete=stop_on_complete,
        resume=resume,
        step_limit=step_limit,
    )
    completion = engine.guards.d1_completion
    complete_masks = {mask for mask in graph.masks if completion(mask)}
    witnesses = graph.reachable_masks(graph.initial_mask) & complete_masks
    answer = bool(witnesses)
    witness_run = graph.run_to_mask(graph.first_by_labels(witnesses)) if witnesses else None
    stats = {
        "canonical_states": len(graph.masks),
        "complete_states": len(witnesses),
        "transitions": graph.transition_count(),
    }
    if stop_on_complete:
        stats["stopped_on_complete"] = graph.stopped_on_complete
    stats["engine"] = engine.stats_snapshot()
    return AnalysisResult(
        problem=_PROBLEM,
        decided=True,
        answer=answer,
        procedure="depth1_canonical_search",
        witness_run=witness_run,
        stats=stats,
    )


def completability_bounded(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    limits: Optional[ExplorationLimits] = None,
    copy_bound_is_sufficient: bool = False,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    resume: bool = False,
    stop_on_complete: bool = False,
    step_limit: Optional[int] = None,
) -> AnalysisResult:
    """Bounded explicit-state completability for arbitrary guarded forms.

    A positive answer (a reachable complete instance was found) is always
    exact.  A negative answer is exact when the exploration exhausted the
    reachable space; when only the sibling-copy bound truncated the search
    the negative answer is still exact provided *copy_bound_is_sufficient*
    (the dispatcher sets this for positive access rules with a bound derived
    from the completion formula, per Theorem 5.2's witness argument).
    Otherwise the result is reported as undecided.

    *resume* continues an exploration checkpointed in the engine's store;
    *stop_on_complete* returns the positive answer as soon as a complete
    state is discovered instead of exhausting the budget.  On a
    :class:`~repro.engine.parallel.ParallelExplorationEngine` the frontier
    waves expand on its worker pool; the explored graph — and hence the
    verdict — is bit-identical to the serial engine's.  *step_limit* bounds
    how many states this call may expand: the exploration then checkpoints
    and raises :class:`~repro.exceptions.ExplorationInterrupted`, and an
    identical call with *resume* continues — the service's slice-wise
    execution mode.
    """
    limits = limits or ExplorationLimits()
    engine = engine_for(guarded_form, engine, frontier)
    graph = engine.explore(
        start=start,
        limits=limits,
        strategy=frontier,
        stop_on_complete=stop_on_complete,
        resume=resume,
        step_limit=step_limit,
    )
    complete_states = engine.complete_ids(graph)
    stats = {
        "states_explored": len(graph.states),
        "transitions": transition_count(graph),
        "truncated": graph.truncated,
        "truncated_by_states": graph.truncated_by_states,
        "truncated_by_size": graph.truncated_by_size,
        "truncated_by_copies": graph.truncated_by_copies,
        "skipped_successors": graph.skipped_successors,
        "stopped_on_complete": graph.stopped_on_complete,
        "resumed": graph.resumed,
        "limits": limits,
        "engine": engine.stats_snapshot(),
    }
    if complete_states:
        key = min(complete_states)  # earliest-interned complete state
        return AnalysisResult(
            problem=_PROBLEM,
            decided=True,
            answer=True,
            procedure="bounded_exploration",
            witness_run=graph.run_to(key),
            stats=stats,
        )
    exhaustive = not graph.truncated
    only_copies = (
        graph.truncated_by_copies
        and not graph.truncated_by_states
        and not graph.truncated_by_size
    )
    negative_is_decided = exhaustive or (only_copies and copy_bound_is_sufficient)
    return AnalysisResult(
        problem=_PROBLEM,
        decided=negative_is_decided,
        answer=False if negative_is_decided else None,
        procedure="bounded_exploration",
        stats=stats,
    )


def positive_rules_copy_bound(guarded_form: GuardedForm) -> int:
    """Sibling-copy bound sufficient for completeness under positive rules.

    The witness construction of Theorem 5.2 (through Lemma 4.4) bounds the
    branching of the witness tree by the size of the completion formula; a
    complete run never needs more same-label copies than that under a single
    node, and positive access rules never require extra copies to stay
    enabled (they are monotone).
    """
    return max(1, guarded_form.completion.size())


def decide_completability(
    guarded_form: Optional[GuardedForm] = None,
    start: Optional[Instance] = None,
    strategy: str = "auto",
    limits: Optional[ExplorationLimits] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    store: Optional[StateStore] = None,
    resume: bool = False,
    stop_on_complete: bool = False,
    workers: int = 1,
    resident_budget: Optional[int] = None,
    step_limit: Optional[int] = None,
    request=None,
) -> AnalysisResult:
    """Decide completability, selecting a procedure from the fragment.

    Args:
        guarded_form: the guarded form to analyse.
        start: analyse completability *from this instance* instead of the
            initial instance (used by the semi-soundness procedures).
        strategy: ``"auto"`` (fragment-based dispatch) or one of
            ``"saturation"``, ``"depth1"``, ``"bounded"``.
        limits: exploration limits for the bounded procedure.
        frontier: frontier strategy for the exploration engine (``"bfs"``,
            ``"dfs"`` or ``"guided"``; default BFS).
        engine: an :class:`~repro.engine.ExplorationEngine` to reuse, sharing
            interned shapes and guard evaluations with previous analyses of
            the same form.
        store: a :class:`~repro.engine.store.StateStore` backing a freshly
            built engine (ignored when *engine* is supplied); saturation
            never touches it.
        resume: continue the bounded or depth-1 exploration from the
            checkpoint an identically parameterised earlier run saved in the
            store.
        stop_on_complete: let the bounded or depth-1 exploration return as
            soon as a complete state is found (early exit; default off,
            pinned by the parity tests).
        workers: number of frontier worker processes of a freshly built
            engine (``1`` — the default — keeps the serial engine; the
            parallel engine's answers are bit-identical, see
            :mod:`repro.engine.parallel`).  Only the bounded procedure
            expands on the workers.
        resident_budget: LRU residency cap of a freshly built, store-backed
            engine (see :mod:`repro.engine.store`).
        step_limit: state-expansion budget per call for the bounded and
            depth-1 procedures (checkpoint + :class:`ExplorationInterrupted`
            when exhausted; resume to continue).
        request: a single :class:`~repro.service.AnalysisRequest` of kind
            ``"completability"`` carrying the whole configuration instead
            of the keyword surface; the call becomes a thin shim over
            :func:`repro.service.dispatch.run_analysis`.
    """
    if request is not None:
        return delegate_to_request(
            "decide_completability", "completability", request, guarded_form
        )
    if guarded_form is None:
        raise RequestError("decide_completability needs a guarded form or request=")
    if strategy not in ("auto", "saturation", "depth1", "bounded"):
        raise AnalysisError(f"unknown completability strategy {strategy!r}")
    procedure, copy_bound_is_sufficient = strategy, False
    if strategy == "auto":
        fragment = classify(guarded_form)
        if fragment.positive_access and fragment.positive_completion:
            procedure = "saturation"
        elif guarded_form.schema_depth() <= 1:
            procedure = "depth1"
        else:
            procedure = "bounded"
            copy_bound_is_sufficient = fragment.positive_access
    if copy_bound_is_sufficient:  # Theorem 5.2: the bound keeps "no" exact
        limits = limits or ExplorationLimits()
        if limits.max_sibling_copies is None:
            limits = replace(
                limits, max_sibling_copies=positive_rules_copy_bound(guarded_form)
            )
    if procedure == "saturation":
        return completability_by_saturation(guarded_form, start)
    owns_engine = engine is None
    engine = engine_for(guarded_form, engine, frontier, store=store, workers=workers, resident_budget=resident_budget)
    try:
        if procedure == "depth1":
            return completability_depth1(
                guarded_form,
                start,
                frontier=frontier,
                engine=engine,
                resume=resume,
                stop_on_complete=stop_on_complete,
                step_limit=step_limit,
            )
        return completability_bounded(
            guarded_form,
            start,
            limits,
            copy_bound_is_sufficient,
            frontier=frontier,
            engine=engine,
            resume=resume,
            stop_on_complete=stop_on_complete,
            step_limit=step_limit,
        )
    finally:
        if owns_engine:
            engine.shutdown_workers()

