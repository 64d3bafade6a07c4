"""Extracting the workflow implied by a guarded form.

The access rules of a guarded form induce a transition system over instances
(Section 3.4 / Definition 3.11).  :func:`extract_workflow` materialises it as
a :class:`~repro.workflow.lts.LabelledTransitionSystem`:

* for depth-1 forms the states are the reachable canonical instances (label
  sets), which by Lemma 4.3 is an exact representation of the workflow;
* for deeper forms the states are isomorphism classes of reachable instances
  explored up to the supplied limits.

Both extractions run on the unified
:class:`~repro.engine.ExplorationEngine`; passing the engine used by a prior
analysis of the same form reuses its interned shapes, memoized expansions and
guard evaluations, so extracting the workflow after an ``analyze`` pass is
almost free.

State names are human-readable (sorted field lists for depth-1 forms, a
numbered ``s<i>`` plus the field multiset otherwise) so the extracted LTS can
be rendered directly with :mod:`repro.io.dot`.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.completability import delegate_to_request
from repro.analysis.results import ExplorationLimits
from repro.core.guarded_form import GuardedForm
from repro.core.instance import Instance
from repro.core.schema import format_schema_path
from repro.engine import ExplorationEngine, StateStore, engine_for
from repro.exceptions import RequestError
from repro.workflow.lts import LabelledTransitionSystem


def extract_workflow(
    guarded_form: Optional[GuardedForm] = None,
    start: Optional[Instance] = None,
    limits: Optional[ExplorationLimits] = None,
    frontier: Optional[str] = None,
    engine: Optional[ExplorationEngine] = None,
    store: Optional[StateStore] = None,
    resume: bool = False,
    workers: int = 1,
    resident_budget: Optional[int] = None,
    step_limit: Optional[int] = None,
    request=None,
):
    """Build the labelled transition system implied by *guarded_form*.

    Accepting states are those whose instance satisfies the completion
    formula.  For non-depth-1 forms the system may be a truncated
    under-approximation; the ``truncated`` key of the returned system's
    ``state_annotations["__meta__"]`` records whether that happened.

    A persistent *store* backs the exploration (interned shapes,
    representatives, checkpoints); *step_limit* slices the exploration
    (checkpoint, then :class:`~repro.exceptions.ExplorationInterrupted`) and
    *resume* continues an interrupted extraction from its checkpoint, on
    depth-1 and deeper forms alike.  ``workers > 1`` runs the bounded
    exploration on a frontier worker pool
    (:mod:`repro.engine.parallel`); the extracted system is identical.

    Alternatively pass a single ``request`` of kind ``"workflow"``; the call
    then delegates to :func:`repro.service.dispatch.run_analysis` and returns
    its :class:`~repro.analysis.results.AnalysisResult` (the extracted system
    rides in ``stats["lts"]`` as its wire dict).
    """
    if request is not None:
        return delegate_to_request("extract_workflow", "workflow", request, guarded_form)
    if guarded_form is None:
        raise RequestError("extract_workflow needs a guarded form or request=")
    owns_engine = engine is None
    engine = engine_for(
        guarded_form, engine, frontier, store=store, workers=workers,
        resident_budget=resident_budget,
    )
    try:
        if guarded_form.schema_depth() <= 1:
            return _extract_depth1(engine, start, frontier, resume, step_limit)
        return _extract_bounded(engine, start, limits, frontier, resume, step_limit)
    finally:
        if owns_engine:
            engine.shutdown_workers()


def _depth1_state_name(state: frozenset) -> str:
    return "{" + ", ".join(sorted(state)) + "}" if state else "{}"


def _extract_depth1(
    engine: ExplorationEngine,
    start: Optional[Instance],
    frontier: Optional[str],
    resume: bool,
    step_limit: Optional[int],
) -> LabelledTransitionSystem:
    graph = engine.explore_depth1(
        start=start, strategy=frontier, resume=resume, step_limit=step_limit
    )
    lts = LabelledTransitionSystem(initial=_depth1_state_name(graph.initial))
    completion = engine.guards.d1_completion
    complete = {graph.label_set(mask) for mask in graph.masks if completion(mask)}
    for state in graph.states:
        lts.add_state(
            _depth1_state_name(state),
            accepting=state in complete,
            annotation=state,
        )
    for state, transitions in graph.transitions.items():
        for transition in transitions:
            action = f"{'add' if transition.kind == 'add' else 'delete'} {transition.label}"
            lts.add_transition(
                _depth1_state_name(state), action, _depth1_state_name(transition.target)
            )
    lts.state_annotations["__meta__"] = {"truncated": False, "representation": "canonical"}
    return lts


def _extract_bounded(
    engine: ExplorationEngine,
    start: Optional[Instance],
    limits: Optional[ExplorationLimits],
    frontier: Optional[str],
    resume: bool,
    step_limit: Optional[int],
) -> LabelledTransitionSystem:
    graph = engine.explore(
        start=start, limits=limits, strategy=frontier, resume=resume,
        step_limit=step_limit,
    )
    names: dict = {}
    for index, state_id in enumerate(
        sorted(graph.states, key=lambda state_id: repr(graph.shape_of(state_id)))
    ):
        instance = graph.representative(state_id)
        fields = sorted(
            format_schema_path(node.label_path())
            for node in instance.nodes()
            if not node.is_root()
        )
        names[state_id] = f"s{index}:" + ("{" + ", ".join(fields) + "}" if fields else "{}")

    complete = engine.complete_ids(graph)
    lts = LabelledTransitionSystem(initial=names[graph.initial_id])
    for state_id, instance in graph.iter_states():
        lts.add_state(
            names[state_id],
            accepting=state_id in complete,
            annotation=instance,
        )
    for state_id, edges in graph.transitions.items():
        source_instance = graph.representative(state_id)
        for update, target_id in edges:
            if target_id not in names:
                continue
            lts.add_transition(names[state_id], update.describe(source_instance), names[target_id])
    lts.state_annotations["__meta__"] = {
        "truncated": graph.truncated,
        "representation": "isomorphism",
    }
    return lts
