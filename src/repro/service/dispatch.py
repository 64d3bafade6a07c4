"""``run_analysis``: the one dispatcher behind every analysis entry point.

The ``request=`` shims of the library dispatchers (``decide_completability``,
``decide_semisoundness``, ``always_holds``, ``can_reach``,
``extract_workflow``), the pod server and the campaign oracles funnel a
:class:`~repro.service.AnalysisRequest` through :func:`run_analysis`, which
resolves the form reference, opens the optional persistent store, and
dispatches on the request's ``kind``.  The CLI's ``analyze``, ``invariant``
and ``workflow`` commands call those dispatchers with keywords instead.  The
parity tests pin this path bit-identical to the keyword surfaces.

The result travels as the versioned ``analysis-result/1`` wire shape
(:func:`result_to_wire`); :func:`run_analysis_wire` is the full wire-to-wire
boundary — decode, run, encode, with every failure mapped onto the stable
error taxonomy of :mod:`repro.service.errors` instead of raising.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.analysis.completability import decide_completability
from repro.analysis.invariants import always_holds, can_reach
from repro.analysis.results import AnalysisResult, ExplorationLimits
from repro.analysis.semisoundness import decide_semisoundness
from repro.cache.runtime import default_cache
from repro.catalog import resolve_form
from repro.engine.store import open_store
from repro.exceptions import RequestError
from repro.io.serialization import encode_update, form_fingerprint, instance_to_dict
from repro.obs import default_telemetry
from repro.service.errors import error_payload, http_status
from repro.service.request import AnalysisRequest, request_from_wire
from repro.workflow.extraction import extract_workflow

#: Version tag of the result wire format; bumped on incompatible changes.
RESULT_API_VERSION = "analysis-result/1"

#: Request fields the exploration-based kinds share (keyword name =
#: dispatcher parameter name).
_COMMON_FIELDS = (
    "frontier",
    "resume",
    "workers",
    "resident_budget",
    "step_limit",
)


def run_analysis(request: AnalysisRequest) -> AnalysisResult:
    """Run the analysis *request* describes and return its result.

    This is the single dispatcher every entry point shims onto: form
    references resolve through :func:`repro.catalog.resolve_form`, a
    ``store`` field opens (and owns) a persistent
    :class:`~repro.engine.store.SqliteStore`, and the ``kind`` selects the
    procedure.  Raises the same library exceptions the keyword surfaces
    raise; use :func:`run_analysis_wire` for the never-raising boundary.
    """
    if request.kind in ("invariant", "reach", "workflow") and request.strategy != "auto":
        raise RequestError(
            f"analysis kind {request.kind!r} has no strategy selector; leave "
            "strategy at 'auto'"
        )
    if request.kind in ("semisoundness", "workflow") and request.stop_on_complete:
        raise RequestError(
            f"stop_on_complete does not apply to analysis kind {request.kind!r}"
        )
    form = resolve_form(request.form)
    telemetry = default_telemetry()
    store = None
    try:
        with telemetry.span(
            "service.run_analysis",
            kind=request.kind,
            form=form.name,
            strategy=request.strategy,
        ):
            if request.store is not None:
                store = open_store(
                    request.store, checkpoint_every=request.checkpoint_every
                )
            common = {name: getattr(request, name) for name in _COMMON_FIELDS}
            common["limits"] = request.limits()
            common["store"] = store
            if request.kind == "completability":
                result = decide_completability(
                    form,
                    strategy=request.strategy,
                    stop_on_complete=request.stop_on_complete,
                    **common,
                )
            elif request.kind == "semisoundness":
                result = decide_semisoundness(
                    form, strategy=request.strategy, **common
                )
            elif request.kind == "invariant":
                result = always_holds(
                    form,
                    request.formula,
                    stop_on_complete=request.stop_on_complete,
                    **common,
                )
            elif request.kind == "reach":
                result = can_reach(
                    form,
                    request.formula,
                    stop_on_complete=request.stop_on_complete,
                    **common,
                )
            else:  # workflow — the only non-decision kind
                result = _run_workflow(form, common)
            if request.metrics:
                result.stats["telemetry"] = telemetry.snapshot()
            return result
    finally:
        if store is not None:
            store.close()


def _run_workflow(form, common: dict) -> AnalysisResult:
    """Workflow extraction wrapped as an :class:`AnalysisResult`.

    Extraction has no yes/no answer; ``decided`` reports whether the
    transition system is exact (not truncated), and the system itself rides
    in ``stats["lts"]`` as a JSON-safe wire dict.
    """
    lts = extract_workflow(form, **common)
    meta = lts.state_annotations.get("__meta__", {})
    truncated = bool(meta.get("truncated"))
    return AnalysisResult(
        problem="workflow",
        decided=not truncated,
        answer=None,
        procedure=f"workflow_extraction_{meta.get('representation', 'unknown')}",
        stats={
            "states": len(lts),
            "transitions": len(lts.transitions),
            "complete_states": len(lts.accepting),
            "truncated": truncated,
            "lts": lts_to_wire(lts),
        },
    )


def lts_to_wire(lts) -> dict:
    """A deterministic JSON-safe dict of a labelled transition system."""
    return {
        "initial": str(lts.initial),
        "states": sorted(str(state) for state in lts.states),
        "accepting": sorted(str(state) for state in lts.accepting),
        "transitions": sorted(
            [str(t.source), t.action, str(t.target)] for t in lts.transitions
        ),
    }


def _json_safe(value):
    """Recursively coerce *value* into JSON-representable primitives.

    Stats dicts carry a few library objects (``ExplorationLimits``, interned
    keys); limits become their field dict, unknown objects their ``repr`` —
    lossy but stable, and the parity-relevant numbers (states, transitions,
    answer) are plain ints/bools already.
    """
    if isinstance(value, ExplorationLimits):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_json_safe(item) for item in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _body_stats(stats: dict) -> dict:
    """*stats* without the engine fields that measure the run rather than
    the answer: wall-clock ``*_seconds`` counters and the live telemetry
    snapshot (``obs``).  Two runs of one request never agree on those, so
    result bodies leave them out; ``stats_snapshot()`` and the metrics
    registry keep them."""
    engine = stats.get("engine")
    if not isinstance(engine, dict):
        return stats
    kept = {
        key: value
        for key, value in engine.items()
        if key != "obs" and not key.endswith("_seconds")
    }
    return {**stats, "engine": kept}


def result_to_wire(result: AnalysisResult) -> dict:
    """Encode an :class:`AnalysisResult` as its versioned JSON-safe wire dict.

    The parity-gated fields — ``answer``, ``decided`` and the states /
    transitions counts inside ``stats`` — survive the trip exactly; witness
    runs travel as their update lists
    (:func:`repro.io.serialization.encode_update`) and counterexample
    instances as their instance dicts.  Wall-clock engine counters stay out
    of the body (:func:`_body_stats`), so two runs of one request encode to
    the same bytes.
    """
    witness = None
    if result.witness_run is not None:
        witness = [encode_update(update) for update in result.witness_run.updates]
    counterexample = None
    if result.counterexample is not None:
        counterexample = instance_to_dict(result.counterexample)
    return {
        "api": RESULT_API_VERSION,
        "problem": result.problem,
        "decided": result.decided,
        "answer": result.answer,
        "procedure": result.procedure,
        "stats": _json_safe(_body_stats(result.stats)),
        "witness_run": witness,
        "counterexample": counterexample,
    }


#: Request fields that determine the analysis *answer*.  Execution knobs —
#: ``workers``, ``resident_budget``, ``store``, ``checkpoint_every``,
#: ``budget_kb`` — are deliberately absent: the PR 3/5 parity contracts pin
#: results identical across all of them, so requests differing only there
#: share one cache entry (the stats block of a cached payload describes the
#: run that populated it).
_RESULT_KEY_FIELDS = (
    "kind",
    "formula",
    "strategy",
    "frontier",
    "max_states",
    "max_instance_nodes",
    "max_sibling_copies",
    "stop_on_complete",
)


def result_cache_key(request: AnalysisRequest) -> Optional[bytes]:
    """The result-cache key of *request*, or ``None`` when it must not cache.

    The key is ``(stable form digest, request fingerprint)``: the resolved
    form's :func:`~repro.io.serialization.form_fingerprint` (so two
    references to the same form share entries, and an edited form can never
    answer for the original) joined with a digest over the semantic request
    fields.  Uncacheable requests: ``trace``/``metrics`` runs (their stats
    embed non-deterministic telemetry), sliced or resumed runs (their
    results describe partial work), and store-writing runs (callers asked
    for the side effect, not just the answer).
    """
    if request.trace or request.metrics:
        return None
    if request.step_limit is not None or request.resume:
        return None
    if request.store is not None:
        return None
    form = resolve_form(request.form)
    fields = {name: getattr(request, name) for name in _RESULT_KEY_FIELDS}
    digest = hashlib.sha256(
        json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return f"{form_fingerprint(form)}|{digest}".encode("ascii")


def result_cache_probe(request: AnalysisRequest) -> "tuple[Optional[bytes], Optional[dict]]":
    """The result-cache key of *request* and its memoized wire body.

    Returns ``(key, body)``: *key* is ``None`` when there is no ambient
    cache or the request must not cache (:func:`result_cache_key`), and
    *body* is ``None`` on a miss.  Pass *key* on to
    :func:`result_cache_store` so that a cold request resolves its form and
    computes its key once.  The cached value is the byte-exact
    ``analysis-result/1`` body a cold run produced (stored as canonical
    JSON), so a warm answer is bit-identical to the run that populated the
    entry — the differential suite pins this per analysis kind.
    """
    kv = default_cache()
    if kv is None:
        return None, None
    key = result_cache_key(request)
    if key is None:
        return None, None
    raw = kv.get("results", key)
    if raw is None:
        return key, None
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return key, None  # a corrupt entry is just a miss; the run recomputes it
    if not isinstance(body, dict) or body.get("api") != RESULT_API_VERSION:
        return key, None
    return key, body


def result_cache_store(key: Optional[bytes], body: dict) -> None:
    """Offer one completed wire *body* to the result cache under *key*, the
    request's :func:`result_cache_key` (``None``: nothing is stored)."""
    kv = default_cache()
    if kv is None or key is None:
        return
    kv.put("results", key, json.dumps(body, separators=(",", ":")).encode("utf-8"))
    kv.flush()  # a result is durable the moment it is announced


def run_analysis_wire(payload: object) -> "tuple[int, dict]":
    """The wire-to-wire boundary: decode, run, encode — never raises.

    Returns ``(http_status, body)``: ``(200, result_to_wire(...))`` on
    success, ``(status, {"error": {...}})`` from the taxonomy on any
    failure.  The server and the in-process tests share this function, so
    HTTP answers are pinned identical to library behaviour.  With an
    ambient cache (:func:`repro.cache.default_cache`), cacheable requests
    probe the ``results`` namespace first and publish their encoded body
    after a cold run under the key the probe computed.
    """
    try:
        request = request_from_wire(payload)
        key, cached = result_cache_probe(request)
        if cached is not None:
            return 200, cached
        result = run_analysis(request)
    except Exception as error:  # noqa: BLE001 — the boundary encodes, never raises
        return http_status(error), error_payload(error)
    body = result_to_wire(result)
    result_cache_store(key, body)
    return 200, body
