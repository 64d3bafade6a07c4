"""Differential oracles a campaign runs every generated form through.

Each oracle re-executes a form's exploration down a different engine path and
checks the result against the plain serial reference — every generated form
is a differential test case, and a disagreement is a bug surfaced by the
campaign rather than by a hand-written regression test:

``legacy``
    the unified engine vs the pre-engine reference explorers
    (:func:`~repro.analysis.statespace.legacy_explore_depth1` /
    :func:`~repro.analysis.statespace.legacy_explore_bounded`);
``serial-parallel``
    bit-identity of a ``workers=2`` :class:`ParallelExplorationEngine` run —
    state ids *and* node-id-exact transitions;
``resume``
    kill-and-resume: the exploration is repeatedly interrupted by a step
    budget, each continuation in a fresh engine + store handle (standing in
    for a fresh process), and must converge to the uninterrupted graph;
``budget``
    ``resident_budget``-bounded store-backed run vs the unbounded reference;
``cache``
    cold and warm wire answers through one result cache (:mod:`repro.cache`)
    vs the uncached answer — the cache must be a pure observer.

Oracles receive a shared :class:`ExecutionContext` so the serial reference
(and the depth-1 canonical graph, where the form allows one) is computed once
per form no matter how many oracles consume it.  ``resolve_stack`` maps the
CLI's comma-separated oracle names to instances; the campaign runner treats
any object with ``name`` / ``sample_every`` / ``check`` as an oracle, which
is how the triage tests inject a deliberately-wrong one.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.cache import MemoryKV, use_cache
from repro.core.guarded_form import GuardedForm
from repro.engine import ExplorationEngine, ParallelExplorationEngine, SqliteStore
from repro.exceptions import CampaignError, ExplorationInterrupted
from repro.io.serialization import guarded_form_to_dict
from repro.service.dispatch import result_to_wire, run_analysis, run_analysis_wire
from repro.service.request import REQUEST_API_VERSION, request_from_wire


@dataclass
class OracleOutcome:
    """One oracle's verdict on one form."""

    oracle: str
    agree: bool
    detail: str = ""


def exact_edges(graph) -> dict:
    """Node-id-exact transition lists of an engine graph (bit-identity key)."""
    return {
        source: [
            (
                type(update).__name__,
                getattr(update, "parent_id", None),
                getattr(update, "node_id", None),
                getattr(update, "label", None),
                target,
            )
            for update, target in edges
        ]
        for source, edges in graph.transitions.items()
    }


def engine_graphs_identical(graph, reference) -> bool:
    """Whether two engine graphs are bit-identical (ids and exact edges)."""
    return graph.states == reference.states and exact_edges(graph) == exact_edges(
        reference
    )


def depth1_transition_sets(graph) -> dict:
    return {
        state: {(t.kind, t.label, t.target) for t in transitions}
        for state, transitions in graph.transitions.items()
    }


@dataclass
class ExecutionContext:
    """Everything the oracle stack shares about one form's execution.

    The serial reference ``explore()`` run and (for depth-1 forms) the
    exhaustive canonical graph are computed lazily and memoized: the first
    oracle that needs one pays for it, later oracles reuse it.
    """

    form: GuardedForm
    kind: str  # "depth1" | "bounded"
    limits: ExplorationLimits
    workdir: Optional[Path] = None  # scratch dir for store-backed oracles
    _reference: Optional[object] = field(default=None, repr=False)
    _reference_engine: Optional[ExplorationEngine] = field(default=None, repr=False)
    _depth1_graph: Optional[object] = field(default=None, repr=False)
    _depth1_engine: Optional[ExplorationEngine] = field(default=None, repr=False)
    reference_seconds: float = 0.0
    depth1_seconds: float = 0.0

    def reference(self):
        """The serial in-memory ``explore()`` graph (the parity baseline)."""
        if self._reference is None:
            self._reference_engine = ExplorationEngine(self.form, limits=self.limits)
            started = time.perf_counter()
            self._reference = self._reference_engine.explore()
            self.reference_seconds = time.perf_counter() - started
        return self._reference

    def reference_engine(self) -> ExplorationEngine:
        self.reference()
        return self._reference_engine

    def depth1_graph(self):
        """The exhaustive canonical depth-1 graph (depth-1 forms only)."""
        if self._depth1_graph is None:
            self._depth1_engine = ExplorationEngine(self.form)
            started = time.perf_counter()
            self._depth1_graph = self._depth1_engine.explore_depth1()
            self.depth1_seconds = time.perf_counter() - started
        return self._depth1_graph

    def depth1_engine(self) -> ExplorationEngine:
        self.depth1_graph()
        return self._depth1_engine

    def store_path(self, tag: str) -> Path:
        if self.workdir is None:
            raise CampaignError("store-backed oracles need an execution workdir")
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self.workdir / f"{tag}.db"


class Oracle:
    """Base class: a named differential check over an :class:`ExecutionContext`.

    ``sample_every``: the runner applies the oracle to every Nth spec of the
    campaign queue (deterministically, by spec index) — expensive oracles can
    be sampled under ``--smoke`` without losing reproducibility.
    """

    name = "oracle"
    sample_every = 1

    def check(self, ctx: ExecutionContext) -> OracleOutcome:  # pragma: no cover
        raise NotImplementedError

    def _agree(self, detail: str = "") -> OracleOutcome:
        return OracleOutcome(self.name, True, detail)

    def _disagree(self, detail: str) -> OracleOutcome:
        return OracleOutcome(self.name, False, detail)


class LegacyOracle(Oracle):
    """Engine exploration vs the pre-engine reference explorers."""

    name = "legacy"

    def check(self, ctx: ExecutionContext) -> OracleOutcome:
        from repro.analysis.statespace import (
            legacy_explore_bounded,
            legacy_explore_depth1,
        )

        if ctx.kind == "depth1":
            graph = ctx.depth1_graph()
            legacy = legacy_explore_depth1(ctx.form)
            if graph.states != legacy.states:
                return self._disagree(
                    f"engine explored {len(graph.states)} canonical states, "
                    f"legacy {len(legacy.states)}"
                )
            if depth1_transition_sets(graph) != depth1_transition_sets(legacy):
                return self._disagree("depth-1 transition sets differ from legacy")
            return self._agree()
        graph = ctx.reference()
        legacy = legacy_explore_bounded(ctx.form, limits=ctx.limits)
        engine_shapes = {graph.shape_of(s) for s in graph.states}
        if engine_shapes != legacy.states:
            return self._disagree(
                f"engine explored {len(engine_shapes)} shapes, legacy "
                f"{len(legacy.states)}"
            )
        return self._agree()


class SerialParallelOracle(Oracle):
    """Serial vs ``--workers 2`` bit-identity (the PR 3 contract)."""

    name = "serial-parallel"
    workers = 2

    def check(self, ctx: ExecutionContext) -> OracleOutcome:
        reference = ctx.reference()
        engine = ParallelExplorationEngine(
            ctx.form, limits=ctx.limits, workers=self.workers, min_wave=1
        )
        try:
            graph = engine.explore()
        finally:
            engine.shutdown_workers()
        if not engine_graphs_identical(graph, reference):
            return self._disagree(
                f"parallel graph diverged from serial ({len(graph.states)} vs "
                f"{len(reference.states)} states)"
            )
        return self._agree()


class ResumeOracle(Oracle):
    """Cold run vs kill-and-resume through a persistent store."""

    name = "resume"

    def check(self, ctx: ExecutionContext) -> OracleOutcome:
        reference = ctx.reference()
        step = max(9, len(reference.states) // 3)
        path = ctx.store_path("resume")
        graph = None
        rounds = 0
        while graph is None:
            rounds += 1
            if rounds > 200:
                return self._disagree("kill-and-resume loop failed to converge")
            engine = ExplorationEngine(
                ctx.form,
                limits=ctx.limits,
                store=SqliteStore(path),
                checkpoint_every=step,
            )
            try:
                graph = engine.explore(resume=True, step_limit=step)
            except ExplorationInterrupted:
                pass
            engine.store.close()
        if not engine_graphs_identical(graph, reference):
            return self._disagree(
                f"resumed graph diverged after {rounds} interruptions "
                f"({len(graph.states)} vs {len(reference.states)} states)"
            )
        return self._agree(f"{rounds} interruptions")


class BudgetOracle(Oracle):
    """Unbudgeted vs ``--resident-budget`` parity (the PR 5 contract)."""

    name = "budget"

    def check(self, ctx: ExecutionContext) -> OracleOutcome:
        reference = ctx.reference()
        budget = max(4, len(reference.states) // 4)
        store = SqliteStore(ctx.store_path("budget"))
        engine = ExplorationEngine(
            ctx.form, limits=ctx.limits, store=store, resident_budget=budget
        )
        graph = engine.explore()
        store.close()
        if not engine_graphs_identical(graph, reference):
            return self._disagree(
                f"resident_budget={budget} run diverged from unbounded "
                f"({len(graph.states)} vs {len(reference.states)} states)"
            )
        return self._agree(f"budget {budget}")


class CacheOracle(Oracle):
    """Result-cache transparency (the PR 10 contract).

    Answers the form's completability request at the wire boundary three
    times: uncached, then cold and warm under one in-memory KV.  Both cached
    bodies must be byte-identical to the uncached one, and the warm call must
    be served from the ``results`` namespace.
    """

    name = "cache"

    def check(self, ctx: ExecutionContext) -> OracleOutcome:
        payload = {
            "api": REQUEST_API_VERSION,
            "form": guarded_form_to_dict(ctx.form),
            "kind": "completability",
            **dataclasses.asdict(ctx.limits),
        }
        # run_analysis never consults a cache, ambient or not
        uncached = _canonical(result_to_wire(run_analysis(request_from_wire(payload))))
        kv = MemoryKV()
        with use_cache(kv):
            _, cold = run_analysis_wire(payload)
            _, warm = run_analysis_wire(payload)
        if _canonical(cold) != uncached:
            return self._disagree("cold cached body differs from uncached")
        if _canonical(warm) != uncached:
            return self._disagree("warm cached body differs from uncached")
        hits = kv.stats()["namespaces"]["results"]["hits"]
        if hits != 1:
            return self._disagree(f"warm call made {hits} results hits, expected 1")
        return self._agree("warm call served from the results namespace")


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


#: Registry keyed by oracle name (the ``--oracles`` vocabulary).
ORACLES: dict[str, type] = {
    oracle.name: oracle
    for oracle in (
        LegacyOracle,
        SerialParallelOracle,
        ResumeOracle,
        BudgetOracle,
        CacheOracle,
    )
}

#: The default stack: every oracle, on every form.
DEFAULT_STACK = ("legacy", "serial-parallel", "resume", "budget", "cache")

#: How often the worker-pool oracle runs under ``--smoke`` (spawning a pool
#: per form dominates a large smoke campaign's wall time; sampling keeps the
#: parallel path covered without it).
SMOKE_PARALLEL_SAMPLE = 25


def resolve_stack(names, smoke: bool = False) -> list[Oracle]:
    """Instantiate the oracle stack for *names* (in the given order).

    Raises:
        CampaignError: on an unknown oracle name.
    """
    stack: list[Oracle] = []
    for name in names:
        cls = ORACLES.get(name)
        if cls is None:
            raise CampaignError(
                f"unknown oracle {name!r}; known oracles: {', '.join(sorted(ORACLES))}"
            )
        oracle = cls()
        if smoke and name == "serial-parallel":
            oracle.sample_every = SMOKE_PARALLEL_SAMPLE
        stack.append(oracle)
    return stack


def decide_outcome(ctx: ExecutionContext):
    """The form's completability verdict, reusing the context's engine."""
    engine = ctx.depth1_engine() if ctx.kind == "depth1" else ctx.reference_engine()
    return decide_completability(ctx.form, limits=ctx.limits, engine=engine)
