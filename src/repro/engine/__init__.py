"""The unified exploration engine.

Every decision procedure in :mod:`repro.analysis` — completability
(Theorems 4.6/5.2/5.5), semi-soundness, invariant checking — and the workflow
extraction of :mod:`repro.workflow` funnels through state-space exploration.
This package is that hot path, carved out as an explicit subsystem:

* :mod:`repro.engine.interning` — every subtree hash-consed to an int
  subtree id, int state keys, successors derived by rewriting the one path
  an update changes; store-backed engines get a
  two-tier table (resident dict first, on-miss reverse lookup through the
  store's ``shape_hash`` index) so residency tracks what a run touches,
  not what the store holds;
* :mod:`repro.engine.guards` — memoized access-rule / completion-formula
  evaluation with support-projection and subtree-id sharing, running
  rules compiled once per form from per-schema-node probe plans;
* :mod:`repro.engine.strategies` — pluggable frontier orders (BFS, DFS,
  completion-guided best-first);
* :mod:`repro.engine.store` — persistent state stores
  (:class:`InMemoryStore` / :class:`SqliteStore`): interned shapes, canonical
  representatives and resumable exploration checkpoints on disk (guard
  values stay in memory), with write batching and a ``shape_hash``-indexed
  reverse lookup backing partial hydration and the engine's
  ``resident_budget`` eviction; every read is answered by the write buffer
  or by sqlite;
* :mod:`repro.engine.engine` — :class:`ExplorationEngine`, tying them
  together and producing :class:`EngineGraph` / legacy-compatible graphs;
* :mod:`repro.engine.parallel` / :mod:`repro.engine.workers` —
  :class:`ParallelExplorationEngine`, expanding frontier waves on
  :class:`WorkerPool` processes (shape-hash sharded, batched result merging)
  with results bit-identical to the serial engine;
* :mod:`repro.engine.wire` — the workers' answers to task batches: one
  pickled answer per batch with a per-batch shape table (each distinct
  successor root shape listed once, candidates referencing it by index)
  and inline guard entries.

The legacy entry points ``explore_depth1`` / ``explore_bounded`` in
:mod:`repro.analysis.statespace` remain as thin shims over this engine.
"""

from repro.engine.engine import EngineGraph, ExplorationEngine, engine_for
from repro.engine.guards import GuardCache, navigates_upward, support_labels
from repro.engine.parallel import ParallelExplorationEngine, stable_shape_hash
from repro.engine.interning import (
    IncrementalShaper,
    ShapeInterner,
    StateId,
    map_isomorphism,
)
from repro.engine.store import (
    InMemoryStore,
    SqliteStore,
    StateStore,
    exploration_run_key,
    open_store,
)
from repro.engine.wire import FrameEncoder, WireFrame
from repro.engine.workers import FrontierWorker, WorkerPool
from repro.engine.strategies import (
    STRATEGIES,
    BreadthFirstFrontier,
    DepthFirstFrontier,
    FrontierStrategy,
    GuidedFrontier,
    completion_distance,
    make_strategy,
)

__all__ = [
    "ExplorationEngine",
    "ParallelExplorationEngine",
    "EngineGraph",
    "engine_for",
    "stable_shape_hash",
    "WorkerPool",
    "FrontierWorker",
    "FrameEncoder",
    "WireFrame",
    "StateStore",
    "InMemoryStore",
    "SqliteStore",
    "open_store",
    "exploration_run_key",
    "GuardCache",
    "support_labels",
    "navigates_upward",
    "ShapeInterner",
    "IncrementalShaper",
    "StateId",
    "map_isomorphism",
    "FrontierStrategy",
    "BreadthFirstFrontier",
    "DepthFirstFrontier",
    "GuidedFrontier",
    "completion_distance",
    "make_strategy",
    "STRATEGIES",
]
