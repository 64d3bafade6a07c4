"""The parallel exploration subsystem: multi-process frontier expansion.

:class:`ParallelExplorationEngine` extends the serial
:class:`~repro.engine.engine.ExplorationEngine` with **wave prefetching**:
whenever the exploration loop is about to expand a state whose candidates are
neither memoized nor already staged, the engine snapshots the whole pending
frontier, partitions it across the :class:`~repro.engine.workers.WorkerPool`
— the shape interner is *sharded by shape hash*, worker ``i`` owning every
state with ``stable_shape_hash(shape) % N == i``, so a shard's subtree shapes
and guard evaluations accumulate in one worker's caches — and stages the
workers' **pickled answers** (:mod:`repro.engine.wire`).  The base class's
exploration loop is untouched: it pops states in exactly the serial order,
and :meth:`_expand` adopts a staged expansion by interning its successor
shapes *at that moment*, in candidate order.

That split is what makes parallel runs **bit-identical** to serial ones — a
property the differential suite (``tests/engine/test_parallel.py``) pins per
benchgen family:

* state ids are assigned by the coordinator only, in the serial engine's
  pop/candidate order (workers never intern state ids; they return
  shape-table indices);
* subtree ids are local to each process's interner, so workers ship nested
  tuples — root shapes and the subtree terms of ``A``/``D`` guard keys — and
  the coordinator maps them back to its own subtree ids through the
  interner's nested-tuple memo
  (:meth:`~repro.engine.interning.ShapeInterner.cons_tree`);
* a genuinely new successor records the same origin (parent id, update) the
  serial engine records, and its canonical representative is derived *by the
  coordinator*, on first use, with the exact incremental derivation the
  serial engine uses
  (:meth:`~repro.engine.interning.IncrementalShaper.successor`) — node ids,
  child order and the id counter included — so nothing about a state depends
  on which process first saw it;
* limits, truncation flags, early exit and checkpoint/resume all live in the
  unmodified base loop, so ``--workers N`` composes with every existing
  feature (any frontier strategy, ``stop_on_complete``, ``step_limit``,
  store-backed resume) without new semantics.

PR 3 shipped one JSON-encoded successor instance per candidate (the
coordinator-side decode/merge being the Amdahl bottleneck); an answer now
carries a per-batch shape table — each distinct successor root shape once,
candidates referencing it by index — and no representative instances at
all.  Per-wave answer bytes, the shape-dedup hit rate and decode time are
tracked and surface in ``stats["engine"]`` as ``wire_*`` counters;
``tests/engine/test_parallel.py`` requires bytes per candidate at least 40%
below the PR 3 encoding.

Guard values flow back inside each answer: the coordinator merges the
returned entries into its own :class:`~repro.engine.guards.GuardCache`
(:meth:`~repro.engine.guards.GuardCache.restore`), so nothing a worker
evaluated is evaluated again on the coordinator.  Workers never read the
state store: a task carries each state's representative, and guard values
are never written to a store.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.engine import ExplorationEngine
from repro.engine.guards import map_subtree_keys
from repro.engine.interning import StateId
from repro.engine.store import StateStore
from repro.engine.wire import WireFrame
from repro.engine.workers import WorkerPool
from repro.exceptions import AnalysisError
from repro.io.serialization import (
    encode_instance_with_ids,
    stable_shape_hash,
)

__all__ = ["ParallelExplorationEngine", "drain_task_queue", "stable_shape_hash"]
# stable_shape_hash moved to repro.io.serialization (the store's shape_hash
# reverse-lookup column shares it); re-exported here for compatibility.


def drain_task_queue(tasks, fn, workers: int = 1):
    """Map *fn* over *tasks* on a process pool, results in task order.

    The coarse-grained sibling of the wave prefetching below: instead of
    parallelising *inside* one exploration, it fans independent tasks (a
    campaign's form queue) across processes.  ``workers <= 1`` runs inline —
    same semantics, no pool, and the only mode that supports non-picklable
    *fn* closures (the campaign runner relies on this for injected oracles).

    The pool is a ``concurrent.futures.ProcessPoolExecutor``, **not**
    ``multiprocessing.Pool``: executor workers are non-daemonic, so a task
    may itself spawn a :class:`WorkerPool` (whose processes are daemons) —
    which is exactly what a campaign task does when it runs the
    serial-vs-parallel oracle.
    """
    items = list(tasks)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


class ParallelExplorationEngine(ExplorationEngine):
    """An exploration engine expanding frontier waves on worker processes.

    Args:
        workers: number of frontier worker processes (``1`` keeps everything
            on the serial path; the pool is only ever spawned for ``>= 2``).
        min_wave: smallest uncovered frontier worth shipping to the pool;
            smaller waves (the first few BFS levels, the mostly-memoized
            re-explorations of a semi-soundness sweep) expand serially to
            skip the IPC round-trip.  Defaults to ``2 * workers``.

    The remaining arguments are the base engine's.  Call
    :meth:`shutdown_workers` (or use the engine as a context manager) when
    done; analyses that build the engine themselves do so automatically.
    """

    def __init__(
        self,
        guarded_form,
        limits=None,
        strategy: str = "bfs",
        store: Optional[StateStore] = None,
        checkpoint_every: int = 1000,
        workers: int = 2,
        min_wave: Optional[int] = None,
        resident_budget: Optional[int] = None,
        telemetry=None,
    ) -> None:
        super().__init__(
            guarded_form,
            limits=limits,
            strategy=strategy,
            store=store,
            checkpoint_every=checkpoint_every,
            resident_budget=resident_budget,
            telemetry=telemetry,
        )
        if workers < 1:
            raise AnalysisError("workers must be a positive integer")
        self.workers = workers
        self.min_wave = max(1, min_wave if min_wave is not None else 2 * workers)
        self._pool: Optional[WorkerPool] = None
        self._staged: dict = {}  # StateId -> WireFrame carrying its payload
        self._shards: dict = {}  # StateId -> shard index
        self.waves_dispatched = 0
        self.states_prefetched = 0
        self.expansions_adopted = 0
        self.worker_guard_entries_merged = 0
        # wire-protocol counters (surfaced as stats["engine"]["wire_*"])
        self.wire_frames_received = 0
        self.wire_bytes_received = 0
        self.wire_bytes_last_wave = 0
        self.wire_expansion_bytes = 0  # shape tables + candidate payloads
        self.wire_guard_bytes = 0  # guard-entry sections
        self.wire_shape_refs = 0  # candidates received, i.e. shape-table references
        self.wire_shape_table_entries = 0  # distinct shapes actually serialised
        self.wire_decode_seconds = 0.0
        self.worker_snapshots_merged = 0  # telemetry payloads merged from answers

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                self.guarded_form,
                self.workers,
                telemetry_enabled=self.telemetry.enabled,
            )
        return self._pool

    def spawn_workers(self) -> None:
        """Spawn the worker pool eagerly (it is otherwise lazy).

        Benchmarks call this before starting their timers so the recorded
        throughput measures exploration, not process startup.
        """
        if self.workers > 1:
            self._ensure_pool()

    def shutdown_workers(self) -> None:
        """Stop the worker pool (idempotent; a later explore respawns it).

        Staged-but-never-adopted frames are dropped with it: an analysis that
        is done with its workers is done prefetching.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._staged.clear()

    def __enter__(self) -> "ParallelExplorationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown_workers()

    # ------------------------------------------------------------------ #
    # wave prefetching
    # ------------------------------------------------------------------ #

    def _shard_of(self, state_id: StateId) -> int:
        shard = self._shards.get(state_id)
        if shard is None:
            # the digest is memoized per root subtree id, and the encoding
            # reuses the bodies of the subtrees it shares with earlier states
            shard = self.interner.stable_hash_of(state_id) % self.workers
            self._shards[state_id] = shard
        return shard

    def _expand_from(self, state_id: StateId, frontier) -> list:
        if (
            self.workers > 1
            and state_id not in self._expansions
            and state_id not in self._staged
        ):
            self._prefetch(state_id, frontier)
        return self._expand(state_id)

    def _prefetch(self, state_id: StateId, frontier) -> None:
        """Expand the uncovered slice of the pending frontier on the pool.

        Prefetching is semantically transparent: staged frames intern nothing
        until :meth:`_expand` adopts them, so work wasted on states a
        truncated or early-exiting exploration never pops costs cycles, not
        correctness.
        """
        wave = [state_id]
        covered = {state_id}
        for pending_id in frontier.pending():
            if (
                pending_id in covered
                or pending_id in self._expansions
                or pending_id in self._staged
            ):
                continue
            covered.add(pending_id)
            wave.append(pending_id)
        if len(wave) < self.min_wave:
            return  # not worth a round-trip; the base loop expands serially
        batches: dict = {index: [] for index in range(self.workers)}
        budget = self.resident_budget
        for wave_id in wave:
            batches[self._shard_of(wave_id)].append(
                (wave_id, encode_instance_with_ids(self.representative(wave_id)))
            )
            # each representative is needed only while being encoded; a wave
            # over a frontier wider than the budget must not drag the whole
            # frontier's representatives resident
            if budget is not None and len(self._reps) > budget:
                self._enforce_budget()
        pool = self._ensure_pool()
        obs = self.telemetry
        wave_started = obs.now()
        try:
            raw_frames = pool.run_wave(batches)
        except BaseException:
            # a failed or interrupted wave may leave answers in flight; tear
            # the pool down so a resume starts from a clean one (run_wave's
            # wave ids would drop strays anyway — this reclaims the
            # processes too)
            self.shutdown_workers()
            raise
        wave_bytes = 0
        # worker keys carry nested tuples; cons_tree memoizes the ones seen
        cons_tree = self.interner.cons_tree
        for data in raw_frames:
            frame = WireFrame(data)  # unpickled on receipt
            wave_bytes += len(frame)
            self.wire_frames_received += 1
            self.wire_expansion_bytes += frame.expansion_nbytes
            self.wire_guard_bytes += frame.guard_nbytes
            self.wire_shape_refs += frame.total_candidates
            self.wire_shape_table_entries += frame.shape_count
            for key, value in map_subtree_keys(frame.guard_entries, cons_tree):
                self.guards.restore(key, value)
            self.worker_guard_entries_merged += len(frame.guard_entries)
            for staged_id in frame.state_ids():
                self._staged[staged_id] = frame
            self.wire_decode_seconds += frame.take_decode_seconds()
            if frame.telemetry is not None and obs.enabled:
                # per-worker spans land on the shared timeline, metric
                # deltas under a worker=<index> label — the cross-process
                # view a single merged trace file renders
                obs.merge_remote(frame.telemetry)
                self.worker_snapshots_merged += 1
        self.wire_bytes_received += wave_bytes
        self.wire_bytes_last_wave = wave_bytes
        self.waves_dispatched += 1
        self.states_prefetched += len(wave)
        if obs.enabled:
            obs.end_span(
                "engine.prefetch_wave",
                wave_started,
                states=len(wave),
                workers=self.workers,
                bytes=wave_bytes,
            )
            obs.sample_rss(reps_resident=len(self._reps))

    # ------------------------------------------------------------------ #
    # staged-expansion adoption
    # ------------------------------------------------------------------ #

    def _expand(self, state_id: StateId) -> list:
        if state_id not in self._expansions:
            frame = self._staged.pop(state_id, None)
            if frame is not None:
                return self._adopt(state_id, frame)
        return super()._expand(state_id)

    def _adopt(self, state_id: StateId, frame: WireFrame) -> list:
        """Turn a staged worker answer into a memoized expansion.

        The state's candidates are built *here* (lazily, per state) and
        successor state ids are assigned in candidate order — the same moment and order the
        serial engine's ``_expand`` would intern them — which keeps the dense
        id assignment (including ids for candidates a limit later filters
        out) bit-identical to a serial run.  A successor new to the interner
        has its root shape re-derived from the parent representative (the
        drift check against the worker's table entry) and records its
        origin, exactly as the serial engine's discovery does, so its
        representative is derived on first use; known successors cost a
        shape-table lookup only.
        """
        interner = self.interner
        sids = frame.shape_rows(interner)
        raw_candidates, guard_queries = frame.expansion(state_id)
        self.wire_decode_seconds += frame.take_decode_seconds()
        parent = self.representative(state_id)
        parent_map = self._shape_map_of(state_id)
        candidates: list = []
        for update, shape_index, is_addition, succ_size, copies in raw_candidates:
            root = sids[shape_index]
            succ_id, is_new = interner.state_id_row(root)
            if is_new:
                if self.shaper.successor_shape(parent, parent_map, update) != root:
                    # equal subtree ids are equal shapes, so inequality means
                    # the worker's and the coordinator's derivations drifted
                    # and the graph would silently corrupt
                    raise AnalysisError(
                        f"wire shape for state {succ_id} does not match the "
                        "coordinator-derived successor shape (shaper drift)"
                    )
                self._record_origin(succ_id, state_id, update)
            candidates.append((update, succ_id, is_addition, succ_size, copies))
        self._expansions[state_id] = (candidates, guard_queries)
        self.guards.credit_reuse(guard_queries)
        self.expansions_computed += 1
        self.expansions_adopted += 1
        return candidates

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> dict:
        snapshot = super().stats_snapshot()
        snapshot["workers"] = self.workers
        snapshot["waves_dispatched"] = self.waves_dispatched
        snapshot["states_prefetched"] = self.states_prefetched
        snapshot["expansions_adopted"] = self.expansions_adopted
        snapshot["worker_guard_entries_merged"] = self.worker_guard_entries_merged
        snapshot["wire_frames_received"] = self.wire_frames_received
        snapshot["wire_bytes_received"] = self.wire_bytes_received
        snapshot["wire_bytes_last_wave"] = self.wire_bytes_last_wave
        snapshot["wire_expansion_bytes"] = self.wire_expansion_bytes
        snapshot["wire_guard_bytes"] = self.wire_guard_bytes
        snapshot["wire_shape_refs"] = self.wire_shape_refs
        snapshot["wire_shape_table_entries"] = self.wire_shape_table_entries
        refs = self.wire_shape_refs
        snapshot["wire_dedup_hit_rate"] = (
            round(1.0 - self.wire_shape_table_entries / refs, 4) if refs else 0.0
        )
        # expansion payload only: the guard section is tracked separately so
        # this compares like for like with the PR 3 per-candidate encoding
        snapshot["wire_bytes_per_candidate"] = (
            round(self.wire_expansion_bytes / refs, 2) if refs else None
        )
        snapshot["wire_decode_seconds"] = round(self.wire_decode_seconds, 6)
        snapshot["worker_snapshots_merged"] = self.worker_snapshots_merged
        return snapshot
