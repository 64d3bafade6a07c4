"""Frontier worker processes for the parallel exploration subsystem.

A :class:`WorkerPool` owns N ``multiprocessing`` processes, each running
:func:`worker_main` over a read-only snapshot of one guarded form.  The
coordinator (:class:`~repro.engine.parallel.ParallelExplorationEngine`)
partitions each frontier wave into per-worker batches — a worker owns the
shard ``stable_shape_hash(shape) % N``, so the subtree shapes and guard
values of a shard accumulate in that worker's local caches across waves —
and every worker answers one batch with one message:

``(worker index, wave id, pickled answer, error)``

The answer (:mod:`repro.engine.wire`) holds each state's expansion — per
candidate the update, an index into the answer's **per-batch shape table**
(each distinct successor root shape listed once), the successor size and
the pre-update sibling-copy count.  Successor representatives are *not*
shipped: the coordinator owns the parent representative it sent with the
task and derives a genuinely-new successor's representative itself, on
first use, with the same incremental derivation the serial engine uses —
node id for node id.

Workers never intern canonical state ids: interning order determines the
engine's dense id assignment, and keeping it on the coordinator (which merges
in serial pop order) is what makes parallel runs bit-identical to serial
ones.  Subtree ids are local to a worker's interner too, so everything an
answer carries names shapes by nested tuple.  Workers never read the
engine's state store: everything a batch needs arrives with its task.  What
workers *do* share is guard evaluations: each worker keeps an in-memory
:class:`~repro.engine.guards.GuardCache` keyed identically to the
coordinator's (states are addressed by their canonical ids, shipped with the
task) and returns the entries each batch evaluated in its answer, for the
coordinator to merge.  Guard values never touch the store.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback

from repro.core.guarded_form import GuardedForm, Update
from repro.engine.engine import enumerate_expansion
from repro.engine.guards import GuardCache, map_subtree_keys
from repro.engine.interning import IncrementalShaper, ShapeInterner
from repro.engine.wire import FrameEncoder
from repro.exceptions import AnalysisError
from repro.io.serialization import decode_instance_with_ids
from repro.obs import NO_TELEMETRY, Telemetry

#: Sentinel telling a worker's task loop to exit.
_SHUTDOWN = None

#: How long (seconds) the coordinator waits between liveness checks while
#: collecting wave results.
_POLL_INTERVAL = 0.25


class FrontierWorker:
    """The per-process expansion state: one guarded form, local caches.

    ``expand`` runs the *shared* candidate enumeration
    (:func:`~repro.engine.engine.enumerate_expansion`) — the same traversal,
    guard keys and candidate order as the serial engine's ``_expand``, by
    construction — which the serial-vs-parallel differential suite pins per
    benchgen family.
    """

    def __init__(self, guarded_form: GuardedForm, telemetry=None) -> None:
        self._form = guarded_form
        self._interner = ShapeInterner()
        self._shaper = IncrementalShaper(self._interner)
        self.telemetry = telemetry if telemetry is not None else NO_TELEMETRY
        self._guards = GuardCache(guarded_form, telemetry=self.telemetry)
        #: Guard entries already shipped to the coordinator: the cache's
        #: first ``_guards_reported`` entries.
        self._guards_reported = 0

    def expand(self, state_id: int, blob: str) -> tuple:
        """Expansion payload for one state: ``(candidates, queries)``.

        Candidates are raw ``(update, root sid, is_addition, successor size,
        copies)`` tuples — the answer encoder lists each distinct root shape
        once in the batch's shape table, as a nested tuple.
        """
        instance = decode_instance_with_ids(blob, self._form.schema)
        shape_map = self._shaper.full_map(instance)
        guards = self._guards
        queries_before = guards.hits + guards.misses

        def candidate(update: Update, is_addition: bool, succ_size: int, copies: int) -> tuple:
            root = self._shaper.successor_shape(instance, shape_map, update)
            return (update, root, is_addition, succ_size, copies)

        candidates = enumerate_expansion(instance, shape_map, guards, state_id, candidate)
        return (candidates, guards.hits + guards.misses - queries_before)

    def run_batch(self, batch: list) -> bytes:
        """Expand one task batch into one pickled answer.

        The guard entries evaluated since the last batch — the tail of the
        worker's guard cache — are packed into the answer for the
        coordinator to merge, their subtree ids replaced by nested tuples
        (subtree ids are local to this worker's interner).  With telemetry
        enabled the batch's spans and metric deltas ride in the answer for
        the coordinator to merge.
        """
        obs = self.telemetry
        batch_started = obs.now()
        nested = self._interner.nested
        encoder = FrameEncoder(nested)
        for state_id, blob in batch:
            candidates, queries = self.expand(state_id, blob)
            encoder.add_state(state_id, candidates, queries)
        entries = self._guards.entries_since(self._guards_reported)
        self._guards_reported += len(entries)
        encoder.add_guard_entries(map_subtree_keys(entries, nested))
        if obs.enabled:
            obs.end_span(
                "worker.batch",
                batch_started,
                states=len(batch),
                candidates=encoder.candidates_encoded,
                guard_entries=len(entries),
            )
            metrics = obs.metrics
            metrics.counter("worker_states_expanded").inc(len(batch))
            metrics.counter("worker_candidates_encoded").inc(encoder.candidates_encoded)
            metrics.counter("guard_eval_seconds").inc(self._guards.take_eval_seconds())
            encoder.add_telemetry(obs.export_payload(drain=True))
        return encoder.finish()


def worker_main(
    index: int,
    guarded_form: GuardedForm,
    tasks,
    results,
    telemetry_enabled=False,
) -> None:
    """Entry point of one worker process: loop over task batches until told
    to shut down, reporting each batch (or the failure that killed it).

    Every result echoes the wave id its task carried, so the coordinator can
    discard answers to a wave it abandoned (e.g. a ``KeyboardInterrupt``
    landing mid-collection) instead of mistaking them for the next wave's.

    With ``telemetry_enabled`` the worker builds its own
    :class:`~repro.obs.Telemetry` (real pid, process name
    ``frontier-worker-<index>``) whose spans and metric deltas each answer
    ships back for the coordinator's cross-process merge.
    """
    telemetry = Telemetry(process=f"frontier-worker-{index}") if telemetry_enabled else None
    try:
        worker = FrontierWorker(guarded_form, telemetry=telemetry)
    except BaseException:  # noqa: BLE001 - report startup failures, don't hang the pool
        results.put((index, None, None, traceback.format_exc()))
        return
    while True:
        message = tasks.get()
        if message is _SHUTDOWN:
            return
        wave, batch = message
        try:
            frame = worker.run_batch(batch)
        except BaseException:  # noqa: BLE001 - the coordinator re-raises
            results.put((index, wave, None, traceback.format_exc()))
        else:
            results.put((index, wave, frame, None))


class WorkerPool:
    """N frontier worker processes plus the queues to talk to them.

    The pool is created lazily by the parallel engine's first prefetch and
    lives for the engine's lifetime, so worker-local guard and shape caches
    keep paying off across the many explorations one analysis performs.  Workers
    are daemons: an exiting coordinator can never be held hostage by them.
    """

    def __init__(
        self,
        guarded_form: GuardedForm,
        workers: int,
        telemetry_enabled: bool = False,
    ) -> None:
        if workers < 1:
            raise AnalysisError("a worker pool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self.workers = workers
        self._results = context.Queue()
        self._tasks = [context.Queue() for _ in range(workers)]
        self._processes = [
            context.Process(
                target=worker_main,
                args=(
                    index,
                    guarded_form,
                    self._tasks[index],
                    self._results,
                    telemetry_enabled,
                ),
                daemon=True,
                name=f"repro-frontier-worker-{index}",
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._closed = False
        self._wave = 0

    # ------------------------------------------------------------------ #
    # wave dispatch
    # ------------------------------------------------------------------ #

    def run_wave(self, batches: dict) -> list:
        """Dispatch per-worker *batches* and gather every answer.

        Args:
            batches: ``worker index -> [(state id, encoded representative)]``;
                only non-empty batches are dispatched.

        Returns:
            The pickled answers to this wave, one per dispatched worker (in
            arrival order; the coordinator stages per state id, so answer
            order is irrelevant).

        Raises:
            AnalysisError: when a worker reports an exception or dies.
        """
        self._wave += 1
        wave = self._wave
        expected = set()
        for index, batch in batches.items():
            if batch:
                self._tasks[index].put((wave, batch))
                expected.add(index)
        frames: list = []
        while expected:
            try:
                index, result_wave, frame, error = self._results.get(
                    timeout=_POLL_INTERVAL
                )
            except queue_module.Empty:
                self._check_liveness(expected)
                continue
            if error is not None and result_wave is None:
                raise AnalysisError(f"frontier worker {index} failed to start:\n{error}")
            if result_wave != wave:
                continue  # answer to an abandoned wave; drop it
            if error is not None:
                raise AnalysisError(f"frontier worker {index} failed:\n{error}")
            expected.discard(index)
            frames.append(frame)
        return frames

    def _check_liveness(self, expected: set) -> None:
        for index in expected:
            if not self._processes[index].is_alive():
                raise AnalysisError(
                    f"frontier worker {index} died (exit code "
                    f"{self._processes[index].exitcode}) before answering its batch"
                )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._tasks:
            try:
                task_queue.put(_SHUTDOWN)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        for task_queue in [*self._tasks, self._results]:
            task_queue.close()
            task_queue.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
