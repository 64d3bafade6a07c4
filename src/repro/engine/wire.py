"""Worker answers: how one task batch's expansions reach the coordinator.

A frontier worker answers each task batch with one pickled answer, which
:class:`FrameEncoder` builds and :class:`WireFrame` reads.  The answer is
plain Python values in four parts:

* **telemetry** — the worker's span/metric snapshot
  (:meth:`repro.obs.tracing.Telemetry.export_payload`) as a dict, or
  ``None`` when telemetry is disabled;
* **guard entries** — the ``(key tuple, bool)`` guard evaluations the batch
  performed;
* **shapes** — the batch's distinct successor root shapes, as nested
  tuples, each listed once (the per-batch shape table);
* **states** — per expanded state ``(state id, guard queries,
  candidates)``, where a candidate is ``(parent id, label, shape index,
  successor size, copies)`` for an addition and ``(node id, shape index,
  successor size)`` for a deletion.

Successor representatives are not shipped: the coordinator derives them.
The telemetry, the guard entries, and the ``(shapes, states)`` pair are
pickled back to back through one :class:`pickle.Pickler`.  Its memo is
shared, so a label or subtree that occurs in several places is written once
and referenced after that, and the coordinator can count the bytes of each
part: ``guard_nbytes`` and ``expansion_nbytes`` both exclude the telemetry.

Subtree ids are local to one interner, so the answer names every shape by
nested tuple: the shape table, and the subtree term of each ``A``/``D``
guard key (:func:`~repro.engine.guards.map_subtree_keys`).  The coordinator
(:class:`~repro.engine.parallel.ParallelExplorationEngine`) unpickles an
answer when its wave arrives, maps the guard keys back to its own subtree
ids, and interns the shape table to root subtree ids
(:meth:`WireFrame.shape_rows`) and builds a state's candidates
(:meth:`WireFrame.expansion`) only when the exploration loop pops that
state — so interning order, and with it every dense state id, stays
bit-identical to a serial run.

An answer that cannot be unpickled, carries trailing bytes, has telemetry
that is not a dict, a candidate of unknown layout, a shape index outside
the table, or no entry for the state asked for raises
:class:`~repro.exceptions.WireFormatError`.  This is not a trust boundary:
the ``multiprocessing`` queue the answer travels on unpickles every worker
message anyway.
"""

from __future__ import annotations

import io
import pickle
import time

from repro.core.guarded_form import Addition, Deletion, Update
from repro.exceptions import WireFormatError

__all__ = ["FrameEncoder", "WireFrame", "pr3_encoding_cost"]


class FrameEncoder:
    """Builds one worker answer to one task batch.

    ``add_state`` accepts the raw candidate tuples the expansion produced —
    ``(update, root, is_addition, successor size, copies)`` — and lists each
    distinct root once in the answer's shape table, as the nested tuple
    *nested* gives for it (a worker passes root subtree ids and its
    interner's :meth:`~repro.engine.interning.ShapeInterner.nested`; by
    default roots are nested tuples already); ``add_guard_entries`` attaches
    the guard evaluations the batch performed; ``finish`` pickles the answer.
    """

    def __init__(self, nested=None) -> None:
        self._nested = nested
        self._shape_index: dict = {}  # root -> table index
        self._shapes: list = []
        self._states: list = []
        self._guards: list = []
        self._telemetry = None
        self.candidates_encoded = 0

    def shape_ref(self, root) -> int:
        """The shape-table index of *root*, appending its shape on first
        occurrence."""
        index = self._shape_index.get(root)
        if index is None:
            index = len(self._shapes)
            self._shape_index[root] = index
            self._shapes.append(root if self._nested is None else self._nested(root))
        return index

    def add_state(self, state_id: int, candidates: list, guard_queries: int) -> None:
        """Append one state's expansion.

        Args:
            state_id: the canonical id the coordinator addressed the state by.
            candidates: ``(update, root, is_addition, successor size,
                copies before)`` tuples in enumeration order.
            guard_queries: guard-cache queries this expansion performed.
        """
        shape_ref = self.shape_ref
        packed = []
        for update, root, is_addition, succ_size, copies in candidates:
            if is_addition:
                packed.append(
                    (update.parent_id, update.label, shape_ref(root), succ_size, copies)
                )
            else:
                packed.append((update.node_id, shape_ref(root), succ_size))
        self._states.append((state_id, guard_queries, packed))
        self.candidates_encoded += len(packed)

    def add_guard_entries(self, entries: list) -> None:
        """Append ``(key tuple, bool)`` guard evaluations to the answer."""
        self._guards.extend(entries)

    def add_telemetry(self, payload: dict) -> None:
        """Attach the worker's telemetry payload (spans + metric deltas)."""
        self._telemetry = payload

    def finish(self) -> bytes:
        """The pickled answer."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        pickler.dump(self._telemetry)
        pickler.dump(self._guards)
        pickler.dump((self._shapes, self._states))
        return buffer.getvalue()


class WireFrame:
    """One received worker answer: unpickled on receipt, used lazily.

    ``decode_seconds`` accumulates the wall time of the unpickling, the
    shape interning and the candidate building.
    """

    def __init__(self, data: bytes) -> None:
        started = time.perf_counter()
        self._nbytes = len(data)
        stream = io.BytesIO(data)
        unpickler = pickle.Unpickler(stream)
        try:
            telemetry = unpickler.load()
            telemetry_end = stream.tell()
            guard_entries = unpickler.load()
            guards_end = stream.tell()
            shapes, states = unpickler.load()
        except Exception as exc:  # noqa: BLE001 - any unpickling failure
            raise WireFormatError(f"unreadable worker answer: {exc!r}") from None
        if stream.tell() != len(data):
            raise WireFormatError(
                f"worker answer carries {len(data) - stream.tell()} trailing bytes"
            )
        if telemetry is not None and not isinstance(telemetry, dict):
            raise WireFormatError(
                f"malformed telemetry: {type(telemetry).__name__}, not a dict"
            )
        #: The worker's telemetry payload (spans + metric deltas) as a dict,
        #: or ``None`` when the answer carries none (telemetry disabled).
        self.telemetry = telemetry
        #: ``(key tuple, bool)`` guard evaluations of the batch.
        self.guard_entries = guard_entries
        #: Bytes spent on the guard entries (candidate metrics exclude them,
        #: so the bytes-per-candidate figure compares expansion payloads
        #: like for like with the PR 3 encoding).
        self.guard_nbytes = guards_end - telemetry_end
        #: Bytes carrying the shape table and the per-state candidates.
        self.expansion_nbytes = len(data) - guards_end
        self._shapes = shapes
        self._states: dict = {}
        total = 0
        try:
            #: Distinct root shapes in the answer's shape table.
            self.shape_count = len(shapes)
            for state_id, guard_queries, candidates in states:
                self._states[state_id] = (candidates, guard_queries)
                total += len(candidates)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"malformed answer: {exc}") from None
        #: Total candidates across all states (for dedup-rate metrics).
        self.total_candidates = total
        self._sids = None
        self.decode_seconds = time.perf_counter() - started

    def __len__(self) -> int:
        return self._nbytes

    def state_ids(self) -> list:
        """The state ids this answer carries expansions for, in batch order."""
        return list(self._states)

    def shape_rows(self, interner) -> list:
        """The shape table as root subtree ids of *interner* (a
        :class:`~repro.engine.interning.ShapeInterner`; memoized, interned
        on first call)."""
        if self._sids is None:
            started = time.perf_counter()
            cons_tree = interner.cons_tree
            self._sids = [cons_tree(shape) for shape in self._shapes]
            self.decode_seconds += time.perf_counter() - started
        return self._sids

    def expansion(self, state_id: int) -> tuple[list, int]:
        """One state's expansion: ``(raw candidates, guard queries)``.

        Raw candidates are ``(update, shape index, is_addition, successor
        size, copies)`` tuples — the coordinator resolves shape indices
        against :meth:`shape_rows` and assigns state ids itself.
        """
        started = time.perf_counter()
        try:
            packed, guard_queries = self._states[state_id]
        except KeyError:
            raise WireFormatError(f"answer carries no expansion for state {state_id}") from None
        shape_count = self.shape_count
        candidates = []
        update: Update
        for fields in packed:
            layout = len(fields) if type(fields) is tuple else None
            if layout == 5:
                parent_id, label, index, succ_size, copies = fields
                update = Addition(parent_id, label)
                is_addition = True
            elif layout == 3:
                node_id, index, succ_size = fields
                update = Deletion(node_id)
                is_addition = False
                copies = 0
            else:
                raise WireFormatError(f"unknown candidate layout {fields!r}")
            if type(index) is not int or not 0 <= index < shape_count:
                raise WireFormatError(
                    f"candidate references shape {index!r}, table has {shape_count}"
                )
            candidates.append((update, index, is_addition, succ_size, copies))
        self.decode_seconds += time.perf_counter() - started
        return candidates, guard_queries

    def take_decode_seconds(self) -> float:
        """Drain the accumulated decode-time counter (engine statistics)."""
        elapsed, self.decode_seconds = self.decode_seconds, 0.0
        return elapsed


# --------------------------------------------------------------------------- #
# PR 3 encoding baseline (benchmark / test reference)
# --------------------------------------------------------------------------- #


def pr3_encoding_cost(engine) -> tuple[int, int]:
    """What the PR 3 wire protocol would ship for *engine*'s expansions.

    PR 3 encoded, per candidate: the JSON update, the JSON root shape and the
    full JSON successor representative (node ids included).  Bit-identity
    means a serial engine's memoized expansions are exactly the candidates
    the workers answer with, so measuring the encoding there is exact — and
    conservative, since the actual pickled tuples carried extra overhead.

    This is the single definition of the denominator of the ≥40% reduction
    that ``tests/engine/test_parallel.py`` requires.

    Returns:
        ``(total bytes, candidate count)`` over every memoized expansion of
        *engine* (a serial :class:`~repro.engine.engine.ExplorationEngine`
        that has finished exploring).
    """
    import json

    from repro.io.serialization import encode_instance_with_ids, encode_shape, encode_update

    total = 0
    count = 0
    for candidates, _queries in engine._expansions.values():
        for update, succ_id, _is_addition, _size, _copies in candidates:
            total += len(json.dumps(encode_update(update)).encode("utf-8"))
            total += len(encode_shape(engine.interner.shape_of(succ_id)).encode("utf-8"))
            total += len(
                encode_instance_with_ids(engine.representative(succ_id)).encode("utf-8")
            )
            count += 1
    return total, count
