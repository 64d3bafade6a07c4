"""The versioned binary wire codec for worker→coordinator batches.

PR 4 replaced PR 3's JSON-per-candidate shipping with struct-packed frames;
this revision (version 2) rebuilds the decode side around **batched varint
runs** so a frame is consumed in a handful of bulk operations instead of one
Python-level function call per integer:

* a **frame label table** — every label occurring in the frame (shape nodes
  and addition updates alike) is serialised once, and everything else refers
  to it by index;
* a **flat shape table** — shapes travel as preorder ``(label index, child
  count)`` pair runs, not recursive framings: the whole table decodes as two
  varint runs and materialises directly into
  :class:`~repro.engine.arena.ShapeArena` rows (:meth:`WireFrame.shape_rows`)
  without building a tuple per node;
* **run-packed candidate payloads** — per state, all candidate kind bytes as
  one contiguous slice followed by all numeric fields as one varint run;
* **interned, batch-decoded guard entries** — guard keys use the tagged term
  codec of :mod:`repro.io.serialization` (shared with the store's binary
  guard rows), but every string inside a key is shipped as an index into a
  guard-section string table (:func:`~repro.io.serialization.
  write_term_interned`) and the whole section decodes in one iterative pass
  (:func:`~repro.io.serialization.read_guard_entries`) — guard keys are
  dominated by repeated rule-path and shape labels, and profiles showed the
  per-term recursive decode dominating frame decode on guard-heavy
  workloads.  The table is the section's own (not the frame label table), so
  ``guard_nbytes`` / ``expansion_nbytes`` metrics keep comparing expansion
  payloads like for like against the PR 3 encoding.

Varint runs are decoded in one batched loop
(:func:`~repro.io.serialization.decode_uvarint_run`).

Version 3 adds an **optional telemetry section** directly after the version
byte: a varint byte length followed by a UTF-8 JSON blob — the worker's
span/metric snapshot (:meth:`repro.obs.tracing.Telemetry.export_payload`)
that the coordinator merges into its cross-process recorder.  With
telemetry disabled the section is a single zero byte, so the instrumented
protocol costs untraced runs nothing measurable; ``guard_nbytes`` /
``expansion_nbytes`` metrics both exclude it.

Frame layout (version 3; all integers unsigned LEB128 varints, strings
length-prefixed UTF-8)::

    magic       2 bytes  b"GW"
    version     1 byte   WIRE_VERSION
    telemetry   byte length (0 when absent), then that many bytes of JSON
    guards      string-table count, then each distinct key string; entry
                count, then per entry: interned term-coded key tuple
                (strings as table indices), value byte
    candidates  total candidate count across the frame (metrics, read eagerly)
    labels      count, then each label (shared by shapes and additions)
    shapes      table entry count S, table byte length, then the table
                (skipped on the eager parse; decoded lazily at first pop):
                a run of S node counts, then one run of all preorder
                (label index, child count) pairs, concatenated per shape
    states      count, then the directory: one run of (state id, payload
                byte length) pairs
    payloads    concatenated per-state payloads, in directory order

Per-state payload::

    guard query count, candidate count n, then n kind bytes
    (0 = deletion, 1 = addition), then one varint run of all fields:
        addition: parent node id, label index, shape index, successor size,
                  copies
        deletion: node id, shape index, successor size

The coordinator (:class:`~repro.engine.parallel.ParallelExplorationEngine`)
parses the guard section, metrics counters and state directory **eagerly** at
wave-merge time, and decodes the shape table and each state's payload
**lazily** when the base exploration loop pops that state — so interning
order, and with it every dense state id, stays bit-identical to a serial run,
and work staged for states a truncated exploration never pops is never
decoded either.

Every structural defect — truncation anywhere, trailing bytes, a bad magic,
an unknown version byte, an out-of-range shape/label index or value byte —
raises :class:`~repro.exceptions.WireFormatError`; the Hypothesis suite in
``tests/property/test_wire_properties.py`` pins round-trips and rejection.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.guarded_form import Addition, Deletion, Update
from repro.core.tree import Shape
from repro.exceptions import WireFormatError
from repro.io.serialization import (
    decode_uvarint_run,
    read_guard_entries,
    read_str,
    read_term,
    read_uvarint,
    write_str,
    write_term,
    write_term_interned,
    write_uvarint,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FrameEncoder",
    "WireFrame",
    "read_term",
    "write_term",
    "pr3_encoding_cost",
]

#: Leading bytes of every wire frame.
WIRE_MAGIC = b"GW"

#: Frame layout version; a coordinator refuses frames from any other.
WIRE_VERSION = 3

# Candidate kind bytes.
_KIND_DELETION = 0
_KIND_ADDITION = 1

#: Numeric fields per candidate kind (see the payload layout above).
_ADDITION_FIELDS = 5
_DELETION_FIELDS = 3


# --------------------------------------------------------------------------- #
# frame encoding (worker side)
# --------------------------------------------------------------------------- #


class FrameEncoder:
    """Builds one wire frame for a worker's answer to one task batch.

    ``add_state`` accepts the raw candidate tuples the expansion produced —
    ``(update, root shape, is_addition, successor size, copies)`` — and
    interns each distinct root shape into the frame's shape table (and each
    distinct label into the frame's label table) on the fly;
    ``add_guard_entries`` attaches the guard evaluations the batch performed;
    ``finish`` emits the frame bytes.
    """

    def __init__(self) -> None:
        self._label_index: dict[str, int] = {}
        self._label_table = bytearray()
        self._guard_str_index: dict[str, int] = {}
        self._guard_str_table = bytearray()
        self._guard_term_refs: dict[bytes, int] = {}
        self._shape_index: dict = {}  # Shape -> table index
        self._shape_counts: list[int] = []  # per table entry, its node count
        self._shape_pairs = bytearray()  # concatenated preorder pair runs
        self._states = bytearray()  # directory entries
        self._payloads: list[bytes] = []
        self._guards = bytearray()
        self._guard_count = 0
        self._state_count = 0
        self._telemetry_blob = b""
        self.candidates_encoded = 0

    def label_ref(self, label: str) -> int:
        """The label-table index of *label*, appending it on first use."""
        index = self._label_index.get(label)
        if index is None:
            index = len(self._label_index)
            self._label_index[label] = index
            write_str(self._label_table, label)
        return index

    def shape_ref(self, shape: Shape) -> int:
        """The shape-table index of *shape*, appending it on first occurrence."""
        index = self._shape_index.get(shape)
        if index is None:
            index = len(self._shape_index)
            self._shape_index[shape] = index
            pairs = self._shape_pairs
            count = 0
            stack = [shape]
            pop = stack.pop
            while stack:
                label, children = pop()
                write_uvarint(pairs, self.label_ref(label))
                write_uvarint(pairs, len(children))
                count += 1
                stack.extend(reversed(children))
            self._shape_counts.append(count)
        return index

    def add_state(self, state_id: int, candidates: list, guard_queries: int) -> None:
        """Append one state's expansion payload.

        Args:
            state_id: the canonical id the coordinator addressed the state by.
            candidates: ``(update, root shape, is_addition, successor size,
                copies before)`` tuples in enumeration order.
            guard_queries: guard-cache queries this expansion performed.
        """
        payload = bytearray()
        write_uvarint(payload, guard_queries)
        write_uvarint(payload, len(candidates))
        kinds = bytearray()
        fields = bytearray()
        for update, shape, is_addition, succ_size, copies in candidates:
            index = self.shape_ref(shape)
            if is_addition:
                kinds.append(_KIND_ADDITION)
                write_uvarint(fields, update.parent_id)
                write_uvarint(fields, self.label_ref(update.label))
                write_uvarint(fields, index)
                write_uvarint(fields, succ_size)
                write_uvarint(fields, copies)
            else:
                kinds.append(_KIND_DELETION)
                write_uvarint(fields, update.node_id)
                write_uvarint(fields, index)
                write_uvarint(fields, succ_size)
            self.candidates_encoded += 1
        payload += kinds
        payload += fields
        write_uvarint(self._states, state_id)
        write_uvarint(self._states, len(payload))
        self._payloads.append(bytes(payload))
        self._state_count += 1

    def _guard_str_ref(self, text: str) -> int:
        """The guard string-table index of *text*, appending it on first use."""
        index = self._guard_str_index.get(text)
        if index is None:
            index = len(self._guard_str_index)
            self._guard_str_index[text] = index
            write_str(self._guard_str_table, text)
        return index

    def add_guard_entries(self, entries: list) -> None:
        """Append ``(key tuple, bool)`` guard evaluations to the frame.

        Key strings are interned through the guard section's own string
        table, and repeated composite subterms (rule-path tuples, subtree
        shapes) through its term table — each is shipped (and decoded) once
        per frame no matter how many keys mention it.
        """
        for key, value in entries:
            write_term_interned(self._guards, key, self._guard_str_ref, self._guard_term_refs)
            self._guards.append(1 if value else 0)
            self._guard_count += 1

    def add_telemetry(self, payload: dict) -> None:
        """Attach the worker's telemetry payload (spans + metric deltas).

        Encoded as compact JSON; the section stays a single zero byte when
        this is never called (telemetry disabled).
        """
        import json

        self._telemetry_blob = json.dumps(
            payload, separators=(",", ":"), sort_keys=True, default=str
        ).encode("utf-8")

    def finish(self) -> bytes:
        """The finished frame."""
        out = bytearray(WIRE_MAGIC)
        out.append(WIRE_VERSION)
        write_uvarint(out, len(self._telemetry_blob))
        out.extend(self._telemetry_blob)
        write_uvarint(out, len(self._guard_str_index))
        out.extend(self._guard_str_table)
        write_uvarint(out, self._guard_count)
        out.extend(self._guards)
        write_uvarint(out, self.candidates_encoded)
        write_uvarint(out, len(self._label_index))
        out.extend(self._label_table)
        table = bytearray()
        for count in self._shape_counts:
            write_uvarint(table, count)
        table += self._shape_pairs
        write_uvarint(out, len(self._shape_counts))
        write_uvarint(out, len(table))
        out.extend(table)
        write_uvarint(out, self._state_count)
        out.extend(self._states)
        for payload in self._payloads:
            out.extend(payload)
        return bytes(out)


# --------------------------------------------------------------------------- #
# frame decoding (coordinator side)
# --------------------------------------------------------------------------- #


class WireFrame:
    """One received frame: eager envelope parse, lazy payload decode.

    Construction validates the envelope end to end — magic, version byte,
    guard section, metrics counters, label table, state directory, and that
    the directory's payload spans tile the remaining bytes *exactly* — so
    truncated or corrupt frames are rejected on receipt, before anything is
    staged.  The shape table and the per-state candidate payloads are only
    decoded when :meth:`shape_rows` / :meth:`shape_table` / :meth:`expansion`
    are first called, i.e. when the exploration loop actually pops a staged
    state; the decode itself runs over the frame buffer in batched varint
    runs (:func:`~repro.io.serialization.decode_uvarint_run`), never
    byte-at-a-time Python loops.
    ``decode_seconds`` accumulates the wall time of both the eager and the
    lazy parses.
    """

    def __init__(self, data: bytes) -> None:
        started = time.perf_counter()
        self._data = data
        if len(data) < len(WIRE_MAGIC) + 1 or data[: len(WIRE_MAGIC)] != WIRE_MAGIC:
            raise WireFormatError("not a wire frame (bad magic)")
        version = data[len(WIRE_MAGIC)]
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"wire frame version {version}, this build speaks {WIRE_VERSION}"
            )
        pos = len(WIRE_MAGIC) + 1
        telemetry_start = pos
        telemetry_nbytes, pos = read_uvarint(data, pos)
        #: The worker's telemetry payload (spans + metric deltas) as a dict,
        #: or ``None`` when the frame carries none (telemetry disabled).
        self.telemetry = None
        if telemetry_nbytes:
            if pos + telemetry_nbytes > len(data):
                raise WireFormatError("truncated telemetry section")
            import json

            try:
                blob = json.loads(bytes(data[pos : pos + telemetry_nbytes]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise WireFormatError(f"malformed telemetry section: {exc}") from None
            if not isinstance(blob, dict):
                raise WireFormatError("malformed telemetry section: not an object")
            self.telemetry = blob
            pos += telemetry_nbytes
        #: Bytes spent on the telemetry section, length prefix included
        #: (excluded from both guard and expansion byte metrics).
        self.telemetry_nbytes = pos - telemetry_start
        guard_section_start = pos
        guard_str_count, pos = read_uvarint(data, pos)
        guard_strings = []
        for _ in range(guard_str_count):
            text, pos = read_str(data, pos)
            guard_strings.append(text)
        guard_count, pos = read_uvarint(data, pos)
        self.guard_entries, pos = read_guard_entries(data, pos, guard_count, guard_strings)
        #: Bytes spent on the guard section, its string table included (PR 3
        #: shipped the same entries as tagged JSON; candidate metrics exclude
        #: them so the bytes-per-candidate figure compares expansion payloads
        #: like for like).
        self.guard_nbytes = pos - guard_section_start
        #: Total candidates across all states (for dedup-rate metrics).
        self.total_candidates, pos = read_uvarint(data, pos)
        label_count, pos = read_uvarint(data, pos)
        labels = []
        for _ in range(label_count):
            label, pos = read_str(data, pos)
            labels.append(label)
        self._labels = labels
        #: Distinct root shapes in the frame's shape table.
        self.shape_count, pos = read_uvarint(data, pos)
        table_nbytes, pos = read_uvarint(data, pos)
        self._table_span = (pos, pos + table_nbytes)
        pos += table_nbytes
        if pos > len(data):
            raise WireFormatError("truncated shape table")
        state_count, pos = read_uvarint(data, pos)
        directory, pos = decode_uvarint_run(data, pos, 2 * state_count)
        self._spans: dict = {}
        offset = pos
        for i in range(state_count):
            nbytes = directory[2 * i + 1]
            self._spans[directory[2 * i]] = (offset, offset + nbytes)
            offset += nbytes
        if offset != len(data):
            raise WireFormatError(
                f"frame length mismatch: directory claims {offset} bytes, "
                f"frame has {len(data)}"
            )
        #: Bytes carrying the expansion payloads: label/shape tables, state
        #: directory and candidate records (everything but the guard and
        #: telemetry sections and the 3-byte envelope).
        self.expansion_nbytes = (
            len(data) - self.guard_nbytes - self.telemetry_nbytes - len(WIRE_MAGIC) - 1
        )
        self._preorder: Optional[tuple[list, list]] = None
        self._shapes: Optional[list] = None
        self._arena_rows: Optional[list] = None
        self.decode_seconds = time.perf_counter() - started

    def __len__(self) -> int:
        return len(self._data)

    def state_ids(self) -> list:
        """The state ids this frame carries payloads for, in batch order."""
        return list(self._spans)

    def _shape_preorders(self) -> tuple[list, list]:
        """Decode the shape section once: ``(node counts, flat pair values)``.

        The section is two varint runs; ``flat`` holds the concatenated
        preorder ``label index, child count`` values of every table entry
        (shape *i*'s slice starts at ``2 * sum(counts[:i])``).
        """
        if self._preorder is None:
            started = time.perf_counter()
            pos, end = self._table_span
            data = self._data
            counts, pos = decode_uvarint_run(data, pos, self.shape_count)
            total_nodes = 0
            for count in counts:
                if count < 1:
                    raise WireFormatError("shape table entry claims zero nodes")
                total_nodes += count
            if 2 * total_nodes > end - self._table_span[0]:
                # each preorder pair needs at least two bytes; reject before
                # allocating for a count a truncated/corrupt frame made up
                raise WireFormatError("shape table node counts exceed section size")
            flat, pos = decode_uvarint_run(data, pos, 2 * total_nodes)
            if pos != end:
                raise WireFormatError(
                    f"shape table length mismatch: decoded to byte {pos}, "
                    f"framing claims {end}"
                )
            label_count = len(self._labels)
            for i in range(0, 2 * total_nodes, 2):
                if flat[i] >= label_count:
                    raise WireFormatError(
                        f"shape node references label {flat[i]}, "
                        f"table has {label_count}"
                    )
            self._preorder = (counts, flat)
            self.decode_seconds += time.perf_counter() - started
        return self._preorder

    def shape_rows(self, arena) -> list:
        """The frame's shape table as :class:`~repro.engine.arena.ShapeArena`
        rows (memoized; decoded on first call).

        This is the coordinator's hot path: frame label indices are mapped to
        arena label ids once, then each table entry is interned straight from
        its preorder pair run — an already-known shape costs one bytes-key
        dict probe, no tuples.
        """
        if self._arena_rows is None:
            counts, flat = self._shape_preorders()
            started = time.perf_counter()
            label_map = [arena.label_id(label) for label in self._labels]
            intern = arena.intern_preorder_flat
            rows = []
            base = 0
            for count in counts:
                rows.append(intern(flat, base, count, label_map))
                base += 2 * count
            self._arena_rows = rows
            self.decode_seconds += time.perf_counter() - started
        return self._arena_rows

    def shape_table(self, cons: Optional[Callable] = None) -> list:
        """The decoded shape table as nested tuples (memoized).

        Args:
            cons: optional hash-consing function applied *bottom-up* to every
                decoded subtree — children are consed before (and alongside)
                their roots, so table entries share canonical subtree objects
                with a consumer's interner.
        """
        if self._shapes is None:
            counts, flat = self._shape_preorders()
            started = time.perf_counter()
            labels = self._labels
            shapes = []
            cursor = 0

            def build() -> Shape:
                nonlocal cursor
                label = labels[flat[cursor]]
                nchildren = flat[cursor + 1]
                cursor += 2
                children = tuple(build() for _ in range(nchildren))
                shape: Shape = (label, children)
                return cons(shape) if cons is not None else shape

            for count in counts:
                start = cursor
                try:
                    shapes.append(build())
                except IndexError:
                    raise WireFormatError(
                        "malformed shape preorder: missing children"
                    ) from None
                if cursor - start != 2 * count:
                    raise WireFormatError(
                        "malformed shape preorder: child counts do not tile "
                        "the entry's node count"
                    )
            self._shapes = shapes
            self.decode_seconds += time.perf_counter() - started
        return self._shapes

    def expansion(self, state_id: int) -> tuple[list, int]:
        """Decode one state's payload: ``(raw candidates, guard queries)``.

        Raw candidates are ``(update, shape index, is_addition, successor
        size, copies)`` tuples — the coordinator resolves shape indices
        against :meth:`shape_rows` (or :meth:`shape_table`) and assigns state
        ids itself.
        """
        started = time.perf_counter()
        try:
            pos, end = self._spans[state_id]
        except KeyError:
            raise WireFormatError(f"frame carries no payload for state {state_id}") from None
        data = self._data
        guard_queries, pos = read_uvarint(data, pos)
        count, pos = read_uvarint(data, pos)
        if pos + count > end:
            raise WireFormatError("truncated candidate payload")
        kinds = memoryview(data)[pos : pos + count]
        pos += count
        total_fields = 0
        for kind in kinds:
            if kind == _KIND_ADDITION:
                total_fields += _ADDITION_FIELDS
            elif kind == _KIND_DELETION:
                total_fields += _DELETION_FIELDS
            else:
                raise WireFormatError(f"unknown candidate kind byte {kind}")
        fields, pos = decode_uvarint_run(data, pos, total_fields)
        if pos != end:
            raise WireFormatError(
                f"state payload length mismatch: decoded to byte {pos}, "
                f"directory claims {end}"
            )
        shape_count = self.shape_count
        label_count = len(self._labels)
        labels = self._labels
        candidates = []
        cursor = 0
        update: Update
        for kind in kinds:
            if kind == _KIND_ADDITION:
                parent_id = fields[cursor]
                label_index = fields[cursor + 1]
                index = fields[cursor + 2]
                succ_size = fields[cursor + 3]
                copies = fields[cursor + 4]
                cursor += _ADDITION_FIELDS
                if label_index >= label_count:
                    raise WireFormatError(
                        f"candidate references label {label_index}, "
                        f"table has {label_count}"
                    )
                update = Addition(parent_id, labels[label_index])
                is_addition = True
            else:
                node_id = fields[cursor]
                index = fields[cursor + 1]
                succ_size = fields[cursor + 2]
                cursor += _DELETION_FIELDS
                copies = 0
                update = Deletion(node_id)
                is_addition = False
            if index >= shape_count:
                raise WireFormatError(
                    f"candidate references shape {index}, table has {shape_count}"
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

    This is the single definition of the ≥40% reduction gate's denominator,
    shared by ``benchmarks/run_all.py`` and the wire differential tests.

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
