"""Dict/JSON serialisation of the core objects.

The serialised representations are deliberately plain (nested dicts, formula
strings in the concrete syntax of :mod:`repro.core.formulas.parser`) so that
form definitions can be stored, versioned and exchanged — the fb-wis setting
assumes form definitions travel between peers.

Besides the user-facing form format, this module provides the compact codecs
the persistent :mod:`repro.engine.store` backends use for their rows:

* :func:`encode_shape` / :func:`decode_shape` — isomorphism-invariant tree
  shapes as nested JSON arrays (checkpoint keys, and the shape rows of
  stores written by earlier builds);
* :func:`encode_instance_with_ids` / :func:`decode_instance_with_ids` —
  canonical representative instances *including their node identifiers* (the
  engine records transitions against representative node ids, so a resumed
  exploration must rebuild representatives id-for-id);
* the **binary shape rows** (:func:`encode_shape_binary` /
  :func:`decode_shape_binary`) — byte for byte what the interner encodes
  per subtree id — over the :func:`write_uvarint` / :func:`read_uvarint` and
  :func:`write_str` / :func:`read_str` primitives; :func:`decode_shape_row`
  also reads JSON shape rows, so stores written by earlier builds still
  open; plus :func:`stable_shape_hash`, the process-stable CRC digest shared
  by the parallel engine's worker sharding and the store's ``shape_hash``
  reverse-lookup column;
* :func:`encode_update` / :func:`decode_update` — the leaf additions and
  deletions stored in exploration checkpoints;
* :func:`encode_origin` / :func:`decode_origin` — a state's origin (the
  state that first interned it and the update from there), which the
  engine stores in place of a representative it has not derived;
  :func:`decode_representative_row` reads either kind of row;
* :func:`form_fingerprint` — a digest of a guarded form's definition, used by
  the stores to refuse resuming against the wrong form and by the result
  cache's keys; computed once per form object.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import Optional

from repro.core.access import RuleTable
from repro.core.guarded_form import Addition, Deletion, GuardedForm, Update
from repro.core.instance import Instance
from repro.core.labels import ROOT_LABEL
from repro.core.schema import Schema
from repro.core.tree import Node, Shape
from repro.exceptions import SerializationError, WireFormatError


# --------------------------------------------------------------------------- #
# schemas
# --------------------------------------------------------------------------- #


def schema_to_dict(schema: Schema) -> dict:
    """Nested-dict representation of a schema (inverse of ``Schema.from_dict``)."""
    return schema.to_dict()


def schema_from_dict(data: dict) -> Schema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    if not isinstance(data, dict):
        raise SerializationError("a schema must be encoded as a nested dict")
    return Schema.from_dict(data)


# --------------------------------------------------------------------------- #
# instances
# --------------------------------------------------------------------------- #


def _node_to_dict(node: Node) -> dict:
    return {"label": node.label, "children": [_node_to_dict(child) for child in node.children]}


def instance_to_dict(instance: Instance) -> dict:
    """Nested-dict representation of an instance tree."""
    return _node_to_dict(instance.root)


def _dict_to_shape(data: dict) -> Shape:
    try:
        label = data["label"]
        children = data.get("children", [])
    except (TypeError, KeyError) as exc:
        raise SerializationError("an instance node needs a 'label' key") from exc
    return (label, tuple(sorted(_dict_to_shape(child) for child in children)))


def instance_from_dict(data: dict, schema: Schema) -> Instance:
    """Rebuild an instance (validated against *schema*)."""
    shape = _dict_to_shape(data)
    if shape[0] != ROOT_LABEL:
        raise SerializationError(f"instance root must be labelled {ROOT_LABEL!r}")
    return Instance.from_shape(schema, shape)


# --------------------------------------------------------------------------- #
# guarded forms
# --------------------------------------------------------------------------- #


def guarded_form_to_dict(guarded_form: GuardedForm) -> dict:
    """Serialise a guarded form (schema, rules, initial instance, completion)."""
    return {
        "name": guarded_form.name,
        "schema": schema_to_dict(guarded_form.schema),
        "rules": {
            path: list(pair) for path, pair in guarded_form.rules.to_dict().items()
        },
        "initial_instance": instance_to_dict(guarded_form.initial_instance()),
        "completion": guarded_form.completion.to_text(unicode_ops=False),
    }


def guarded_form_from_dict(data: dict) -> GuardedForm:
    """Rebuild a guarded form from :func:`guarded_form_to_dict` output."""
    try:
        schema = schema_from_dict(data["schema"])
        rules_data = data["rules"]
        completion = data["completion"]
    except KeyError as exc:
        raise SerializationError(f"guarded form serialisation misses key {exc}") from exc
    rules = RuleTable.from_dict(schema, {path: tuple(pair) for path, pair in rules_data.items()})
    initial: Optional[Instance] = None
    if data.get("initial_instance") is not None:
        initial = instance_from_dict(data["initial_instance"], schema)
    return GuardedForm(
        schema,
        rules,
        completion=completion,
        initial_instance=initial,
        name=data.get("name", "guarded form"),
    )


def save_guarded_form(guarded_form: GuardedForm, path: "str | Path") -> None:
    """Write a guarded form to a JSON file."""
    Path(path).write_text(
        json.dumps(guarded_form_to_dict(guarded_form), indent=2, sort_keys=True),
        encoding="utf-8",
    )


def load_guarded_form(path: "str | Path") -> GuardedForm:
    """Load a guarded form from a JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
    return guarded_form_from_dict(data)


# --------------------------------------------------------------------------- #
# engine-store codecs (shapes, representatives, updates)
# --------------------------------------------------------------------------- #

_JSON_COMPACT = {"separators": (",", ":")}


def _shape_to_json(shape: Shape) -> list:
    label, children = shape
    return [label, [_shape_to_json(child) for child in children]]


def _shape_from_json(data) -> Shape:
    try:
        label, children = data
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed shape encoding: {data!r}") from exc
    return (label, tuple(_shape_from_json(child) for child in children))


def encode_shape(shape: Shape) -> str:
    """Compact JSON text for a :data:`~repro.core.tree.Shape` tuple."""
    return json.dumps(_shape_to_json(shape), **_JSON_COMPACT)


def decode_shape(text: str) -> Shape:
    """Inverse of :func:`encode_shape`.

    Child order is preserved verbatim, so round-tripping an already
    order-normalised shape returns an equal shape.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"shape row is not valid JSON: {exc}") from exc
    return _shape_from_json(data)


def encode_instance_with_ids(instance: Instance) -> str:
    """Serialise an instance tree *including node ids* and the id counter.

    The engine's transitions and witness parent chains record updates against
    the node ids of canonical representative instances; a store-backed resume
    must therefore restore representatives with identical ids (and an
    identical id counter, so successor instances derived from them also get
    the same ids as in the original process).
    """

    def node_spec(node: Node) -> list:
        return [node.node_id, node.label, [node_spec(child) for child in node.children]]

    return json.dumps(
        {"next": instance.next_node_id(), "root": node_spec(instance.root)},
        **_JSON_COMPACT,
    )


def decode_instance_with_ids(text: str, schema: Schema) -> Instance:
    """Inverse of :func:`encode_instance_with_ids` (child order preserved)."""
    try:
        data = json.loads(text)
        next_id = data["next"]
        root_spec = data["root"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise SerializationError(f"malformed representative row: {exc}") from exc
    return Instance.from_node_specs(schema, root_spec, next_id)


# --------------------------------------------------------------------------- #
# binary shape framing
# --------------------------------------------------------------------------- #

#: Leading byte of a binary shape row; bumped on layout changes.  JSON shape
#: rows always start with ``[`` (0x5B), so the two formats are also
#: distinguishable by content, not just by sqlite column type.
SHAPE_BINARY_VERSION = 1


def write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* as an unsigned LEB128 varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint at *pos*; return ``(value, new pos)``.

    Raises:
        WireFormatError: when the buffer ends mid-varint (truncation).
    """
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireFormatError("truncated varint: buffer ended mid-value")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def write_str(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    encoded = text.encode("utf-8")
    write_uvarint(out, len(encoded))
    out.extend(encoded)


def read_str(data: bytes, pos: int) -> tuple[str, int]:
    """Read a length-prefixed UTF-8 string at *pos*."""
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise WireFormatError("truncated string: buffer ended mid-text")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"corrupt string payload: {exc}") from exc


def write_shape(out: bytearray, shape: Shape) -> None:
    """Append the recursive binary framing of a shape: label, child count,
    children (already order-normalised — the framing preserves child order
    verbatim, exactly like :func:`encode_shape`)."""
    label, children = shape
    write_str(out, label)
    write_uvarint(out, len(children))
    for child in children:
        write_shape(out, child)


def read_shape(data: bytes, pos: int) -> tuple[Shape, int]:
    """Read one binary-framed shape at *pos*; return ``(shape, new pos)``."""
    label, pos = read_str(data, pos)
    count, pos = read_uvarint(data, pos)
    children = []
    for _ in range(count):
        child, pos = read_shape(data, pos)
        children.append(child)
    return (label, tuple(children)), pos


def encode_shape_binary(shape: Shape) -> bytes:
    """Binary store-row encoding of a shape (version byte + framing)."""
    out = bytearray([SHAPE_BINARY_VERSION])
    write_shape(out, shape)
    return bytes(out)


def decode_shape_binary(data: bytes) -> Shape:
    """Inverse of :func:`encode_shape_binary` (full consumption enforced)."""
    if not data:
        raise WireFormatError("empty binary shape row")
    if data[0] != SHAPE_BINARY_VERSION:
        raise WireFormatError(
            f"binary shape row has version byte {data[0]}, "
            f"this build reads version {SHAPE_BINARY_VERSION}"
        )
    shape, pos = read_shape(data, 1)
    if pos != len(data):
        raise WireFormatError(
            f"binary shape row carries {len(data) - pos} trailing bytes"
        )
    return shape


def decode_shape_row(row: "str | bytes") -> Shape:
    """Decode a store shape row in either format (JSON text or binary).

    The sqlite store writes binary rows; JSON text rows come from stores
    written by earlier builds, which therefore still open.
    """
    if isinstance(row, (bytes, bytearray, memoryview)):
        return decode_shape_binary(bytes(row))
    return decode_shape(row)


def stable_shape_hash(shape: Shape) -> int:
    """A shape digest stable across processes and interpreter runs.

    ``hash()`` on nested label tuples varies with ``PYTHONHASHSEED``, so both
    the parallel engine's worker sharding and the store's ``shape_hash``
    reverse-lookup column use a CRC of the canonical binary shape encoding
    instead; the encoding is order-normalised, hence equal shapes always get
    the same digest (and land on the same shard).
    """
    return zlib.crc32(encode_shape_binary(shape))


def stable_shape_hash_of_encoding(encoded: bytes) -> int:
    """:func:`stable_shape_hash` given the canonical binary encoding directly
    (what the interner builds per subtree id) — one CRC, no re-encode."""
    return zlib.crc32(encoded)


def encode_update(update: Update) -> list:
    """JSON-ready encoding of a checkpointed update."""
    if isinstance(update, Addition):
        return ["add", update.parent_id, update.label]
    if isinstance(update, Deletion):
        return ["del", update.node_id]
    raise SerializationError(f"unsupported update {update!r}")


def _is_id(value) -> bool:
    return type(value) is int and value >= 0


def decode_update(data: list) -> Update:
    """Inverse of :func:`encode_update`.

    Raises:
        SerializationError: for anything :func:`encode_update` cannot
            produce (wrong arity, a non-integer node id, a non-string label,
            an unknown kind).
    """
    if isinstance(data, list) and data:
        kind = data[0]
        if kind == "add":
            if len(data) == 3 and _is_id(data[1]) and isinstance(data[2], str):
                return Addition(data[1], data[2])
        elif kind == "del":
            if len(data) == 2 and _is_id(data[1]):
                return Deletion(data[1])
        else:
            raise SerializationError(f"unknown update kind {data!r}")
    raise SerializationError(f"malformed update encoding {data!r}")


#: First character of an origin row; a full representative row is a JSON
#: object, so it starts with ``{``.
ORIGIN_ROW_PREFIX = "["


def encode_origin(parent_id: int, update: Update) -> str:
    """Serialise a state's origin: the state that first interned it and the
    update leading from that state's representative to this one's.

    A JSON array, so it never collides with an
    :func:`encode_instance_with_ids` row (a JSON object) in the same column.
    """
    return json.dumps([parent_id, *encode_update(update)], **_JSON_COMPACT)


def decode_origin(text: str) -> tuple[int, Update]:
    """Inverse of :func:`encode_origin`: ``(parent state id, update)``."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed origin row: {exc}") from exc
    if not isinstance(data, list) or not data or not _is_id(data[0]):
        raise SerializationError(f"malformed origin row {text!r}")
    return data[0], decode_update(data[1:])


def decode_representative_row(text: str, schema: Schema) -> Instance | tuple[int, Update]:
    """A store's representative row: the full instance
    (:func:`decode_instance_with_ids`) or the state's origin
    (:func:`decode_origin`), told apart by the row's first character."""
    if isinstance(text, str) and text.startswith(ORIGIN_ROW_PREFIX):
        return decode_origin(text)
    return decode_instance_with_ids(text, schema)


def form_fingerprint(guarded_form: GuardedForm) -> str:
    """A stable digest of a guarded form's full definition.

    Persistent stores record it on first use and refuse to attach to a
    different form: interned shapes, representatives and checkpoints are only
    meaningful for the exact form that produced them.  The result-cache key
    starts with it too.  A form is never edited once built, so the digest is
    computed once per form object and kept on the form.
    """
    fingerprint = guarded_form._fingerprint
    if fingerprint is None:
        canonical = json.dumps(guarded_form_to_dict(guarded_form), sort_keys=True, **_JSON_COMPACT)
        fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        guarded_form._fingerprint = fingerprint
    return fingerprint
