"""Persistent state stores for the exploration engine.

The engine's working set — interned shapes, canonical representative
instances and in-flight exploration checkpoints — lives in in-memory dicts
by default, which caps ``max_states`` at whatever fits in RAM and ties an
exploration to one process.  This module puts a storage protocol underneath:

* :class:`StateStore` — the backend interface.  The engine *writes through*
  to it (every newly interned shape, and one representative row per state).
  On its first exploration the engine binds to the store's persisted id
  range and then reads rows back one at a time as the run touches them, so
  a fresh process attached to a populated store resumes with the exact
  state ids and representatives (node-id-for-node-id) of the process that
  wrote it.  A representative row is either the full instance (an
  exploration's start state, or a derived representative written back on
  eviction) or only the state's *origin* — the state that first interned it
  and the update from there — from which the engine re-derives the
  identical instance on first use.  Guard values are not persisted: they
  are compiled-rule evaluations, cheaper to recompute in the resuming
  process than to encode, write and restore.

* :class:`InMemoryStore` — the extracted default behaviour.  Nothing is
  serialised; shapes and representatives stay solely in the engine's own
  structures (``persistent`` is ``False``, so the engine skips the
  write-through entirely and the hot path is unchanged).  Exploration
  checkpoints *are* kept, in a plain dict, so step-budgeted explorations can
  be interrupted and resumed within one process without a database.

* :class:`SqliteStore` — an sqlite3-backed store.  Writes are batched
  (``batch_size`` buffered rows per ``executemany`` flush), and every read
  is answered by the write buffer or by sqlite.  The engine keeps what it
  uses resident in its own structures, so the store is read only for rows
  the engine never held or has evicted.  A fingerprint of the guarded form
  is recorded on first attach and verified on every later one — a store
  can never silently answer for the wrong form.  Shape rows are written as
  the interner's canonical binary encoding of each root subtree id; the
  read path also decodes the JSON rows that earlier builds wrote, so their
  stores still attach and resume.  The ``guards`` table such stores may
  hold is never read, and their representative rows — a full instance for
  every state — read like any other full row.

Checkpoints are keyed by a digest of the exploration parameters (start
shape, limits, strategy, early-exit flag), so several explorations — e.g.
the per-suspicious-state completability sweeps of a semi-soundness analysis —
can each keep their own resumable frontier in one store.  Depth-1
explorations checkpoint under keys of their own (start mask, strategy,
early-exit flag; :func:`depth1_run_key`) when a step limit slices them.

Store counters (row reads/writes, reverse lookups, flushes) surface in
``AnalysisResult.stats["engine"]`` under ``store_*`` keys via
:meth:`ExplorationEngine.stats_snapshot`.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Iterator, Optional

from repro.core.guarded_form import GuardedForm
from repro.core.tree import Shape
from repro.engine.interning import StateId
from repro.engine.sqlite_base import SqliteBacked
from repro.exceptions import StoreError
from repro.io.serialization import (
    ORIGIN_ROW_PREFIX,
    decode_shape_binary,
    decode_shape_row,
    encode_shape,
    encode_shape_binary,
    form_fingerprint,
    stable_shape_hash,
    stable_shape_hash_of_encoding,
)
from repro.obs import NO_TELEMETRY

#: Version stamp written to store metadata; bumped on layout changes.  The
#: ``shape_hash`` reverse-lookup column did not bump it: old stores are
#: migrated in place on open, and old builds can still read migrated stores
#: (they simply ignore the extra column).
STORE_SCHEMA_VERSION = "1"


class StateStore:
    """Backend interface for persisting engine state.

    ``persistent`` tells the engine whether write-through and store reads
    are worthwhile; the in-memory default returns ``False`` and the engine
    then skips every serialisation on the hot path.
    """

    #: Whether rows written here survive the engine (and the process).
    persistent = False

    #: When set, overrides the engine's ``checkpoint_every`` cadence for
    #: explorations backed by this store (the CLI plumbs its
    #: ``--checkpoint-every`` through here).
    checkpoint_every: Optional[int] = None

    #: Telemetry recorder.  The engine that owns the store assigns its own
    #: recorder here on construction; the class default is the free no-op,
    #: so standalone stores pay one attribute check per instrumented call.
    telemetry = NO_TELEMETRY

    # -- lifecycle ----------------------------------------------------- #

    def attach(self, guarded_form: GuardedForm) -> None:
        """Bind the store to *guarded_form*, verifying any recorded identity.

        Raises:
            StoreError: when the store already belongs to a different form.
        """

    def flush(self) -> None:
        """Persist all buffered writes."""

    def close(self) -> None:
        """Flush and release the backing resources."""

    # -- interned shapes ----------------------------------------------- #

    def put_shape(
        self,
        state_id: StateId,
        shape: Optional[Shape],
        *,
        encoded: Optional[bytes] = None,
        digest: Optional[int] = None,
    ) -> None:
        """Record a newly interned full-state shape.

        The interner passes the canonical *encoded* bytes and CRC *digest* it
        built for the root subtree id (and ``shape=None``); plain callers
        pass the nested-tuple shape alone and the store derives both.
        """

    def load_shapes(self) -> Iterator[tuple[StateId, Shape]]:
        """All persisted ``(state id, shape)`` rows, ordered by id."""
        return iter(())

    def get_state_id(
        self,
        shape: Optional[Shape],
        *,
        digest: Optional[int] = None,
        encoded: Optional[bytes] = None,
    ) -> Optional[StateId]:
        """The persisted id of *shape*, or ``None`` (reverse lookup).

        This is what lets the interner stay partially hydrated: an unknown
        shape is checked against the store before a fresh id is assigned.
        As with :meth:`put_shape`, the interner passes the *digest*/*encoded*
        pair instead of the tuple.
        """
        del shape, digest, encoded
        return None

    def max_state_id(self) -> Optional[StateId]:
        """The highest persisted state id, or ``None`` on an empty store."""
        return None

    def shape_row_count(self) -> int:
        """How many shape rows the store holds (buffered writes included)."""
        return 0

    # -- canonical representatives ------------------------------------- #

    def put_representative(self, state_id: StateId, blob: str) -> None:
        """Record a state's representative row: its serialised canonical
        representative, or its serialised origin (see
        :func:`~repro.io.serialization.decode_representative_row`)."""

    def get_representative(self, state_id: StateId) -> Optional[str]:
        """The representative row of a state, or ``None``."""
        return None

    # -- exploration checkpoints --------------------------------------- #

    def save_checkpoint(self, run_key: str, payload: dict) -> None:
        """Persist the frontier/graph snapshot of one exploration."""

    def load_checkpoint(self, run_key: str) -> Optional[dict]:
        """The last snapshot saved under *run_key*, or ``None``."""
        return None

    def clear_checkpoint(self, run_key: str) -> None:
        """Drop the snapshot saved under *run_key*."""

    # -- reporting ------------------------------------------------------ #

    def stats(self) -> dict:
        """Counter snapshot, merged into the engine's ``store_*`` stats."""
        return {"backend": type(self).__name__}

    def describe(self) -> dict:
        """Row counts and identity metadata (the ``store info`` CLI view)."""
        return {"backend": type(self).__name__, "persistent": self.persistent}


class InMemoryStore(StateStore):
    """The default, process-local backend (current behaviour, extracted).

    Shapes and representatives live only in the engine's own dicts; this
    store merely keeps exploration checkpoints so step-budgeted explorations
    remain resumable inside one process.
    """

    persistent = False

    def __init__(self) -> None:
        self._checkpoints: dict[str, dict] = {}
        self.checkpoint_saves = 0

    def attach(self, guarded_form: GuardedForm) -> None:
        del guarded_form  # nothing to verify: the store dies with the engine

    def save_checkpoint(self, run_key: str, payload: dict) -> None:
        self._checkpoints[run_key] = payload
        self.checkpoint_saves += 1

    def load_checkpoint(self, run_key: str) -> Optional[dict]:
        return self._checkpoints.get(run_key)

    def clear_checkpoint(self, run_key: str) -> None:
        self._checkpoints.pop(run_key, None)

    def stats(self) -> dict:
        return {
            "backend": "memory",
            "checkpoint_saves": self.checkpoint_saves,
        }

    def describe(self) -> dict:
        return {
            "backend": "memory",
            "persistent": False,
            "checkpoints": len(self._checkpoints),
        }


class SqliteStore(SqliteBacked, StateStore):
    """An sqlite3-backed :class:`StateStore` with batched writes.

    Args:
        path: database file (created on demand; ``":memory:"`` works too).
        batch_size: buffered rows across all tables before an automatic
            flush; checkpoint saves always flush first so the database is
            consistent at every resume point.

    Shape rows are byte for byte the interner's canonical encoding
    (:func:`~repro.io.serialization.encode_shape_binary`), so the
    reverse lookup is bytes equality — no decode at all on the hot attach
    path.  Reads decode either format per row
    (:func:`~repro.io.serialization.decode_shape_row`), so stores holding the
    JSON rows of earlier builds — even mixed with new rows — still open.
    Their ``guards`` table, if any, is left as it is and never read.
    """

    persistent = True

    _DB_ROLE = "sqlite state store"

    _TABLES = (
        "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
        "CREATE TABLE IF NOT EXISTS shapes "
        "(id INTEGER PRIMARY KEY, shape TEXT NOT NULL, shape_hash INTEGER)",
        "CREATE TABLE IF NOT EXISTS representatives (id INTEGER PRIMARY KEY, blob TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS checkpoints (run_key TEXT PRIMARY KEY, payload TEXT NOT NULL)",
    )

    _INDEXES = (
        # the reverse-lookup path: shape -> persisted id without hydrating
        # the whole table (collisions are resolved by decoding candidates)
        "CREATE INDEX IF NOT EXISTS shapes_shape_hash ON shapes (shape_hash)",
    )

    def __init__(
        self,
        path: "str | Path",
        batch_size: int = 512,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        self.batch_size = max(1, batch_size)
        self.checkpoint_every = checkpoint_every
        self.shape_hash_rows_migrated = 0
        self.migration_seconds = 0.0
        self._open_sqlite(path)
        # write buffers are keyed dicts, so reads can be served from them
        # without forcing a premature flush (INSERT OR REPLACE semantics);
        # shapes keep (digest, canonical encoding) so the reverse lookup
        # covers unflushed rows by bytes equality alone
        self._pending_shapes: dict[int, tuple[int, bytes]] = {}
        self._pending_by_hash: dict[int, list[int]] = {}
        self._pending_reps: dict[int, str] = {}
        self.rows_written = 0
        self.rows_read = 0
        self.flushes = 0
        self.checkpoint_saves = 0
        self.id_lookups = 0
        self.id_lookup_hits = 0
        self.flush_seconds = 0.0
        self.checkpoint_seconds = 0.0

    def _after_tables(self) -> None:
        self._migrate_shape_hash_column()

    def _migrate_shape_hash_column(self) -> None:
        """One-shot migration: add and backfill ``shape_hash`` on old stores.

        Stores written before the reverse-lookup path existed have a
        two-column ``shapes`` table; the column is added in place and every
        pre-existing row's digest backfilled (decode, hash, update) on first
        open.  New rows always carry their digest, so the backfill runs at
        most once per store lifetime.
        """
        started = time.perf_counter()
        columns = {row[1] for row in self._conn.execute("PRAGMA table_info(shapes)")}
        if "shape_hash" not in columns:
            self._conn.execute("ALTER TABLE shapes ADD COLUMN shape_hash INTEGER")
        # backfill in bounded batches, paginated by primary key: the whole
        # point of the column is small-RAM attach to huge tables, so the
        # migration must neither materialise the table nor re-scan the
        # already-backfilled prefix per batch (the shape_hash index does not
        # exist yet at this point)
        last_id = -1
        while True:
            rows = self._conn.execute(
                "SELECT id, shape FROM shapes WHERE id > ? AND shape_hash IS NULL "
                "ORDER BY id LIMIT 4096",
                (last_id,),
            ).fetchall()
            if not rows:
                break
            self._conn.executemany(
                "UPDATE shapes SET shape_hash = ? WHERE id = ?",
                [
                    (
                        stable_shape_hash_of_encoding(row)
                        if isinstance(row, bytes)
                        else stable_shape_hash(decode_shape_row(row)),
                        sid,
                    )
                    for sid, row in rows
                ],
            )
            self._conn.commit()
            self.shape_hash_rows_migrated += len(rows)
            last_id = rows[-1][0]
        elapsed = time.perf_counter() - started
        self.migration_seconds += elapsed
        obs = self.telemetry
        if obs.enabled and self.shape_hash_rows_migrated:
            obs.end_span(
                "store.migrate_shape_hash",
                obs.now() - elapsed,
                rows=self.shape_hash_rows_migrated,
            )

    # -- lifecycle ----------------------------------------------------- #

    def attach(self, guarded_form: GuardedForm) -> None:
        version = self._get_meta("schema_version")
        if version is not None and version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"state store {self.path} uses layout version {version}, "
                f"this build expects {STORE_SCHEMA_VERSION}"
            )
        fingerprint = form_fingerprint(guarded_form)
        recorded = self._get_meta("form_fingerprint")
        if recorded is not None and recorded != fingerprint:
            raise StoreError(
                f"state store {self.path} belongs to guarded form "
                f"{self._get_meta('form_name')!r}, not {guarded_form.name!r}; "
                "its shapes, representatives and checkpoints cannot be reused"
            )
        if recorded is None:
            self._set_meta("schema_version", STORE_SCHEMA_VERSION)
            self._set_meta("form_fingerprint", fingerprint)
            self._set_meta("form_name", guarded_form.name)
            self._conn.commit()

    def flush(self) -> None:
        if not (self._pending_shapes or self._pending_reps):
            return
        started = time.perf_counter()
        pending = self._pending_rows()
        if self._pending_shapes:
            self._conn.executemany(
                "INSERT OR REPLACE INTO shapes (id, shape, shape_hash) VALUES (?, ?, ?)",
                [
                    (sid, encoded, digest)
                    for sid, (digest, encoded) in self._pending_shapes.items()
                ],
            )
            self._pending_shapes.clear()
            self._pending_by_hash.clear()
        if self._pending_reps:
            self._conn.executemany(
                "INSERT OR REPLACE INTO representatives (id, blob) VALUES (?, ?)",
                list(self._pending_reps.items()),
            )
            self._pending_reps.clear()
        self._conn.commit()
        self.flushes += 1
        elapsed = time.perf_counter() - started
        self.flush_seconds += elapsed
        obs = self.telemetry
        if obs.enabled:
            obs.end_span("store.flush", obs.now() - elapsed, rows=pending)
            obs.metrics.histogram("store_flush_seconds").observe(elapsed)

    def close(self) -> None:
        self.flush()
        self._conn.close()

    def _pending_rows(self) -> int:
        return len(self._pending_shapes) + len(self._pending_reps)

    def _maybe_flush(self) -> None:
        if self._pending_rows() >= self.batch_size:
            self.flush()

    # -- interned shapes ----------------------------------------------- #

    def put_shape(
        self,
        state_id: StateId,
        shape: Optional[Shape],
        *,
        encoded: Optional[bytes] = None,
        digest: Optional[int] = None,
    ) -> None:
        if encoded is None:
            encoded = encode_shape_binary(shape)
        if digest is None:
            digest = stable_shape_hash_of_encoding(encoded)
        self._pending_shapes[state_id] = (digest, encoded)
        self._pending_by_hash.setdefault(digest, []).append(state_id)
        self.rows_written += 1
        self._maybe_flush()

    def get_shape(self, state_id: StateId) -> Optional[Shape]:
        """One persisted shape by id, buffered rows included, or ``None``."""
        pending = self._pending_shapes.get(state_id)
        if pending is not None:
            return decode_shape_binary(pending[1])
        row = self._conn.execute(
            "SELECT shape FROM shapes WHERE id = ?", (state_id,)
        ).fetchone()
        if row is None:
            return None
        self.rows_read += 1
        return decode_shape_row(row[0])

    def get_state_id(
        self,
        shape: Optional[Shape],
        *,
        digest: Optional[int] = None,
        encoded: Optional[bytes] = None,
    ) -> Optional[StateId]:
        """The persisted id of *shape*, or ``None`` (reverse lookup).

        Served through the ``shape_hash`` index.  Binary candidate rows are
        compared as bytes against the canonical encoding (the encoding is
        injective, so bytes equality *is* shape equality — no decode at
        all); JSON rows fall back to decode-and-compare.  Hash collisions
        therefore cost at most a decode, never a wrong answer.  Buffered
        rows are checked first — eviction under a resident budget may ask
        for a row the write batch has not flushed yet.
        """
        if encoded is None:
            encoded = encode_shape_binary(shape)
        if digest is None:
            digest = stable_shape_hash_of_encoding(encoded)
        for sid in self._pending_by_hash.get(digest, ()):
            pending = self._pending_shapes.get(sid)
            if pending is not None and pending[1] == encoded:
                return sid
        self.id_lookups += 1
        for sid, row in self._conn.execute(
            "SELECT id, shape FROM shapes WHERE shape_hash = ?", (digest,)
        ):
            self.rows_read += 1
            if isinstance(row, bytes):
                if row != encoded:
                    continue
                self.id_lookup_hits += 1
                return sid
            if shape is None:
                shape = decode_shape_binary(encoded)
            if decode_shape_row(row) == shape:
                self.id_lookup_hits += 1
                return sid
        return None

    def max_state_id(self) -> Optional[StateId]:
        top = self._conn.execute("SELECT MAX(id) FROM shapes").fetchone()[0]
        if self._pending_shapes:
            pending_top = max(self._pending_shapes)
            top = pending_top if top is None else max(top, pending_top)
        return top

    def shape_row_count(self) -> int:
        count = self._conn.execute("SELECT COUNT(*) FROM shapes").fetchone()[0]
        # buffered ids are always new (the interner writes each id through
        # exactly once), so the union is a plain sum
        return count + len(self._pending_shapes)

    def load_shapes(self) -> Iterator[tuple[StateId, Shape]]:
        self.flush()
        for state_id, row in self._conn.execute(
            "SELECT id, shape FROM shapes ORDER BY id"
        ):
            self.rows_read += 1
            yield state_id, decode_shape_row(row)

    # -- canonical representatives ------------------------------------- #

    def put_representative(self, state_id: StateId, blob: str) -> None:
        self._pending_reps[state_id] = blob
        self.rows_written += 1
        self._maybe_flush()

    def get_representative(self, state_id: StateId) -> Optional[str]:
        pending = self._pending_reps.get(state_id)
        if pending is not None:
            return pending
        row = self._conn.execute(
            "SELECT blob FROM representatives WHERE id = ?", (state_id,)
        ).fetchone()
        if row is None:
            return None
        self.rows_read += 1
        return row[0]

    # -- ledger seams -------------------------------------------------- #

    def put_guard(self, key: tuple, value: bool) -> None:
        """Does nothing: a seam perfbench/ledger.py patches by name."""

    def load_guards_raw(self) -> tuple:
        """Returns ``()``: a seam perfbench/ledger.py patches by name."""
        return ()

    # -- exploration checkpoints --------------------------------------- #

    def save_checkpoint(self, run_key: str, payload: dict) -> None:
        started = time.perf_counter()
        self.flush()  # the checkpoint must only reference persisted rows
        self._conn.execute(
            "INSERT OR REPLACE INTO checkpoints (run_key, payload) VALUES (?, ?)",
            (run_key, json.dumps(payload, separators=(",", ":"))),
        )
        self._conn.commit()
        self.checkpoint_saves += 1
        elapsed = time.perf_counter() - started
        self.checkpoint_seconds += elapsed
        obs = self.telemetry
        if obs.enabled:
            # flush + WAL-synced commit: the store's durability point
            obs.end_span("store.checkpoint", obs.now() - elapsed)
            obs.metrics.histogram("store_checkpoint_seconds").observe(elapsed)

    def load_checkpoint(self, run_key: str) -> Optional[dict]:
        self.flush()
        row = self._conn.execute(
            "SELECT payload FROM checkpoints WHERE run_key = ?", (run_key,)
        ).fetchone()
        if row is None:
            return None
        self.rows_read += 1
        try:
            return json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt checkpoint in {self.path}: {exc}") from exc

    def clear_checkpoint(self, run_key: str) -> None:
        self._conn.execute("DELETE FROM checkpoints WHERE run_key = ?", (run_key,))
        self._conn.commit()

    # -- reporting ------------------------------------------------------ #

    def stats(self) -> dict:
        return {
            "backend": "sqlite",
            "rows_written": self.rows_written,
            "rows_read": self.rows_read,
            "flushes": self.flushes,
            "flush_seconds": round(self.flush_seconds, 6),
            "checkpoint_saves": self.checkpoint_saves,
            "checkpoint_seconds": round(self.checkpoint_seconds, 6),
            "migration_seconds": round(self.migration_seconds, 6),
            "id_lookups": self.id_lookups,
            "id_lookup_hits": self.id_lookup_hits,
            "shape_hash_rows_migrated": self.shape_hash_rows_migrated,
        }

    def describe(self) -> dict:
        self.flush()
        counts = {
            table: self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("shapes", "representatives", "checkpoints")
        }
        origins = self._conn.execute(
            "SELECT COUNT(*) FROM representatives WHERE substr(blob, 1, 1) = ?",
            (ORIGIN_ROW_PREFIX,),
        ).fetchone()[0]
        pending = [
            run_key
            for run_key, payload in self._conn.execute(
                "SELECT run_key, payload FROM checkpoints"
            )
            if not json.loads(payload).get("done", False)
        ]
        return {
            "backend": "sqlite",
            "persistent": True,
            "path": self.path,
            "form_name": self._get_meta("form_name"),
            "form_fingerprint": self._get_meta("form_fingerprint"),
            "schema_version": self._get_meta("schema_version"),
            "interned_shapes": counts["shapes"],
            "representatives": counts["representatives"] - origins,
            "representative_origins": origins,
            "checkpoints": counts["checkpoints"],
            "resumable_checkpoints": len(pending),
        }


def open_store(path: "str | Path | None", **kwargs) -> StateStore:
    """The store for *path*: :class:`SqliteStore` when given, else in-memory."""
    if path is None:
        return InMemoryStore()
    return SqliteStore(path, **kwargs)


def exploration_run_key(
    start_shape: Shape,
    limits,
    strategy: str,
    stop_on_complete: bool,
) -> str:
    """Checkpoint key identifying one exploration's parameters.

    Two explorations share a checkpoint exactly when they would traverse the
    state space identically: same start shape, same limits, same frontier
    strategy, same early-exit policy.
    """
    payload = json.dumps(
        {
            "start": encode_shape(start_shape),
            "limits": [
                limits.max_states,
                limits.max_instance_nodes,
                limits.max_sibling_copies,
            ],
            "strategy": strategy,
            "stop_on_complete": stop_on_complete,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def depth1_run_key(initial: int, strategy: str, stop_on_complete: bool) -> str:
    """Checkpoint key identifying one depth-1 exploration's parameters.

    The same start state (as a mask), frontier strategy and early-exit
    policy traverse the canonical states identically.  The payload has a
    ``depth1`` field and no ``limits``, so it never equals the payload of an
    :func:`exploration_run_key`: the keys cannot collide.
    """
    payload = json.dumps(
        {"depth1": initial, "strategy": strategy, "stop_on_complete": stop_on_complete},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
