"""Shared sqlite plumbing and the LRU read cache.

Extracted from :mod:`repro.engine.store` so the pieces every sqlite-backed
artifact shares — the pragma'd connection opener, the ``meta`` identity
table, and the hit/miss-counting :class:`LRUCache` — can be reused without
importing the full state-store machinery.  Users today: the engine state
store (:class:`repro.engine.store.SqliteStore`), the service job queue
(:class:`repro.service.jobs.JobStore`), the campaign result store
(:class:`repro.campaign.store.CampaignStore`), and the cache tier's
:class:`repro.cache.SqliteKV`.  The old names still import from
``repro.engine.store``.
"""

from __future__ import annotations

import sqlite3
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro.exceptions import StoreError

#: How long (ms) sqlite connections wait on a locked database before giving
#: up — long enough to ride out another process's batched commit.
_BUSY_TIMEOUT_MS = 10_000

#: Cache sentinel distinguishing "not cached" from a cached ``None`` (a
#: memoized negative lookup — e.g. a representative that is absent from the
#: store and will stay absent until it is registered).
_MISS = object()


class LRUCache:
    """A small least-recently-used mapping with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LRU cache capacity must be positive")
        self.capacity = capacity
        self._items: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, default=None):
        """The cached value, or *default* when the key is absent.

        Presence is what counts a hit: a cached ``None`` *is* a hit, so
        negative lookups are cacheable — callers that need to distinguish a
        cached ``None`` from a miss pass their own sentinel as *default*
        (historically a cached ``None`` was indistinguishable from a miss and
        was re-fetched forever).
        """
        try:
            self._items.move_to_end(key)
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        return self._items[key]

    def put(self, key, value) -> None:
        """Insert/refresh an entry, evicting the least recently used one."""
        self._items[key] = value
        self._items.move_to_end(key)
        if len(self._items) > self.capacity:
            self._items.popitem(last=False)
            self.evictions += 1

    def evict(self, key) -> None:
        """Drop one entry if present (used by the eviction property tests)."""
        self._items.pop(key, None)

    def clear(self) -> None:
        """Drop every entry."""
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        return key in self._items


class SqliteBacked:
    """Shared sqlite plumbing for the engine's persistent artifacts.

    Subclasses declare their schema in ``_TABLES`` / ``_INDEXES`` and call
    :meth:`_open_sqlite`; the connection is opened with the engine's standard
    pragmas (WAL journal so concurrent readers coexist with batched writers,
    NORMAL synchronous, a busy timeout) and the declared schema is created.
    ``_after_tables`` runs between table and index creation — the state
    store's ``shape_hash`` migration needs its column to exist before the
    index over it does.  Every backed database keeps a string ``meta`` table
    (declare it in ``_TABLES``) accessed through ``_get_meta`` /
    ``_set_meta`` — both the engine state store and the campaign result
    store record their identity there and verify it on re-attach.
    """

    #: Human-readable role used in the "not a usable ..." open error.
    _DB_ROLE = "sqlite database"

    _TABLES: tuple = ()
    _INDEXES: tuple = ()

    def _open_sqlite(self, path: "str | Path", check_same_thread: bool = True) -> None:
        self.path = str(path)
        try:
            # check_same_thread=False lets a subclass share one connection
            # across threads behind its own lock (the service job store does;
            # engine stores keep sqlite's same-thread guard).
            self._conn = sqlite3.connect(self.path, check_same_thread=check_same_thread)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            # WAL lets concurrent processes read while a writer streams its
            # batches (the parallel engine's frontier workers pre-warming
            # their shard's shapes, a campaign's report running against a
            # live store);
            # in-memory databases don't support it, which sqlite reports by
            # answering with the journal mode it kept.
            self._conn.execute("PRAGMA journal_mode=WAL")
            for statement in self._TABLES:
                self._conn.execute(statement)
            self._after_tables()
            for statement in self._INDEXES:
                self._conn.execute(statement)
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"{self.path} is not a usable {self._DB_ROLE}: {exc}"
            ) from exc

    def _after_tables(self) -> None:
        """Hook between table and index creation (schema migrations)."""

    def _get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
        )
