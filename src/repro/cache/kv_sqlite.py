"""Sqlite KV backend: one WAL database shared by processes on a host.

Reuses the engine's :class:`~repro.engine.sqlite_base.SqliteBacked` plumbing
(standard pragmas, ``meta`` identity table) and its write discipline: puts
buffer in memory and commit in batches, so no caller pays a per-row
transaction.  Reads check the buffer first, so a writer sees
its own unflushed entries; other processes see entries at batch boundaries —
the same visibility contract as the state store's WAL sync.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.cache.kv import KVCache
from repro.engine.sqlite_base import SqliteBacked

#: Version stamp written to cache metadata; bumped on layout changes.
CACHE_SCHEMA_VERSION = "1"


class SqliteKV(SqliteBacked, KVCache):
    """A sqlite3-backed :class:`KVCache` (WAL, batch-committed, thread-safe).

    The connection is shared across threads behind a lock (the pod server's
    job workers all talk to one cache instance), and across processes
    through WAL — two pods on one host pointing ``--cache`` at the same
    file share entries with no daemon.
    """

    backend = "sqlite"

    _DB_ROLE = "sqlite kv cache"

    _TABLES = (
        "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
        "CREATE TABLE IF NOT EXISTS entries ("
        "namespace TEXT NOT NULL, key BLOB NOT NULL, value BLOB NOT NULL, "
        "expires_at REAL, PRIMARY KEY (namespace, key))",
    )

    def __init__(
        self, path: "str | Path", batch_size: int = 256, clock=time.time
    ) -> None:
        KVCache.__init__(self, clock=clock)
        self.batch_size = max(1, batch_size)
        self._lock = threading.RLock()
        self._pending: dict[tuple[str, bytes], tuple[bytes, Optional[float]]] = {}
        self.flushes = 0
        self._open_sqlite(path, check_same_thread=False)
        version = self._get_meta("cache_schema_version")
        if version is None:
            self._set_meta("cache_schema_version", CACHE_SCHEMA_VERSION)
            self._conn.commit()
        self.spec = f"sqlite://{self.path}"

    # -- entry primitives ----------------------------------------------- #

    def _get_entry(self, namespace: str, key: bytes) -> Optional[tuple[bytes, Optional[float]]]:
        with self._lock:
            pending = self._pending.get((namespace, key))
            if pending is not None:
                return pending
            row = self._conn.execute(
                "SELECT value, expires_at FROM entries WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
        if row is None:
            return None
        return bytes(row[0]), row[1]

    def _put_entry(
        self, namespace: str, key: bytes, value: bytes, expires_at: Optional[float]
    ) -> None:
        with self._lock:
            self._pending[(namespace, key)] = (value, expires_at)
            if len(self._pending) >= self.batch_size:
                self._flush_locked()

    def _drop_entry(self, namespace: str, key: bytes) -> bool:
        with self._lock:
            existed = self._pending.pop((namespace, key), None) is not None
            cursor = self._conn.execute(
                "DELETE FROM entries WHERE namespace = ? AND key = ?", (namespace, key)
            )
            self._conn.commit()
            return existed or cursor.rowcount > 0

    def _scan_entries(self, namespace: str) -> Iterator[tuple[bytes, bytes, Optional[float]]]:
        with self._lock:
            self._flush_locked()
            rows = self._conn.execute(
                "SELECT key, value, expires_at FROM entries WHERE namespace = ?",
                (namespace,),
            ).fetchall()
        for key, value, expires_at in rows:
            yield bytes(key), bytes(value), expires_at

    # -- batching -------------------------------------------------------- #

    def mput(
        self,
        namespace: str,
        items: Iterable[tuple[bytes, bytes]],
        ttl: Optional[float] = None,
    ) -> None:
        # one buffer pass + at most one commit, instead of a put() per row
        expires_at = None if ttl is None else self._clock() + ttl
        counters = self._ns_counters(namespace)
        with self._lock:
            for key, value in items:
                self._pending[(namespace, key)] = (value, expires_at)
                counters["puts"] += 1
            if len(self._pending) >= self.batch_size:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        self._conn.executemany(
            "INSERT OR REPLACE INTO entries (namespace, key, value, expires_at) "
            "VALUES (?, ?, ?, ?)",
            [
                (namespace, key, value, expires_at)
                for (namespace, key), (value, expires_at) in self._pending.items()
            ],
        )
        self._conn.commit()
        self._pending.clear()
        self.flushes += 1

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            self._conn.close()
