"""Shared sqlite plumbing for every sqlite-backed artifact.

The pragma'd connection opener and the ``meta`` identity table live here so
they can be reused without importing the state-store machinery.  Users: the
engine state store (:class:`repro.engine.store.SqliteStore`), the service job
queue (:class:`repro.service.jobs.JobStore`), the campaign result store
(:class:`repro.campaign.store.CampaignStore`), and the cache tier's
:class:`repro.cache.SqliteKV`.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Optional

from repro.exceptions import StoreError

#: How long (ms) sqlite connections wait on a locked database before giving
#: up — long enough to ride out another process's batched commit.
_BUSY_TIMEOUT_MS = 10_000


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
            # batches (a campaign's report running against a live store);
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
