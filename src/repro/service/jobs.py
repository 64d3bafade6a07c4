"""The pod server's sqlite-backed job queue.

Jobs survive the process: a submitted request is durable the moment
``POST /v1/jobs`` answers, and a server killed mid-job recovers on restart —
:meth:`JobStore.recover` re-queues the jobs that were running, whose
explorations then pick up from the engine-store checkpoints their slices
left behind (the same ``--resume`` machinery the CLI uses, pinned
bit-identical by the engine tests).

The store reuses the shared
:class:`~repro.engine.sqlite_base.SqliteBacked` plumbing (WAL journal, busy
timeout, ``meta`` table) with one twist: the HTTP handler threads and the
worker threads share a single connection behind a lock
(``check_same_thread=False``), and every mutation commits immediately — queue
durability is the point.

Job lifecycle::

    queued ──claim──> running ──┬──> done
      │  ^                      ├──> failed
      │  └──────requeue─────────┤        (evicted / crashed slices re-queue
      │       (eviction,        │         until ``max_evictions``)
      │        crash recovery)  │
      └──cancel──> cancelled <──┘
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.engine.sqlite_base import SqliteBacked
from repro.exceptions import UnknownJobError

#: Every state a job can be in; the first three are live, the rest terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Live (non-terminal) states.
LIVE_STATES = ("queued", "running")


@dataclass(frozen=True)
class JobRecord:
    """One job as the queue knows it (a snapshot, not a live handle)."""

    job_id: str
    state: str
    request: dict
    budget_kb: int
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    result: Optional[dict]
    error: Optional[dict]
    error_status: Optional[int]
    cancel_requested: bool
    states_explored: int
    evictions: int

    @property
    def terminal(self) -> bool:
        return self.state not in LIVE_STATES

    def to_wire(self) -> dict:
        """The JSON-safe job shape of the status endpoints."""
        payload = {
            "job_id": self.job_id,
            "state": self.state,
            "budget_kb": self.budget_kb,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
            "states_explored": self.states_explored,
            "evictions": self.evictions,
        }
        if self.error is not None:
            payload["error"] = self.error.get("error", self.error)
        return payload


class JobStore(SqliteBacked):
    """Durable FIFO job queue shared by the HTTP handlers and the workers.

    All public methods are thread-safe (one connection, one lock) and commit
    before returning.  Job ids are dense (``job-000001``, …) so submission
    order — the admission order — is readable in every listing.
    """

    _DB_ROLE = "service job store"

    _TABLES = (
        """CREATE TABLE IF NOT EXISTS jobs (
            seq INTEGER PRIMARY KEY AUTOINCREMENT,
            job_id TEXT UNIQUE NOT NULL,
            state TEXT NOT NULL,
            request TEXT NOT NULL,
            budget_kb INTEGER NOT NULL,
            submitted_at REAL NOT NULL,
            started_at REAL,
            finished_at REAL,
            result TEXT,
            error TEXT,
            error_status INTEGER,
            cancel_requested INTEGER NOT NULL DEFAULT 0,
            states_explored INTEGER NOT NULL DEFAULT 0,
            evictions INTEGER NOT NULL DEFAULT 0
        )""",
        "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
    )
    _INDEXES = (
        "CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, seq)",
    )

    def __init__(self, path) -> None:
        self._lock = threading.Lock()
        self._open_sqlite(path, check_same_thread=False)
        with self._lock:
            if self._get_meta("role") is None:
                self._set_meta("role", "service-jobs")
                self._conn.commit()

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #

    def submit(self, request_wire: dict, budget_kb: int) -> JobRecord:
        """Durably enqueue a request; returns the queued record."""
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO jobs (job_id, state, request, budget_kb, submitted_at)"
                " VALUES (?, 'queued', ?, ?, ?)",
                ("pending", json.dumps(request_wire), budget_kb, time.time()),
            )
            job_id = f"job-{cursor.lastrowid:06d}"
            self._conn.execute(
                "UPDATE jobs SET job_id = ? WHERE seq = ?", (job_id, cursor.lastrowid)
            )
            self._conn.commit()
            return self._get_locked(job_id)

    def claim_next(self) -> Optional[JobRecord]:
        """Claim the head-of-line queued job (oldest first), marking it running.

        Head-of-line semantics keep admission reasoning simple: the caller
        checks *the one oldest* queued job against the remaining capacity, so
        a large job at the head is never overtaken by smaller later ones.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id FROM jobs WHERE state = 'queued' ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ? WHERE job_id = ?",
                (time.time(), row[0]),
            )
            self._conn.commit()
            return self._get_locked(row[0])

    def head_of_line(self) -> Optional[JobRecord]:
        """Peek the oldest queued job without claiming it."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id FROM jobs WHERE state = 'queued' ORDER BY seq LIMIT 1"
            ).fetchone()
            return self._get_locked(row[0]) if row else None

    def finish(self, job_id: str, result_wire: dict) -> None:
        self._terminal(job_id, "done", result=json.dumps(result_wire))

    def fail(self, job_id: str, error_wire: dict, status: int) -> None:
        self._terminal(job_id, "failed", error=json.dumps(error_wire), error_status=status)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediately when queued, cooperatively when running.

        A running job's worker observes ``cancel_requested`` at its next
        slice boundary and moves the job to ``cancelled`` itself; terminal
        jobs are left untouched (cancel is idempotent).
        """
        with self._lock:
            record = self._get_locked(job_id)
            if record.state == "queued":
                self._conn.execute(
                    "UPDATE jobs SET state = 'cancelled', cancel_requested = 1,"
                    " finished_at = ? WHERE job_id = ?",
                    (time.time(), job_id),
                )
            elif record.state == "running":
                self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE job_id = ?", (job_id,)
                )
            self._conn.commit()
            return self._get_locked(job_id)

    def mark_cancelled(self, job_id: str) -> None:
        self._terminal(job_id, "cancelled")

    def requeue(self, job_id: str, evicted: bool = False) -> None:
        """Put a running job back in the queue (eviction or crash recovery)."""
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL,"
                " evictions = evictions + ? WHERE job_id = ? AND state = 'running'",
                (1 if evicted else 0, job_id),
            )
            self._conn.commit()

    def recover(self) -> int:
        """Re-queue every job a dead server left ``running``; returns count.

        Their next slices run with ``resume`` against the engine-store
        checkpoints already on disk, so recovered jobs converge to the same
        answer a never-killed run produces.
        """
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL"
                " WHERE state = 'running'"
            )
            self._conn.commit()
            return cursor.rowcount

    def update_progress(self, job_id: str, states_explored: int) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET states_explored = ? WHERE job_id = ?",
                (states_explored, job_id),
            )
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._get_locked(job_id)

    def jobs(self, state: Optional[str] = None) -> "list[JobRecord]":
        with self._lock:
            if state is None:
                rows = self._conn.execute(
                    "SELECT job_id FROM jobs ORDER BY seq"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT job_id FROM jobs WHERE state = ? ORDER BY seq", (state,)
                ).fetchall()
            return [self._get_locked(row[0]) for row in rows]

    def counts(self) -> dict:
        """``{state: count}`` over all known jobs (zero-filled)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({state: count for state, count in rows})
        return counts

    def admitted_budget_kb(self) -> int:
        """Sum of declared budgets over currently running (admitted) jobs."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(budget_kb), 0) FROM jobs WHERE state = 'running'"
            ).fetchone()
            return int(row[0])

    def queue_length(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = 'queued'"
            ).fetchone()
            return int(row[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------ #
    # internals (caller holds the lock)
    # ------------------------------------------------------------------ #

    def _terminal(self, job_id: str, state: str, result=None, error=None, error_status=None) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, result = ?,"
                " error = ?, error_status = ? WHERE job_id = ?",
                (state, time.time(), result, error, error_status, job_id),
            )
            self._conn.commit()

    def _get_locked(self, job_id: str) -> JobRecord:
        row = self._conn.execute(
            "SELECT job_id, state, request, budget_kb, submitted_at, started_at,"
            " finished_at, result, error, error_status, cancel_requested,"
            " states_explored, evictions FROM jobs WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        if row is None:
            raise UnknownJobError(f"no job named {job_id!r}")
        return JobRecord(
            job_id=row[0],
            state=row[1],
            request=json.loads(row[2]),
            budget_kb=row[3],
            submitted_at=row[4],
            started_at=row[5],
            finished_at=row[6],
            result=json.loads(row[7]) if row[7] else None,
            error=json.loads(row[8]) if row[8] else None,
            error_status=row[9],
            cancel_requested=bool(row[10]),
            states_explored=row[11],
            evictions=row[12],
        )
