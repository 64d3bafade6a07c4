"""The sqlite store a campaign persists its per-form outcomes into.

One row per ``(family, seed)`` — outcome (states, transitions, completability
verdict), perf (exploration seconds, states/sec, guard-cache hit rate, peak
RSS) and the oracle verdicts including any disagreement details.  Rows are
written in batches at batch boundaries (one transaction per batch), which is
what makes a killed campaign resumable: every committed row is final, and a
re-run with the same configuration skips exactly the committed specs and
re-runs the rest — converging on the same store an uninterrupted run
produces.

The store records its campaign configuration (families, count, base seed,
oracle stack, smoke flag, limits) in the shared ``meta`` table on first use
and refuses — with :class:`~repro.exceptions.CampaignError` — to continue a
campaign under a different configuration: resuming half of one queue with
the other half of another would silently corrupt the distributions.

The sqlite plumbing (pragmas, schema creation, the ``meta`` table) is the
engine state store's, shared via
:class:`~repro.engine.sqlite_base.SqliteBacked`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.engine.sqlite_base import SqliteBacked
from repro.exceptions import CampaignError

#: Bumped when the results schema changes incompatibly.
CAMPAIGN_SCHEMA_VERSION = "campaign-store/1"


@dataclass
class CampaignRow:
    """One form's campaign outcome (the unit the store persists)."""

    family: str
    seed: int
    index: int
    kind: str  # "depth1" | "bounded"
    digest: str  # short content digest of the generated form
    states: int
    transitions: int
    truncated: bool
    decided: bool
    answer: Optional[bool]
    elapsed: float  # reference exploration seconds
    states_per_second: float
    guard_hit_rate: float
    peak_rss_kb: int
    oracles_run: list = field(default_factory=list)  # oracle names, in order
    disagreements: list = field(default_factory=list)  # [{oracle, detail}, ...]

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return asdict(self)


_COLUMNS = (
    "family", "seed", "idx", "kind", "digest", "states", "transitions",
    "truncated", "decided", "answer", "elapsed", "states_per_second",
    "guard_hit_rate", "peak_rss_kb", "oracles_run", "disagreements",
)


def config_fingerprint(payload: dict) -> str:
    """A stable digest of a campaign configuration (the resume guard)."""
    encoded = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


class CampaignStore(SqliteBacked):
    """Sqlite persistence for campaign rows, keyed ``(family, seed)``."""

    _DB_ROLE = "sqlite campaign store"

    _TABLES = (
        "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
        "CREATE TABLE IF NOT EXISTS results ("
        " family TEXT NOT NULL,"
        " seed INTEGER NOT NULL,"
        " idx INTEGER NOT NULL,"
        " kind TEXT NOT NULL,"
        " digest TEXT NOT NULL,"
        " states INTEGER NOT NULL,"
        " transitions INTEGER NOT NULL,"
        " truncated INTEGER NOT NULL,"
        " decided INTEGER NOT NULL,"
        " answer INTEGER,"
        " elapsed REAL NOT NULL,"
        " states_per_second REAL NOT NULL,"
        " guard_hit_rate REAL NOT NULL,"
        " peak_rss_kb INTEGER NOT NULL,"
        " oracles_run TEXT NOT NULL,"
        " disagreements TEXT NOT NULL,"
        " PRIMARY KEY (family, seed))",
    )

    def __init__(self, path: "str | Path") -> None:
        self._open_sqlite(path)
        version = self._get_meta("schema_version")
        if version is None:
            self._set_meta("schema_version", CAMPAIGN_SCHEMA_VERSION)
            self._conn.commit()
        elif version != CAMPAIGN_SCHEMA_VERSION:
            raise CampaignError(
                f"campaign store {self.path} uses layout version {version}, "
                f"this build expects {CAMPAIGN_SCHEMA_VERSION}"
            )

    # -- configuration binding ------------------------------------------ #

    def bind_config(self, payload: dict) -> bool:
        """Bind the store to a campaign configuration.

        Returns ``True`` when the store was fresh (first bind), ``False``
        when it already carried the same configuration (a resume).

        Raises:
            CampaignError: the store belongs to a differently configured
                campaign.
        """
        fingerprint = config_fingerprint(payload)
        recorded = self._get_meta("config_fingerprint")
        if recorded is None:
            self._set_meta("config_fingerprint", fingerprint)
            self._set_meta("config", json.dumps(payload, sort_keys=True))
            self._conn.commit()
            return True
        if recorded != fingerprint:
            raise CampaignError(
                f"campaign store {self.path} was written by a differently "
                f"configured campaign ({self._get_meta('config')}); use a "
                "fresh store or rerun with the original configuration"
            )
        return False

    def config(self) -> Optional[dict]:
        """The bound campaign configuration (``None`` on a fresh store)."""
        raw = self._get_meta("config")
        return json.loads(raw) if raw is not None else None

    # -- rows ------------------------------------------------------------ #

    def completed_specs(self) -> set:
        """``(family, seed)`` pairs the store already holds rows for."""
        return {
            (family, seed)
            for family, seed in self._conn.execute(
                "SELECT family, seed FROM results"
            )
        }

    def record_rows(self, rows: Sequence[CampaignRow]) -> None:
        """Persist a batch of rows in one transaction (a resume point)."""
        self._conn.executemany(
            f"INSERT OR REPLACE INTO results ({', '.join(_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(_COLUMNS))})",
            [
                (
                    row.family,
                    row.seed,
                    row.index,
                    row.kind,
                    row.digest,
                    row.states,
                    row.transitions,
                    int(row.truncated),
                    int(row.decided),
                    None if row.answer is None else int(row.answer),
                    row.elapsed,
                    row.states_per_second,
                    row.guard_hit_rate,
                    row.peak_rss_kb,
                    json.dumps(row.oracles_run),
                    json.dumps(row.disagreements, sort_keys=True),
                )
                for row in rows
            ],
        )
        self._conn.commit()

    def rows(self) -> list[CampaignRow]:
        """All rows, deterministically ordered by ``(family, seed)``.

        The ordering is part of the reporting contract: reports and golden
        files must not depend on the wall-clock order batches landed in.
        """
        out = []
        for record in self._conn.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM results ORDER BY family, seed"
        ):
            (
                family, seed, idx, kind, digest, states, transitions,
                truncated, decided, answer, elapsed, states_per_second,
                guard_hit_rate, peak_rss_kb, oracles_run, disagreements,
            ) = record
            out.append(
                CampaignRow(
                    family=family,
                    seed=seed,
                    index=idx,
                    kind=kind,
                    digest=digest,
                    states=states,
                    transitions=transitions,
                    truncated=bool(truncated),
                    decided=bool(decided),
                    answer=None if answer is None else bool(answer),
                    elapsed=elapsed,
                    states_per_second=states_per_second,
                    guard_hit_rate=guard_hit_rate,
                    peak_rss_kb=peak_rss_kb,
                    oracles_run=json.loads(oracles_run),
                    disagreements=json.loads(disagreements),
                )
            )
        return out

    def row_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def close(self) -> None:
        self._conn.commit()
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
