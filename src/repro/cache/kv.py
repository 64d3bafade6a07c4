"""The KV-cache protocol: namespaced byte pairs with TTL and counters.

A :class:`KVCache` is the one interface behind the cache the system keeps
outside a single engine's process: it holds memoized analysis results (the
``results`` namespace) and nothing else.  The shape of the protocol
is deliberately redis-like — ``get``/``put``/``mget``/``mput``/``delete``/
``scan`` over byte keys and byte values, partitioned by a short string
*namespace*, with an optional per-entry TTL — so a real network backend can
drop in behind the same calls later.

Design constraints the backends share:

* **Pure observer.**  A cache answer must be byte-identical to what the
  writer put in, and a cache may drop any entry at any time (eviction, TTL,
  a concurrent delete).  Callers therefore treat every ``get`` miss as "go
  compute it" — correctness never depends on an entry being present.
* **Bytes in, bytes out.**  Values are opaque; the binary row codecs from
  :mod:`repro.io.serialization` are reused verbatim as values, so nothing is
  re-serialised at this layer.
* **Counted.**  Every backend keeps per-namespace hit/miss/put/eviction
  counters (:meth:`KVCache.stats`), surfaced on the service ``/metricsz``
  endpoint and in ``repro store info``.
* **Testable time.**  TTL expiry consults an injectable ``clock`` (defaults
  to :func:`time.time`), so the property suite fakes the passage of time
  instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional

#: The namespaces reporting surfaces render as stable zero rows.  Only
#: ``results`` is written; ``guards`` and ``shapes`` stay listed (always zero)
#: so reports keep their schema.  Free-form strings are accepted.
KNOWN_NAMESPACES = ("guards", "shapes", "results")

_COUNTER_KEYS = ("hits", "misses", "puts", "deletes", "evictions", "expirations")


class KVCache:
    """Base class: counter bookkeeping, TTL arithmetic, mget/mput defaults.

    Subclasses implement the single-key primitives (:meth:`_get_entry`,
    :meth:`_put_entry`, :meth:`delete`, :meth:`scan`) over ``(value,
    expires_at)`` entries; the base class turns them into the counted,
    TTL-checked public surface.  ``mget``/``mput`` default to loops —
    backends with a cheaper batch path override them.
    """

    #: Short backend name used in stats payloads.
    backend = "kv"

    #: How to reopen this cache elsewhere (another process): the spec string
    #: understood by :func:`repro.cache.open_kv`, or ``None`` for
    #: process-local backends that cannot be shared by spec.
    spec: Optional[str] = None

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self.counters: dict[str, dict[str, int]] = {}

    # -- counter bookkeeping -------------------------------------------- #

    def _ns_counters(self, namespace: str) -> dict[str, int]:
        counters = self.counters.get(namespace)
        if counters is None:
            counters = self.counters[namespace] = dict.fromkeys(_COUNTER_KEYS, 0)
        return counters

    # -- primitives subclasses provide ---------------------------------- #

    def _get_entry(self, namespace: str, key: bytes) -> Optional[tuple[bytes, Optional[float]]]:
        """The stored ``(value, expires_at)`` entry, or ``None``."""
        raise NotImplementedError

    def _put_entry(
        self, namespace: str, key: bytes, value: bytes, expires_at: Optional[float]
    ) -> None:
        raise NotImplementedError

    def _drop_entry(self, namespace: str, key: bytes) -> bool:
        """Remove one entry; ``True`` when it existed."""
        raise NotImplementedError

    def _scan_entries(
        self, namespace: str
    ) -> Iterator[tuple[bytes, bytes, Optional[float]]]:
        """All ``(key, value, expires_at)`` entries of a namespace."""
        raise NotImplementedError

    # -- public protocol ------------------------------------------------ #

    def get(self, namespace: str, key: bytes) -> Optional[bytes]:
        """The cached value, or ``None`` on a miss (absent or expired)."""
        counters = self._ns_counters(namespace)
        entry = self._get_entry(namespace, key)
        if entry is not None:
            value, expires_at = entry
            if expires_at is None or expires_at > self._clock():
                counters["hits"] += 1
                return value
            # lazily reap the expired entry so scans and backends stay tidy
            self._drop_entry(namespace, key)
            counters["expirations"] += 1
        counters["misses"] += 1
        return None

    def put(
        self, namespace: str, key: bytes, value: bytes, ttl: Optional[float] = None
    ) -> None:
        """Store *value* under *key*, optionally expiring after *ttl* seconds."""
        expires_at = None if ttl is None else self._clock() + ttl
        self._put_entry(namespace, key, value, expires_at)
        self._ns_counters(namespace)["puts"] += 1

    def mget(self, namespace: str, keys: Iterable[bytes]) -> list[Optional[bytes]]:
        """Values for *keys* in order, ``None`` per miss."""
        return [self.get(namespace, key) for key in keys]

    def mput(
        self,
        namespace: str,
        items: Iterable[tuple[bytes, bytes]],
        ttl: Optional[float] = None,
    ) -> None:
        """Store every ``(key, value)`` pair of *items*."""
        for key, value in items:
            self.put(namespace, key, value, ttl=ttl)

    def delete(self, namespace: str, key: bytes) -> bool:
        """Drop one entry; ``True`` when it existed."""
        existed = self._drop_entry(namespace, key)
        if existed:
            self._ns_counters(namespace)["deletes"] += 1
        return existed

    def scan(self, namespace: str) -> Iterator[tuple[bytes, bytes]]:
        """All live ``(key, value)`` pairs of a namespace (order unspecified).

        Expired entries are skipped (and may be reaped as a side effect);
        entries added mid-scan may or may not appear.
        """
        now = self._clock()
        for key, value, expires_at in list(self._scan_entries(namespace)):
            if expires_at is None or expires_at > now:
                yield key, value

    # -- lifecycle ------------------------------------------------------- #

    def flush(self) -> None:
        """Persist buffered writes (no-op for unbuffered backends)."""

    def close(self) -> None:
        """Flush and release backing resources."""
        self.flush()

    # -- reporting -------------------------------------------------------- #

    def stats(self) -> dict:
        """Per-namespace counter snapshot.

        Always renders the well-known namespaces (zeroed when untouched) so
        reporting surfaces show stable rows, plus any ad-hoc namespaces that
        saw traffic.
        """
        namespaces = {}
        for namespace in KNOWN_NAMESPACES:
            namespaces[namespace] = dict(self._ns_counters(namespace))
        for namespace, counters in self.counters.items():
            if namespace not in namespaces:
                namespaces[namespace] = dict(counters)
        return {"backend": self.backend, "spec": self.spec, "namespaces": namespaces}
