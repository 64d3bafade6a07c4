"""Pluggable KV cache holding memoized analysis results.

One redis-shaped protocol (:class:`KVCache`: ``get``/``put``/``mget``/
``mput``/``delete``/``scan`` over namespaced byte pairs, optional TTL,
per-namespace counters) behind two backends:

* :class:`MemoryKV` — a process-local bounded LRU.
* :class:`SqliteKV` — a WAL sqlite database, batch-committed, shared by
  threads and by processes on one host.

The only namespace written is ``results``: whole analysis answers keyed by
the form fingerprint and the request (:mod:`repro.service.dispatch`).

Resolution: pass a cache explicitly, push one with :func:`use_cache`, or
set ``REPRO_CACHE`` (see :func:`default_cache` / :func:`open_kv` for the
``--cache DIR|URL`` spec grammar).
"""

from repro.cache.kv import KNOWN_NAMESPACES, KVCache
from repro.cache.kv_memory import MemoryKV
from repro.cache.kv_sqlite import SqliteKV
from repro.cache.runtime import default_cache, open_kv, use_cache

__all__ = [
    "KNOWN_NAMESPACES",
    "KVCache",
    "MemoryKV",
    "SqliteKV",
    "default_cache",
    "open_kv",
    "use_cache",
]
