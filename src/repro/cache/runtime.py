"""Cache resolution: spec strings, ambient defaults, ``REPRO_CACHE``.

Mirrors the telemetry runtime (:mod:`repro.obs.tracing`): callers that were
handed an explicit cache use it; everything else asks :func:`default_cache`,
which resolves the innermost :func:`use_cache` context, then the
``REPRO_CACHE`` environment variable (memoized per process so every caller
shares one backend instance), then "no cache" (``None``).  Only the
coordinating process reads or writes it: frontier workers never open a KV.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Optional

from repro.cache.kv import KVCache
from repro.cache.kv_memory import MemoryKV
from repro.cache.kv_sqlite import SqliteKV
from repro.exceptions import StoreError


def open_kv(spec: str, clock=time.time) -> KVCache:
    """The cache backend for *spec* (the ``--cache DIR|URL`` grammar).

    * ``memory`` — a process-local bounded LRU (:class:`MemoryKV`).
    * ``sqlite://PATH`` — a shared sqlite database (:class:`SqliteKV`).
    * a bare path ending in ``.db``/``.sqlite`` — :class:`SqliteKV` on it.
    * any other bare path — a cache *directory*: :class:`SqliteKV` on
      ``PATH/cache.db`` (created on demand), the recommended default for
      sharing between processes on one host.
    """
    spec = spec.strip()
    if not spec:
        raise StoreError("empty cache spec")
    if spec in ("memory", "memory://"):
        return MemoryKV(clock=clock)
    if spec.startswith("sqlite://"):
        return SqliteKV(spec[len("sqlite://") :], clock=clock)
    if "://" in spec:
        scheme = spec.split("://", 1)[0]
        raise StoreError(
            f"unknown cache backend {scheme!r} in {spec!r} "
            "(expected memory, sqlite://PATH, or a path)"
        )
    if spec.endswith((".db", ".sqlite")):
        return SqliteKV(spec, clock=clock)
    os.makedirs(spec, exist_ok=True)
    return SqliteKV(os.path.join(spec, "cache.db"), clock=clock)


#: Innermost-wins stack of ambient caches pushed by :func:`use_cache`.
_default_stack: list[KVCache] = []

#: Memoized ``REPRO_CACHE`` backend, keyed by the env value it was opened
#: for — a process-wide singleton so every caller shares one connection and
#: one counter set.
_env_cache: Optional[KVCache] = None
_env_spec: Optional[str] = None


def _cache_from_env() -> Optional[KVCache]:
    global _env_cache, _env_spec
    spec = os.environ.get("REPRO_CACHE")
    if not spec:
        return None
    if _env_cache is None or _env_spec != spec:
        _env_cache = open_kv(spec)
        _env_spec = spec
    return _env_cache


def default_cache() -> Optional[KVCache]:
    """The ambient cache: ``use_cache`` context, else ``REPRO_CACHE``, else none."""
    if _default_stack:
        return _default_stack[-1]
    return _cache_from_env()


def reset_cache_runtime() -> None:
    """Forget all ambient cache state (context stack + memoized env backend).

    The test suite's isolation hook.
    """
    global _env_cache, _env_spec
    _default_stack.clear()
    _env_cache = None
    _env_spec = None


@contextmanager
def use_cache(cache: Optional[KVCache]):
    """Make *cache* the ambient default within the block.

    ``None`` is a true no-op (the ambient default is left alone, it does
    **not** mask an outer cache), so call sites can unconditionally wrap:
    ``with use_cache(maybe_cache): ...``.
    """
    if cache is None:
        yield None
        return
    _default_stack.append(cache)
    try:
        yield cache
    finally:
        _default_stack.pop()
