"""One property suite, two backends: the KV cache protocol contract.

Every backend behind ``--cache`` must be observably interchangeable:
round-trip identity, ``mget``/``mput`` parity with the single-key calls,
TTL expiry against an injected clock (no sleeping), delete semantics, scan
completeness, and honest per-namespace counters.  The LRU bound is
:class:`MemoryKV`-specific and tested separately; the shared-by-spec
sqlite backend additionally proves that a second handle on the same spec sees a
flushed writer's entries.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import MemoryKV, SqliteKV, open_kv
from repro.exceptions import StoreError

NAMESPACES = ("guards", "shapes", "results", "adhoc")

keys = st.binary(min_size=0, max_size=32)
values = st.binary(min_size=0, max_size=128)
namespaces = st.sampled_from(NAMESPACES)
entries = st.dictionaries(keys, values, max_size=12)


class FakeClock:
    """An injectable clock: TTL tests advance time instead of sleeping."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class _Backend:
    """Build/destroy one backend instance per Hypothesis example."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pytest parametrize ids
        return self.name

    def open(self, clock):
        if self.name == "memory":
            return MemoryKV(clock=clock), None
        tmp = tempfile.TemporaryDirectory()
        return SqliteKV(f"{tmp.name}/cache.db", clock=clock), tmp


BACKENDS = [_Backend("memory"), _Backend("sqlite")]


def run_on(backend, clock, body):
    cache, tmp = backend.open(clock)
    try:
        body(cache)
    finally:
        cache.close()
        if tmp is not None:
            tmp.cleanup()


@pytest.mark.parametrize("backend", BACKENDS)
@given(namespace=namespaces, items=entries)
@settings(max_examples=25, deadline=None)
def test_roundtrip_and_mget_parity(backend, namespace, items):
    def body(cache):
        cache.mput(namespace, items.items())
        cache.flush()
        # single-key and batched reads agree with what was written
        for key, value in items.items():
            assert cache.get(namespace, key) == value
        assert cache.mget(namespace, list(items)) == list(items.values())
        # a key that was never written misses (unless it was in items)
        probe = b"\x00never-such-key\xff"
        assert cache.get(namespace, probe) == items.get(probe)
        # scan returns exactly the live pairs
        assert dict(cache.scan(namespace)) == items

    run_on(backend, FakeClock(), body)


@pytest.mark.parametrize("backend", BACKENDS)
@given(items=entries)
@settings(max_examples=25, deadline=None)
def test_namespaces_do_not_alias(backend, items):
    def body(cache):
        cache.mput("guards", items.items())
        cache.flush()
        for key in items:
            assert cache.get("shapes", key) is None
        assert dict(cache.scan("shapes")) == {}
        assert dict(cache.scan("guards")) == items

    run_on(backend, FakeClock(), body)


@pytest.mark.parametrize("backend", BACKENDS)
@given(namespace=namespaces, key=keys, value=values, ttl=st.floats(0.1, 100.0))
@settings(max_examples=25, deadline=None)
def test_ttl_expiry_is_clock_driven(backend, namespace, key, value, ttl):
    clock = FakeClock()

    def body(cache):
        cache.put(namespace, key, value, ttl=ttl)
        cache.flush()
        assert cache.get(namespace, key) == value
        clock.now += ttl + 0.001
        assert cache.get(namespace, key) is None
        counters = cache.stats()["namespaces"][namespace]
        assert counters["expirations"] == 1
        # the expired entry was reaped, not just hidden
        assert dict(cache.scan(namespace)) == {}
        # an un-TTL'd overwrite resurrects the key permanently
        cache.put(namespace, key, value)
        cache.flush()
        clock.now += 1_000_000.0
        assert cache.get(namespace, key) == value

    run_on(backend, clock, body)


@pytest.mark.parametrize("backend", BACKENDS)
@given(namespace=namespaces, key=keys, value=values)
@settings(max_examples=25, deadline=None)
def test_delete_and_counters(backend, namespace, key, value):
    def body(cache):
        assert cache.get(namespace, key) is None  # miss on empty
        cache.put(namespace, key, value)
        cache.flush()
        assert cache.get(namespace, key) == value
        assert cache.delete(namespace, key) is True
        assert cache.delete(namespace, key) is False
        assert cache.get(namespace, key) is None
        counters = cache.stats()["namespaces"][namespace]
        assert counters == {
            "hits": 1,
            "misses": 2,
            "puts": 1,
            "deletes": 1,
            "evictions": 0,
            "expirations": 0,
        }

    run_on(backend, FakeClock(), body)


@given(overflow=st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_memory_lru_bound_evicts_least_recent(overflow):
    capacity = 16
    cache = MemoryKV(capacity=capacity)
    total = capacity + overflow
    for index in range(total):
        cache.put("guards", b"%d" % index, b"v%d" % index)
    assert len(cache) == capacity
    counters = cache.stats()["namespaces"]["guards"]
    assert counters["evictions"] == overflow
    # oldest entries went first; the newest `capacity` survive
    for index in range(overflow):
        assert cache.get("guards", b"%d" % index) is None
    for index in range(overflow, total):
        assert cache.get("guards", b"%d" % index) == b"v%d" % index
    # a get refreshes recency: the touched key survives the next eviction
    cache.get("guards", b"%d" % overflow)
    cache.put("guards", b"one-more", b"v")
    assert cache.get("guards", b"%d" % overflow) is not None
    assert cache.get("guards", b"%d" % (overflow + 1)) is None


@pytest.mark.parametrize("scheme", ["sqlite"])
@given(items=st.dictionaries(keys, values, min_size=1, max_size=8))
@settings(max_examples=10, deadline=None)
def test_two_handles_share_one_spec(scheme, items):
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{scheme}://{tmp}/shared.db"
        writer = open_kv(spec)
        reader = open_kv(writer.spec)  # the spec round-trips through stats
        try:
            writer.mput("guards", items.items())
            writer.flush()
            assert reader.mget("guards", list(items)) == list(items.values())
            assert dict(reader.scan("guards")) == items
        finally:
            writer.close()
            reader.close()


class TestOpenKv:
    def test_spec_grammar(self, tmp_path):
        assert isinstance(open_kv("memory"), MemoryKV)
        sqlite_kv = open_kv(f"sqlite://{tmp_path}/a.db")
        assert isinstance(sqlite_kv, SqliteKV)
        sqlite_kv.close()
        bare_db = open_kv(str(tmp_path / "bare.sqlite"))
        assert isinstance(bare_db, SqliteKV)
        bare_db.close()
        # a bare directory path means "sqlite inside it"
        bare_dir = open_kv(str(tmp_path / "cachedir"))
        assert isinstance(bare_dir, SqliteKV)
        assert bare_dir.spec.endswith("cache.db")
        bare_dir.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StoreError, match="redis"):
            open_kv("redis://localhost:6379")
        with pytest.raises(StoreError, match="empty"):
            open_kv("   ")

    def test_stats_render_known_namespaces(self):
        cache = MemoryKV()
        stats = cache.stats()
        assert set(stats["namespaces"]) == {"guards", "shapes", "results"}
        assert stats["backend"] == "memory"
