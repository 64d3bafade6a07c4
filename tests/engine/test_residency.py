"""Partial hydration, the resident budget, and hydration-failure semantics.

Three groups of invariants gate the bounded-residency work:

* **crash-mid-hydration** — an engine that fails while pulling a row in on
  first touch (corrupt shape row) must raise on *every* exploration, never
  silently continue against a truncated id table (the historic bug set the
  hydrated flag before restoring anything);

* **partial hydration** — attaching to a populated store restores only the
  rows the run touches, and the ids/graphs produced are bit-identical to a
  fresh in-memory exploration;

* **resident budget** — evicting representatives, shapes and memoized
  expansions mid-exploration never changes ids, transitions, flags or
  analysis answers, while the resident counters stay bounded.
"""

import sqlite3
import sys

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.analysis.semisoundness import decide_semisoundness
from repro.benchgen.families import counter_machine_family, positive_deep_family
from repro.engine import (
    ExplorationEngine,
    ParallelExplorationEngine,
    SqliteStore,
    stable_shape_hash,
)
from repro.exceptions import ReproError, SerializationError, StoreError
from repro.fbwis.catalog import leave_application
from repro.io.serialization import decode_origin, encode_instance_with_ids
from tests.engine.test_eviction_and_guided import exact_edges

BUILD_LIMITS = ExplorationLimits(max_states=1_500, max_instance_nodes=16)
TOUCH_LIMITS = ExplorationLimits(max_states=150, max_instance_nodes=16)


def assert_bit_identical(graph, reference):
    assert graph.states == reference.states
    assert exact_edges(graph) == exact_edges(reference)
    assert graph.truncated_by_states == reference.truncated_by_states
    assert graph.truncated_by_size == reference.truncated_by_size
    assert graph.truncated_by_copies == reference.truncated_by_copies


def build_store(path, form, limits=BUILD_LIMITS):
    store = SqliteStore(path)
    engine = ExplorationEngine(form, limits=limits, store=store)
    graph = engine.explore()
    store.close()
    return len(graph.states)


class TestCrashMidHydration:
    @pytest.fixture
    def no_ambient_cache(self, monkeypatch):
        """These tests pin *store* corruption semantics: a warm shared KV
        (``REPRO_CACHE``) would transparently serve the pre-corruption rows
        and the corruption would — correctly, but unhelpfully here — never
        surface."""
        from repro.cache.runtime import reset_cache_runtime

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        reset_cache_runtime()
        yield
        reset_cache_runtime()

    def test_corrupt_shape_row_raises_on_touch_and_keeps_raising(
        self, tmp_path, no_ambient_cache
    ):
        """A corrupt shape row surfaces when the run touches it (lazy
        hydration decodes on demand) — and keeps surfacing, never silently
        assigning the shape a fresh id."""
        form = counter_machine_family(2)[0]
        path = tmp_path / "corrupt-shape.db"
        build_store(path, form)
        conn = sqlite3.connect(path)
        # corrupt the initial state's row but keep its digest, so the
        # reverse lookup finds (and must decode) it on the very first intern
        conn.execute("UPDATE shapes SET shape = 'garbage' WHERE id = 0")
        conn.commit()
        conn.close()

        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=BUILD_LIMITS, store=store)
        for _ in range(2):
            with pytest.raises(ReproError):
                engine.explore()
        assert 0 not in engine.interner._shapes  # never restored a bad row
        store.close()

    @pytest.mark.parametrize(
        "damage", ["truncated", "unknown-kind", "missing-ancestor", "later-ancestor"]
    )
    def test_corrupt_origin_row_raises_on_touch_and_keeps_raising(self, tmp_path, damage):
        """A damaged origin chain surfaces as a typed error whenever a state
        whose representative derives through it is touched — never as an
        IndexError, KeyError or RecursionError, and never by deriving a
        representative from the wrong ancestor."""
        form = positive_deep_family(3, width=2)
        path = tmp_path / f"corrupt-origin-{damage}.db"
        build_store(path, form, limits=TOUCH_LIMITS)
        conn = sqlite3.connect(path)
        origins = {
            sid: decode_origin(blob)[0]
            for sid, blob in conn.execute("SELECT id, blob FROM representatives")
            if blob.startswith("[")
        }
        # a state whose origin is itself an origin row, and a child of it
        state_id = next(sid for sid, parent in sorted(origins.items()) if parent in origins)
        child_id = next(sid for sid, parent in sorted(origins.items()) if parent == state_id)
        if damage == "truncated":
            conn.execute(
                "UPDATE representatives SET blob = substr(blob, 1, length(blob) - 2) "
                "WHERE id = ?",
                (state_id,),
            )
        elif damage == "unknown-kind":
            conn.execute(
                "UPDATE representatives SET blob = ? WHERE id = ?",
                (f'[{origins[state_id]},"move",1]', state_id),
            )
        elif damage == "missing-ancestor":
            conn.execute("DELETE FROM representatives WHERE id = ?", (origins[state_id],))
        else:  # an origin naming the state's own child: a cycle
            conn.execute(
                "UPDATE representatives SET blob = ? WHERE id = ?",
                (f'[{child_id},"del",1]', state_id),
            )
        conn.commit()
        conn.close()

        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=TOUCH_LIMITS, store=store)
        for touched in (state_id, child_id, state_id):
            with pytest.raises((SerializationError, StoreError)):
                engine.representative(touched)
        assert state_id not in engine._reps and child_id not in engine._reps
        store.close()

    def test_deep_origin_chain_derives_without_recursion(self, tmp_path):
        """A fresh engine derives the deepest state of a counter machine —
        152 origin rows above its start state — under a recursion limit
        lower than that depth: the ancestor walk is a loop."""
        form = counter_machine_family(8)[0]
        limits = ExplorationLimits(max_states=251)
        path = tmp_path / "deep.db"
        build_store(path, form, limits=limits)
        conn = sqlite3.connect(path)
        rows = dict(conn.execute("SELECT id, blob FROM representatives"))
        conn.close()

        def depth(state_id):
            steps = 0
            while rows[state_id].startswith("["):
                state_id = decode_origin(rows[state_id])[0]
                steps += 1
            return steps

        deepest = max(rows, key=depth)
        assert depth(deepest) == 152
        reference = ExplorationEngine(form, limits=limits)
        reference.explore()
        expected = encode_instance_with_ids(reference.representative(deepest))

        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=limits, store=store)
        frames = 0
        frame = sys._getframe()
        while frame is not None:
            frames += 1
            frame = frame.f_back
        limit = frames + 60
        assert limit < depth(deepest)
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            derived = engine.representative(deepest)
        finally:
            sys.setrecursionlimit(previous)
            store.close()
        assert encode_instance_with_ids(derived) == expected


class TestPartialHydration:
    def test_attach_is_bit_identical_and_restores_only_touched_rows(self, tmp_path):
        form = positive_deep_family(3, width=2)
        path = tmp_path / "attach.db"
        built = build_store(path, form)

        reference = ExplorationEngine(form, limits=TOUCH_LIMITS).explore()

        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=TOUCH_LIMITS, store=store)
        assert len(engine.interner) == 0  # attaching alone still loads nothing
        graph = engine.explore()
        stats = engine.stats_snapshot()
        store.close()

        assert_bit_identical(graph, reference)
        assert stats["hydration_rows_skipped"] > 0
        restored = engine.interner.states_restored_distinct
        assert 0 < restored < built  # touched rows only, never the full table
        # len() reports assigned ids (the persisted range), not residency
        assert len(engine.interner) >= built > engine.interner.resident

    def test_untouched_rows_are_not_even_decoded(self, tmp_path):
        """Corruption in a region the run never touches goes unnoticed —
        capacity you don't touch costs nothing, not even a decode."""
        form = positive_deep_family(3, width=2)
        path = tmp_path / "cold.db"
        built = build_store(path, form)
        reference = ExplorationEngine(form, limits=TOUCH_LIMITS).explore()
        # ids are assigned in discovery order, so the highest build-run id
        # is far beyond what the touch run reaches
        conn = sqlite3.connect(path)
        conn.execute("UPDATE shapes SET shape = 'garbage' WHERE id = ?", (built - 1,))
        conn.commit()
        conn.close()

        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=TOUCH_LIMITS, store=store)
        graph = engine.explore()
        store.close()
        assert_bit_identical(graph, reference)


class TestResidentBudget:
    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_budget_bounded_attach_is_bit_identical(self, tmp_path, budget):
        form = positive_deep_family(3, width=2)
        path = tmp_path / f"budget-{budget}.db"
        build_store(path, form)
        reference = ExplorationEngine(form, limits=TOUCH_LIMITS).explore()

        store = SqliteStore(path)
        engine = ExplorationEngine(
            form, limits=TOUCH_LIMITS, store=store, resident_budget=budget
        )
        graph = engine.explore()
        stats = engine.stats_snapshot()
        store.close()

        assert_bit_identical(graph, reference)
        assert stats["reps_resident"] <= budget
        assert stats["states_resident"] <= budget
        assert stats["reps_evicted"] > 0  # the budget actually did something

    def test_evicted_derived_representatives_are_written_in_full(self, tmp_path):
        """A representative derived from an origin row is written back in
        full when the budget evicts it, so it reloads with one row read;
        states never derived keep their origin row only."""
        form = positive_deep_family(3, width=2)
        path = tmp_path / "write-back.db"
        store = SqliteStore(path)
        engine = ExplorationEngine(form, limits=TOUCH_LIMITS, store=store, resident_budget=8)
        graph = engine.explore()
        info = store.describe()
        store.close()
        conn = sqlite3.connect(path)
        rows = dict(conn.execute("SELECT id, blob FROM representatives"))
        conn.close()
        origins = {state_id for state_id, blob in rows.items() if blob.startswith("[")}
        assert (info["representatives"], info["representative_origins"]) == (
            len(rows) - len(origins),
            len(origins),
        )
        evicted = set(graph.transitions) - set(engine._reps)
        assert evicted and not evicted & origins
        never_used = set(rows) - set(graph.transitions) - set(engine._reps)
        assert never_used and never_used <= origins

    def test_budgeted_build_from_scratch_is_bit_identical(self, tmp_path):
        """Eviction during the *building* run (new states evicted and then
        re-encountered through the reverse lookup, flushed or pending) never
        perturbs the dense id assignment."""
        form = leave_application(single_period=True)
        limits = ExplorationLimits(max_states=400, max_instance_nodes=14)
        reference = ExplorationEngine(form, limits=limits).explore()

        store = SqliteStore(tmp_path / "scratch.db", batch_size=32)
        engine = ExplorationEngine(form, limits=limits, store=store, resident_budget=5)
        graph = engine.explore()
        stats = engine.stats_snapshot()
        store.close()
        assert_bit_identical(graph, reference)
        # rows this process interned and evicted come back through the store
        # fallback, but that is not *hydration* — the store was empty at
        # attach, so the hydration counters must stay untouched
        assert engine.interner.states_restored_distinct == 0
        assert stats["hydration_rows_skipped"] == 0

    def test_budgeted_parallel_attach_matches_serial(self, tmp_path):
        form = positive_deep_family(3, width=2)
        path = tmp_path / "par.db"
        build_store(path, form)
        reference = ExplorationEngine(form, limits=TOUCH_LIMITS).explore()

        store = SqliteStore(path)
        engine = ParallelExplorationEngine(
            form,
            limits=TOUCH_LIMITS,
            store=store,
            workers=2,
            min_wave=1,
            resident_budget=16,
        )
        with engine:
            graph = engine.explore()
            assert engine.states_prefetched > 0
        store.close()
        assert_bit_identical(graph, reference)

    def test_budgeted_analyses_answer_identically(self, tmp_path):
        """Completability and semi-soundness — including the re-explorations
        that replay evicted (recomputed) expansions — agree with the
        unbounded in-memory engine."""
        form = counter_machine_family(2)[0]
        limits = ExplorationLimits(max_states=400, max_instance_nodes=16)
        ref_engine = ExplorationEngine(form, limits=limits)
        ref_comp = decide_completability(form, limits=limits, engine=ref_engine)
        ref_semi = decide_semisoundness(form, limits=limits, engine=ref_engine)

        store = SqliteStore(tmp_path / "analysis.db")
        engine = ExplorationEngine(form, limits=limits, store=store, resident_budget=6)
        comp = decide_completability(form, limits=limits, engine=engine)
        semi = decide_semisoundness(form, limits=limits, engine=engine)
        store.close()
        assert (comp.decided, comp.answer) == (ref_comp.decided, ref_comp.answer)
        assert (semi.decided, semi.answer) == (ref_semi.decided, ref_semi.answer)
        assert engine.expansions_evicted > 0  # replayed expansions were recomputed

    def test_budget_requires_positive_value_and_a_persistent_store(self, tmp_path):
        form = leave_application(single_period=True)
        with pytest.raises(ReproError):
            ExplorationEngine(
                form, store=SqliteStore(tmp_path / "v.db"), resident_budget=0
            )
        with pytest.raises(ReproError):
            # the CLI rejects --resident-budget without --store; the library
            # contract must match instead of silently ignoring the budget
            ExplorationEngine(form, resident_budget=8)


class TestReverseLookup:
    def test_get_state_id_flushed_pending_and_absent(self, tmp_path):
        form = leave_application(single_period=True)
        store = SqliteStore(tmp_path / "rl.db", batch_size=1000)
        store.attach(form)
        shape_a = form.initial_instance().shape()
        instance = form.initial_instance()
        instance.add_field(instance.root, form.schema.root.children[0].label)
        shape_b = instance.shape()

        store.put_shape(0, shape_a)
        assert store.get_state_id(shape_a) == 0  # pending, unflushed
        store.flush()
        assert store.get_state_id(shape_a) == 0  # flushed
        store.put_shape(1, shape_b)
        assert store.get_state_id(shape_b) == 1  # pending next to flushed rows
        assert store.get_state_id(("no-such-label", ())) is None
        store.close()

    def test_old_store_layout_is_migrated_on_open(self, tmp_path):
        """A pre-PR-5 store (no shape_hash column) is migrated in place: the
        column is added, every row backfilled, and the reverse lookup works
        for both JSON and binary rows."""
        from repro.io.serialization import encode_shape, encode_shape_binary

        path = tmp_path / "old.db"
        json_shape = ("r", (("a", ()), ("b", ())))
        binary_shape = ("r", (("b", (("c", ()),)),))
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE shapes (id INTEGER PRIMARY KEY, shape TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO shapes (id, shape) VALUES (0, ?)", (encode_shape(json_shape),)
        )
        conn.execute(
            "INSERT INTO shapes (id, shape) VALUES (1, ?)",
            (encode_shape_binary(binary_shape),),
        )
        conn.commit()
        conn.close()

        store = SqliteStore(path)
        assert store.shape_hash_rows_migrated == 2
        assert store.get_state_id(json_shape) == 0
        assert store.get_state_id(binary_shape) == 1
        digests = dict(
            store._conn.execute("SELECT id, shape_hash FROM shapes").fetchall()
        )
        assert digests == {
            0: stable_shape_hash(json_shape),
            1: stable_shape_hash(binary_shape),
        }
        store.close()
        # a second open finds nothing left to migrate
        again = SqliteStore(path)
        assert again.shape_hash_rows_migrated == 0
        again.close()


class TestAbsentRows:
    """An absent row reads ``None`` on every read, and a row put afterwards
    is readable at once: from the write buffer, after a flush, and from the
    file after a reopen."""

    def test_absent_representative_then_put(self, tmp_path):
        path = tmp_path / "neg.db"
        store = SqliteStore(path, batch_size=1000)
        assert store.get_representative(99) is None
        assert store.get_representative(99) is None
        store.put_representative(99, "blob")
        assert store.get_representative(99) == "blob"  # unflushed
        store.flush()
        assert store.get_representative(99) == "blob"
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get_representative(99) == "blob"
        assert reopened.get_representative(98) is None
        reopened.close()

    def test_absent_shape_then_put(self, tmp_path):
        path = tmp_path / "negshape.db"
        store = SqliteStore(path, batch_size=1000)
        assert store.get_shape(42) is None
        assert store.get_shape(42) is None
        store.put_shape(42, ("r", ()))
        assert store.get_shape(42) == ("r", ())  # unflushed
        store.flush()
        assert store.get_shape(42) == ("r", ())
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get_shape(42) == ("r", ())
        assert reopened.get_shape(41) is None
        reopened.close()

    def test_row_put_as_encoding_alone_reads_back_unflushed(self, tmp_path):
        """The interner writes a row as its canonical encoding and digest,
        never the tuple: a read of the still-buffered row decodes it, and
        the reverse lookup finds it by its bytes."""
        from repro.io.serialization import encode_shape_binary

        shape = ("r", (("a", ()), ("b", (("c", ()),))))
        store = SqliteStore(tmp_path / "encoded.db", batch_size=1000)
        store.put_shape(5, None, encoded=encode_shape_binary(shape))
        assert store.get_shape(5) == shape  # unflushed
        assert store.get_state_id(shape) == 5
        store.flush()
        assert store.get_shape(5) == shape
        assert store.get_state_id(shape) == 5
        store.close()

    def test_every_read_of_a_flushed_row_goes_to_sqlite(self, tmp_path):
        """No read cache sits between the engine and the file: buffered and
        absent rows count no row read, and each read of a flushed row counts
        one."""
        store = SqliteStore(tmp_path / "reads.db", batch_size=1000)
        store.put_shape(1, ("r", ()))
        store.put_representative(1, "blob")
        store.get_shape(1)
        store.get_representative(1)
        store.get_shape(2)
        store.get_representative(2)
        assert store.rows_read == 0
        store.flush()
        for _ in range(2):
            assert store.get_shape(1) == ("r", ())
            assert store.get_representative(1) == "blob"
        assert store.rows_read == 4
        assert not any("cache" in key for key in store.stats())
        store.close()
