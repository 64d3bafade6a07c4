"""Stores holding JSON rows still attach, resume and answer identically.

Earlier builds wrote shape rows as JSON text (``encode_shape``) and guard
rows as tagged JSON (``encode_guard_key``); the store now writes binary rows
only.  These tests make such a store by hand — every shape and guard row
rewritten through ``sqlite3`` as the JSON writer laid it out — and check
that a fresh engine attaches to it, hydrates its guard rows, finds states by
reverse lookup, resumes the interrupted exploration, and answers exactly as
a fresh in-memory run.
"""

import sqlite3

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import counter_machine_family, positive_deep_family
from repro.engine import ExplorationEngine, ParallelExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted
from repro.io.serialization import (
    decode_guard_key_binary,
    decode_shape_binary,
    encode_guard_key,
    encode_shape,
)
from tests.engine.test_residency import assert_bit_identical

LIMITS = ExplorationLimits(max_states=600, max_instance_nodes=16)


def rewrite_rows_as_json(path) -> tuple[int, int]:
    """Replace every shape and guard row of the store at *path* by its JSON
    text row; returns ``(shape rows, guard rows)``."""
    conn = sqlite3.connect(path)
    shapes = conn.execute("SELECT id, shape FROM shapes").fetchall()
    guards = conn.execute("SELECT key, value FROM guards").fetchall()
    conn.executemany(
        "UPDATE shapes SET shape = ? WHERE id = ?",
        [(encode_shape(decode_shape_binary(row)), sid) for sid, row in shapes],
    )
    conn.execute("DELETE FROM guards")
    conn.executemany(
        "INSERT INTO guards (key, value) VALUES (?, ?)",
        [(encode_guard_key(decode_guard_key_binary(key)), value) for key, value in guards],
    )
    conn.commit()
    conn.close()
    return len(shapes), len(guards)


def row_types(path) -> dict:
    conn = sqlite3.connect(path)
    types = {
        table: dict(
            conn.execute(f"SELECT typeof({column}), COUNT(*) FROM {table} GROUP BY 1")
        )
        for table, column in (("shapes", "shape"), ("guards", "key"))
    }
    conn.close()
    return types


def make_json_store(path, form, step_limit: int) -> tuple[list, int]:
    """Interrupt an exploration of *form* after *step_limit* steps, then
    rewrite its store's rows as JSON; returns ``(shapes, guard rows)``."""
    first = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
    with pytest.raises(ExplorationInterrupted):
        first.explore(step_limit=step_limit)
    first.store.close()
    reader = SqliteStore(path)
    shapes = list(reader.load_shapes())
    reader.close()
    shape_rows, guard_rows = rewrite_rows_as_json(path)
    assert shape_rows == len(shapes) > 0 and guard_rows > 0
    assert row_types(path) == {
        "shapes": {"text": shape_rows},
        "guards": {"text": guard_rows},
    }
    return shapes, guard_rows


@pytest.fixture
def json_store(tmp_path):
    form = positive_deep_family(3, width=2)
    path = tmp_path / "json-rows.db"
    shapes, guard_rows = make_json_store(path, form, step_limit=100)
    return form, path, shapes, guard_rows


def test_json_rows_attach_hydrate_and_reverse_look_up(json_store):
    form, path, shapes, guard_rows = json_store
    store = SqliteStore(path)
    store.attach(form)
    assert list(store.load_shapes()) == shapes
    assert [store.get_state_id(shape) for _, shape in shapes] == [sid for sid, _ in shapes]
    assert store.id_lookup_hits == len(shapes)
    engine = ExplorationEngine(form, limits=LIMITS, store=store)
    engine.explore(resume=True)
    assert engine.stats_snapshot()["guard_entries_restored"] == guard_rows
    store.close()


def test_json_row_store_resumes_bit_identically(json_store):
    form, path, shapes, _guard_rows = json_store
    reference = ExplorationEngine(form, limits=LIMITS).explore()
    engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
    resumed = engine.explore(resume=True)
    engine.store.close()
    assert resumed.resumed is True
    assert_bit_identical(resumed, reference)
    # the old rows stay JSON; the rows the resumed run added are binary
    types = row_types(path)
    assert types["shapes"]["text"] == len(shapes)
    assert types["shapes"]["blob"] > 0


def test_json_row_store_answers_like_a_fresh_run(tmp_path):
    form = counter_machine_family(2)[0]
    path = tmp_path / "json-rows.db"
    make_json_store(path, form, step_limit=13)
    fresh = decide_completability(form, limits=LIMITS)
    stored = decide_completability(form, limits=LIMITS, store=SqliteStore(path), resume=True)
    assert stored.stats["resumed"] is True
    for key in ("decided", "answer"):
        assert getattr(stored, key) == getattr(fresh, key)
    for key in ("states_explored", "truncated", "skipped_successors"):
        assert stored.stats[key] == fresh.stats[key], key


def test_frontier_workers_hydrate_json_rows(json_store):
    form, path, _shapes, _guard_rows = json_store
    reference = ExplorationEngine(form, limits=LIMITS).explore()
    with ParallelExplorationEngine(
        form, limits=LIMITS, store=SqliteStore(path), workers=2
    ) as engine:
        graph = engine.explore(resume=True)
        assert engine.expansions_adopted > 0
        engine.store.close()
    assert_bit_identical(graph, reference)
