"""Stores written by earlier builds still attach, resume and answer identically.

Earlier builds wrote shape rows as JSON text (``encode_shape``); the store
now writes binary rows only.  These tests make such a store by hand — every
shape row rewritten through ``sqlite3`` as the JSON writer laid it out — and
check that a fresh engine attaches to it, finds states by reverse lookup,
resumes the interrupted exploration, and answers exactly as a fresh
in-memory run.

Earlier builds also wrote a full representative row for every state they
interned; the store now writes most states' origin only.  A store whose
every representative row is rewritten in full resumes bit-identically too.

Earlier builds also persisted guard evaluations in a ``guards`` table, as
tagged JSON or binary rows.  The store no longer creates that table, and
never reads it when a store carries one: whatever its rows hold, a resumed
run evaluates exactly the guards a run on the same store without the table
does.
"""

import io
import shutil
import sqlite3

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import counter_machine_family, positive_deep_family
from repro.cli import main
from repro.engine import ExplorationEngine, ParallelExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted
from repro.io.serialization import (
    decode_shape_binary,
    encode_instance_with_ids,
    encode_shape,
)
from tests.engine.test_residency import assert_bit_identical

LIMITS = ExplorationLimits(max_states=600, max_instance_nodes=16)


def rewrite_shape_rows_as_json(path) -> int:
    """Replace every shape row of the store at *path* by its JSON text row;
    returns the number of rows."""
    conn = sqlite3.connect(path)
    shapes = conn.execute("SELECT id, shape FROM shapes").fetchall()
    conn.executemany(
        "UPDATE shapes SET shape = ? WHERE id = ?",
        [(encode_shape(decode_shape_binary(row)), sid) for sid, row in shapes],
    )
    conn.commit()
    conn.close()
    return len(shapes)


def shape_row_types(path) -> dict:
    conn = sqlite3.connect(path)
    types = dict(conn.execute("SELECT typeof(shape), COUNT(*) FROM shapes GROUP BY 1"))
    conn.close()
    return types


def interrupted_store(path, form, step_limit: int) -> list:
    """Interrupt an exploration of *form* after *step_limit* steps; returns
    the persisted ``(state id, shape)`` rows."""
    first = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
    with pytest.raises(ExplorationInterrupted):
        first.explore(step_limit=step_limit)
    first.store.close()
    reader = SqliteStore(path)
    shapes = list(reader.load_shapes())
    reader.close()
    return shapes


def make_json_store(path, form, step_limit: int) -> list:
    """:func:`interrupted_store`, with its shape rows rewritten as JSON."""
    shapes = interrupted_store(path, form, step_limit)
    shape_rows = rewrite_shape_rows_as_json(path)
    assert shape_rows == len(shapes) > 0
    assert shape_row_types(path) == {"text": shape_rows}
    return shapes


@pytest.fixture
def json_store(tmp_path):
    form = positive_deep_family(3, width=2)
    path = tmp_path / "json-rows.db"
    shapes = make_json_store(path, form, step_limit=100)
    return form, path, shapes


def test_json_rows_attach_hydrate_and_reverse_look_up(json_store):
    form, path, shapes = json_store
    store = SqliteStore(path)
    store.attach(form)
    assert list(store.load_shapes()) == shapes
    assert [store.get_state_id(shape) for _, shape in shapes] == [sid for sid, _ in shapes]
    assert store.id_lookup_hits == len(shapes)
    engine = ExplorationEngine(form, limits=LIMITS, store=store)
    assert engine.explore(resume=True).resumed is True
    store.close()


def test_json_row_store_resumes_bit_identically(json_store):
    form, path, shapes = json_store
    reference = ExplorationEngine(form, limits=LIMITS).explore()
    engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
    resumed = engine.explore(resume=True)
    engine.store.close()
    assert resumed.resumed is True
    assert_bit_identical(resumed, reference)
    # the old rows stay JSON; the rows the resumed run added are binary
    types = shape_row_types(path)
    assert types["text"] == len(shapes)
    assert types["blob"] > 0


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
    form, path, _shapes = json_store
    reference = ExplorationEngine(form, limits=LIMITS).explore()
    with ParallelExplorationEngine(
        form, limits=LIMITS, store=SqliteStore(path), workers=2
    ) as engine:
        graph = engine.explore(resume=True)
        assert engine.expansions_adopted > 0
        engine.store.close()
    assert_bit_identical(graph, reference)


#: One row of each kind the ``guards`` table of an earlier build could hold:
#: the key ``("phi", 0)`` (completion of state 0) as tagged JSON and in the
#: binary term codec, both with the value ``True``, and a row of neither
#: format.
LEGACY_GUARD_ROWS = [
    ('["t","phi",0]', 1),
    (b"\x01\x05\x02\x04\x03phi\x03\x00", 1),
    (b"\xffnot a guard row", 0),
]


def test_legacy_guard_table_is_never_read(tmp_path):
    form = positive_deep_family(3, width=2)
    path = tmp_path / "legacy.db"
    twin = tmp_path / "twin.db"
    interrupted_store(path, form, step_limit=100)
    shutil.copy(path, twin)
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE guards (key TEXT PRIMARY KEY, value INTEGER NOT NULL)")
    conn.executemany("INSERT INTO guards (key, value) VALUES (?, ?)", LEGACY_GUARD_ROWS)
    conn.commit()
    conn.close()

    out = io.StringIO()
    assert main(["store", "info", str(path)], out=out) == 0
    assert "interned shapes" in out.getvalue()

    reference = ExplorationEngine(form, limits=LIMITS).explore()
    misses = []
    for store_path in (path, twin):
        engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(store_path))
        resumed = engine.explore(resume=True)
        assert resumed.resumed is True
        assert_bit_identical(resumed, reference)
        # probes ("phi", 0) among the rest: a read row would serve it
        assert resumed.complete_states() == reference.complete_states()
        engine.store.close()
        misses.append(engine.stats_snapshot()["guard_cache_misses"])
    assert misses[0] == misses[1] > 0

    # the table is left exactly as it was
    conn = sqlite3.connect(path)
    assert conn.execute("SELECT key, value FROM guards").fetchall() == LEGACY_GUARD_ROWS
    conn.close()


def rewrite_representative_rows_in_full(path, form) -> int:
    """Replace every representative row of the store at *path* — origins
    included — by the full encoding of the state's representative, as
    earlier builds laid the table out; returns the number of rows."""
    conn = sqlite3.connect(path)
    ids = [sid for (sid,) in conn.execute("SELECT id FROM representatives")]
    store = SqliteStore(path)
    engine = ExplorationEngine(form, limits=LIMITS, store=store)
    rows = [(encode_instance_with_ids(engine.representative(sid)), sid) for sid in ids]
    store.close()
    conn.executemany("UPDATE representatives SET blob = ? WHERE id = ?", rows)
    conn.commit()
    conn.close()
    return len(rows)


def test_full_representative_rows_resume_bit_identically(tmp_path):
    form = positive_deep_family(3, width=2)
    path = tmp_path / "full-rows.db"
    shapes = interrupted_store(path, form, step_limit=100)
    store = SqliteStore(path)
    info = store.describe()
    store.close()
    # only the start state has a full row; every other state its origin
    assert info["representatives"] == 1
    assert info["representative_origins"] == len(shapes) - 1

    rows = rewrite_representative_rows_in_full(path, form)
    assert rows == len(shapes)
    out = io.StringIO()
    assert main(["store", "info", str(path)], out=out) == 0
    assert f"representatives (full): {rows}" in out.getvalue()
    assert "origins (derivable)   : 0" in out.getvalue()

    reference_engine = ExplorationEngine(form, limits=LIMITS)
    reference = reference_engine.explore()
    engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
    resumed = engine.explore(resume=True)
    try:
        assert resumed.resumed is True
        assert_bit_identical(resumed, reference)
        for state_id in sorted(reference.states):
            assert encode_instance_with_ids(
                engine.representative(state_id)
            ) == encode_instance_with_ids(reference_engine.representative(state_id))
    finally:
        engine.store.close()
