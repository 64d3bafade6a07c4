"""Hypothesis properties of the persistent state store.

Two invariants gate the store:

* **round-trip identity** — persisting and re-loading a shape (or a
  representative instance) is the identity up to tree isomorphism, and the
  id-preserving instance codec is the identity on node ids as well; a
  state's origin row round-trips exactly, is never mistaken for a full
  representative row, and any malformed row is rejected with
  :class:`~repro.exceptions.SerializationError`;

* **id stability** — however persists, flushes and re-opens interleave, an
  interner backed by the store never changes the id it assigns to a shape.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guarded_form import Addition, Deletion
from repro.core.instance import Instance
from repro.engine import ExplorationEngine, ShapeInterner, SqliteStore
from repro.engine.store import exploration_run_key
from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import counter_machine_family
from repro.exceptions import SerializationError
from repro.io.serialization import (
    decode_instance_with_ids,
    decode_origin,
    decode_representative_row,
    decode_shape,
    encode_instance_with_ids,
    encode_origin,
    encode_shape,
)

from tests.engine.test_eviction_and_guided import exact_edges as _exact_edges
from tests.property.strategies import instances, property_schema


# --------------------------------------------------------------------------- #
# round-trip identity
# --------------------------------------------------------------------------- #


@given(instance=instances())
def test_shape_roundtrip_is_identity_up_to_isomorphism(instance):
    shape = instance.shape()
    decoded = decode_shape(encode_shape(shape))
    assert decoded == shape
    # equal shapes <=> isomorphic trees, so materialising the decoded shape
    # gives a tree isomorphic to the original instance
    rebuilt = Instance.from_shape(instance.schema, decoded)
    assert rebuilt.is_isomorphic_to(instance)


@given(instance=instances())
def test_representative_roundtrip_preserves_node_ids(instance):
    decoded = decode_instance_with_ids(
        encode_instance_with_ids(instance), instance.schema
    )
    assert decoded.is_isomorphic_to(instance)
    assert {n.node_id for n in decoded.nodes()} == {n.node_id for n in instance.nodes()}
    assert decoded.next_node_id() == instance.next_node_id()
    for node in instance.nodes():
        assert decoded.node(node.node_id).label == node.label


node_ids = st.integers(min_value=0, max_value=2**40)
updates = st.one_of(
    st.builds(Addition, node_ids, st.text(max_size=12)),
    st.builds(Deletion, node_ids),
)


@given(parent_id=node_ids, update=updates, instance=instances())
def test_origin_rows_roundtrip_and_never_read_as_representatives(parent_id, update, instance):
    row = encode_origin(parent_id, update)
    assert decode_origin(row) == (parent_id, update)
    assert decode_representative_row(row, instance.schema) == (parent_id, update)
    full = encode_instance_with_ids(instance)
    decoded = decode_representative_row(full, instance.schema)
    assert isinstance(decoded, Instance)
    assert encode_instance_with_ids(decoded) == full


@given(parent_id=node_ids, update=updates, data=st.data())
def test_truncated_origin_rows_are_rejected(parent_id, update, data):
    row = encode_origin(parent_id, update)
    cut = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
    with pytest.raises(SerializationError):
        decode_origin(row[:cut])


@given(
    parent_id=node_ids,
    update=updates,
    bad=st.sampled_from(
        [
            lambda p, body: [p, "move", *body[1:]],  # unknown update kind
            lambda p, body: [p, *body, 0],  # extra field
            lambda p, body: [p, *body[:-1]],  # missing field
            lambda p, body: [-1 - p, *body],  # negative parent id
            lambda p, body: [str(p), *body],  # parent id of the wrong type
            lambda p, body: [float(p), *body],
            lambda p, body: [p, body[0], str(body[1]), *body[2:]],  # node id of the wrong type
            lambda p, body: [p, body[0], True, *body[2:]],
            lambda p, body: {"parent": p, "update": body},  # not an array
            lambda p, body: [],
        ]
    ),
)
def test_malformed_origin_rows_are_rejected(parent_id, update, bad):
    body = json.loads(encode_origin(parent_id, update))[1:]
    with pytest.raises(SerializationError):
        decode_origin(json.dumps(bad(parent_id, body)))


@given(text=st.text(max_size=40))
def test_arbitrary_origin_text_decodes_or_raises_the_typed_error(text):
    try:
        parent_id, update = decode_origin(text)
    except SerializationError:
        return
    assert decode_origin(encode_origin(parent_id, update)) == (parent_id, update)


@given(instance=instances())
def test_persisted_shape_rows_roundtrip_through_sqlite(tmp_path_factory, instance):
    path = tmp_path_factory.mktemp("store") / "roundtrip.db"
    store = SqliteStore(path, batch_size=1000)
    shape = instance.shape()
    store.put_shape(0, shape)
    assert store.get_shape(0) == shape  # from the write buffer
    store.flush()
    assert store.get_shape(0) == shape  # from sqlite
    store.close()
    # a cold read from the reopened file must also reproduce the shape
    reopened = SqliteStore(path)
    assert reopened.get_shape(0) == shape
    reopened.close()


@given(
    instance=instances(),
    limits=st.tuples(
        st.integers(min_value=1, max_value=10**7),
        st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    ),
    strategy=st.sampled_from(["bfs", "dfs", "guided"]),
    stop=st.booleans(),
)
def test_run_keys_identify_exploration_parameters(instance, limits, strategy, stop):
    exploration_limits = ExplorationLimits(*limits)
    key = exploration_run_key(instance.shape(), exploration_limits, strategy, stop)
    again = exploration_run_key(instance.shape(), exploration_limits, strategy, stop)
    assert key == again
    other = exploration_run_key(instance.shape(), exploration_limits, strategy, not stop)
    assert key != other


# --------------------------------------------------------------------------- #
# interner-id stability under persist/evict interleavings
# --------------------------------------------------------------------------- #


@given(
    copies=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=10),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["intern", "evict", "flush", "reopen", "reintern"]),
            st.integers(0, 9),
        ),
        max_size=25,
    ),
)
@settings(deadline=None, max_examples=50)
def test_interleaved_persist_evict_never_changes_interner_ids(
    tmp_path_factory, copies, ops
):
    """Whatever order shapes are interned, evicted from the interner,
    flushed, re-opened and re-interned in, the id an interned shape got the
    first time is the id it keeps — and the store always serves back an
    equal shape, from its write buffer or from sqlite."""
    schema = property_schema()
    labels = [child.label for child in schema.root.children]
    pool = []
    for index, copy_count in enumerate(copies):
        instance = Instance.empty(schema)
        for label_index in range(index % len(labels) + 1):
            for _ in range(copy_count + 1):
                instance.add_field(instance.root, labels[label_index])
        pool.append(instance.shape())

    path = tmp_path_factory.mktemp("store") / "stability.db"

    def attach():
        # a fresh process's view: a new store and an interner bound to the
        # persisted id range, holding no row resident
        store = SqliteStore(path, batch_size=3)
        interner = ShapeInterner(store=store)
        max_id = store.max_state_id()
        if max_id is not None:
            interner.bind_persisted(max_id, store.shape_row_count())
        return store, interner

    store, interner = attach()
    assigned: dict = {}
    for op, raw_index in ops:
        shape = pool[raw_index % len(pool)]
        if op == "flush":
            store.flush()
            continue
        if op == "evict":
            # later touches read the evicted rows back from the store
            interner.evict_states(keep=raw_index % 3)
            continue
        if op == "reopen":
            store.close()
            store, interner = attach()
            continue
        state_id, is_new = interner.state_id(shape)
        if shape in assigned:
            assert not is_new
            assert state_id == assigned[shape], "interner id changed"
        else:
            assert is_new
            assigned[shape] = state_id
    for shape, state_id in assigned.items():
        assert store.get_shape(state_id) == shape
    store.flush()
    for shape, state_id in assigned.items():
        assert interner.state_id(shape) == (state_id, False)
        assert store.get_shape(state_id) == shape
    # a fresh interner hydrated from the store reproduces every id
    rehydrated = ShapeInterner()
    for state_id, shape in store.load_shapes():
        rehydrated.restore(state_id, shape)
    for shape, state_id in assigned.items():
        assert rehydrated.state_id(shape) == (state_id, False)
    store.close()


@given(evict_keep=st.integers(min_value=0, max_value=30))
@settings(deadline=None, max_examples=15)
def test_engine_representative_eviction_is_transparent(tmp_path_factory, evict_keep):
    """Evicting resident representatives mid-life never changes ids, shapes
    or the answers derived from reloaded representatives."""
    form, _ = counter_machine_family(1)
    limits = ExplorationLimits(max_states=120, max_instance_nodes=12)
    reference = ExplorationEngine(form, limits=limits).explore()

    path = tmp_path_factory.mktemp("store") / "evict.db"
    engine = ExplorationEngine(form, limits=limits, store=SqliteStore(path))
    graph = engine.explore()
    evicted = engine.evict_representatives(keep=evict_keep)
    assert evicted >= 0
    assert graph.states == reference.states
    assert {graph.shape_of(s) for s in graph.states} == {
        reference.shape_of(s) for s in reference.states
    }
    for state_id in sorted(graph.states):
        rep = engine.representative(state_id)  # transparently reloaded
        assert rep.shape() == graph.shape_of(state_id)
    engine.store.close()


# --------------------------------------------------------------------------- #
# partial hydration and budget eviction never change ids or answers
# --------------------------------------------------------------------------- #


@given(
    budget=st.integers(min_value=1, max_value=40),
    touch_states=st.integers(min_value=5, max_value=80),
)
@settings(deadline=None, max_examples=12)
def test_partial_hydration_and_budget_eviction_preserve_bit_identity(
    tmp_path_factory, budget, touch_states
):
    """For any budget and any touch size, a budget-bounded attach to a
    populated store produces exactly the graph — interner ids included — of a
    fresh, fully-resident in-memory engine."""
    form, _ = counter_machine_family(1)
    build_limits = ExplorationLimits(max_states=200, max_instance_nodes=12)
    touch_limits = ExplorationLimits(max_states=touch_states, max_instance_nodes=12)
    path = tmp_path_factory.mktemp("store") / "hydration.db"

    build_store = SqliteStore(path)
    ExplorationEngine(form, limits=build_limits, store=build_store).explore()
    build_store.close()

    reference = ExplorationEngine(form, limits=touch_limits).explore()

    store = SqliteStore(path, batch_size=16)
    engine = ExplorationEngine(
        form, limits=touch_limits, store=store, resident_budget=budget
    )
    graph = engine.explore()
    assert len(engine._reps) <= budget  # enforced at the last expansion
    assert graph.states == reference.states
    assert _exact_edges(graph) == _exact_edges(reference)
    assert graph.truncated == reference.truncated
    for state_id in reference.states:  # ids resolve to the same shapes
        assert engine.interner.shape_of(state_id) == reference.shape_of(state_id)
    store.close()


@given(budget=st.integers(min_value=1, max_value=30))
@settings(deadline=None, max_examples=10)
def test_budget_eviction_preserves_analysis_answers(tmp_path_factory, budget):
    """Whatever the budget, a store-backed completability analysis answers
    exactly like the unbounded in-memory engine."""
    from repro.analysis.completability import decide_completability

    form, _ = counter_machine_family(1)
    limits = ExplorationLimits(max_states=120, max_instance_nodes=12)
    reference = decide_completability(form, limits=limits)

    path = tmp_path_factory.mktemp("store") / "answers.db"
    store = SqliteStore(path, batch_size=8)
    engine = ExplorationEngine(form, limits=limits, store=store, resident_budget=budget)
    result = decide_completability(form, limits=limits, engine=engine)
    assert (result.decided, result.answer) == (reference.decided, reference.answer)
    assert engine.stats_snapshot()["reps_resident"] <= max(budget, 1)
    store.close()
