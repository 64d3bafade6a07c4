"""Differential properties: compiled rules against the reference semantics.

The guard cache runs formulas compiled to closures over nodes, and depth-1
guards compiled to predicates over a state's label bitmask
(:mod:`repro.core.formulas.compiled`).  Both must agree with
:func:`repro.core.formulas.semantics.evaluate` (Definition 3.5) on the
instances the reference is defined over.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import depth1_label_bits, depth1_state_to_instance
from repro.core.formulas.ast import (
    And,
    Bottom,
    Exists,
    Filter,
    Not,
    Or,
    Parent,
    Slash,
    Step,
    Top,
)
from repro.core.formulas.compiled import compile_depth1, compile_formula, compile_path
from repro.core.formulas.parser import parse_formula
from repro.core.formulas.semantics import evaluate, path_targets
from repro.core.schema import Schema
from repro.exceptions import FormulaError

from .strategies import PROPERTY_LABELS, formulas, instances, path_expressions

# no pinned example budget: the default profile runs 100 examples, CI's
# ``--hypothesis-profile=ci`` job 400
SETTINGS = settings(deadline=None)

DEPTH1_LABELS = ["a", "b", "c", "d", "e"]


def grammar_paths(labels=PROPERTY_LABELS):
    """Paths over the whole grammar, including shapes the concrete syntax
    cannot write: right-nested ``/`` and filters on composite paths."""
    atoms = st.one_of(st.builds(Step, st.sampled_from(labels)), st.just(Parent()))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Slash, inner, inner),
            st.builds(Filter, inner, grammar_formulas(labels, inner)),
        ),
        max_leaves=6,
    )


def grammar_formulas(labels=PROPERTY_LABELS, paths=None):
    """Formulas over the whole grammar, ``true`` and ``false`` included."""
    paths = paths if paths is not None else st.builds(Step, st.sampled_from(labels))
    atoms = st.one_of(st.builds(Exists, paths), st.just(Top()), st.just(Bottom()))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Not, inner), st.builds(And, inner, inner), st.builds(Or, inner, inner)
        ),
        max_leaves=4,
    )


class TestCompiledFormulas:
    @SETTINGS
    @given(formula=formulas(), instance=instances())
    def test_compiled_equals_reference_at_every_node(self, formula, instance):
        rule = compile_formula(formula)
        for node in instance.nodes():
            assert rule(node) == evaluate(node, formula)

    @SETTINGS
    @given(formula=grammar_formulas(paths=grammar_paths()), instance=instances())
    def test_whole_grammar_equals_reference_at_every_node(self, formula, instance):
        rule = compile_formula(formula)
        for node in instance.nodes():
            assert rule(node) == evaluate(node, formula)

    @SETTINGS
    @given(
        left=path_expressions(),
        right=path_expressions(),
        condition=formulas(depth=1),
        instance=instances(),
    )
    def test_nested_slash_and_filtered_composite_paths(self, left, right, condition, instance):
        for path in (Slash(left, right), Slash(right, left), Filter(Slash(left, right), condition)):
            rule = compile_formula(Exists(path))
            for node in instance.nodes():
                assert rule(node) == evaluate(node, Exists(path))

    @SETTINGS
    @given(path=grammar_paths(), condition=formulas(depth=1), instance=instances())
    def test_path_continuation_sees_exactly_the_targets(self, path, condition, instance):
        # compile_path(p, then) holds iff some target of p satisfies then
        rule = compile_path(path, compile_formula(condition))
        for node in instance.nodes():
            expected = any(evaluate(target, condition) for target in path_targets(node, path))
            assert rule(node) == expected


class TestDepth1Masks:
    #: "z" is outside the schema: a step to it has no target
    LABELS = DEPTH1_LABELS + ["z"]

    @SETTINGS
    @given(
        state=st.frozensets(st.sampled_from(DEPTH1_LABELS)),
        formula=grammar_formulas(LABELS, grammar_paths(LABELS)),
    )
    def test_mask_predicate_answers_like_the_instance_root(self, state, formula):
        schema = Schema.from_dict({label: {} for label in DEPTH1_LABELS})
        bits = depth1_label_bits(schema)
        mask = sum(bits[label] for label in state)
        instance = depth1_state_to_instance(schema, state)
        assert compile_depth1(formula, bits)(mask) == evaluate(instance.root, formula)

    @SETTINGS
    @given(
        state=st.frozensets(st.sampled_from(DEPTH1_LABELS)),
        formula=formulas(labels=DEPTH1_LABELS, depth=4),
    )
    def test_long_connective_chains_answer_like_the_instance_root(self, state, formula):
        # deeper And/Or nesting than the whole-grammar strategy reaches: the
        # chains the compiler merges into one CNF or DNF loop
        schema = Schema.from_dict({label: {} for label in DEPTH1_LABELS})
        bits = depth1_label_bits(schema)
        mask = sum(bits[label] for label in state)
        instance = depth1_state_to_instance(schema, state)
        assert compile_depth1(formula, bits)(mask) == evaluate(instance.root, formula)

    @pytest.mark.parametrize(
        "text",
        [
            "a | b | (c & d)",  # a DNF led by a merged clause
            "a & !b & (c | d) & (!d | e)",  # a CNF led by a merged cube
            "(a & b) | (!a & c) | (b & !c & d)",
            "!((a | b) & (c | !d)) | e",
            "a & !a",
            "(a | !a) & (b | c)",
            "z | (a & z)",
        ],
    )
    def test_merged_forms_answer_like_the_instance_root_on_every_state(self, text):
        schema = Schema.from_dict({label: {} for label in DEPTH1_LABELS})
        bits = depth1_label_bits(schema)
        formula = parse_formula(text)
        predicate = compile_depth1(formula, bits)
        for mask in range(1 << len(DEPTH1_LABELS)):
            state = frozenset(label for label, bit in bits.items() if mask & bit)
            instance = depth1_state_to_instance(schema, state)
            assert predicate(mask) == evaluate(instance.root, formula), (text, sorted(state))


class TestCompileErrors:
    def test_unknown_formula_node_is_rejected(self):
        with pytest.raises(FormulaError):
            compile_formula(Step("a"))

    def test_unknown_path_node_is_rejected(self):
        with pytest.raises(FormulaError):
            compile_path(Top())

    def test_unknown_nodes_are_rejected_by_the_mask_compiler(self):
        with pytest.raises(FormulaError):
            compile_depth1(Step("a"), {"a": 1})
        with pytest.raises(FormulaError):
            compile_depth1(Exists(Top()), {"a": 1})
