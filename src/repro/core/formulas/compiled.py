"""Formulas compiled to Python closures over :class:`~repro.core.tree.Node`.

:func:`repro.core.formulas.semantics.evaluate` interprets the AST: every node
visited costs an ``isinstance`` chain, and every path step builds a
generator.  The engine evaluates the same few access rules and the same
completion formula at thousands of nodes, so :func:`compile_formula` turns a
formula into a :data:`Rule` — a closure ``node -> bool`` — once, and the
closure is what runs at each node.

Paths compile in continuation-passing form.  ``compile_path(p, then)`` is a
closure that holds at ``n`` iff some ``n'`` with ``n —p→ n'`` satisfies
``then`` (``then=None`` asks only that such an ``n'`` exists):

* ``L`` becomes a loop over the children labelled ``L``;
* ``..`` becomes a check of the parent;
* ``P/Q`` compiles ``P`` with the compiled ``Q`` as its continuation;
* ``P[F]`` compiles ``P`` with "``F`` and then ``then``" as its continuation.

Nothing is materialised between steps, and a path stops at the first target
its continuation accepts.

:func:`compile_depth1` compiles a formula for the root of a depth-1 tree
instead, whose canonical state is a set of root-child labels (Lemma 4.3),
given as an ``int`` bitmask.  Every position a path can reach there is
static: the root, or the child with a given label, which is a leaf.  The
formula therefore folds, at compile time, into bit tests over the mask:

* at the root, ``L`` tests the bit of ``L`` and moves to the child ``L``;
  a label outside the schema has no bit and no target;
* at a child, ``L`` has no target and ``..`` returns to the root;
* ``..`` at the root has no target.

Conjunctions of literals merge into one masked comparison (a *cube*),
disjunctions of literals into its negation (a *clause*), negation is pushed
to the literals, and a conjunction of clauses (a CNF) or a disjunction of
cubes (a DNF) runs as one loop over ``(care, value)`` pairs.

Both compilers agree with :func:`evaluate` (on every node of every tree, and
at the root of every depth-1 instance respectively;
``tests/property/test_compiled_formula_properties.py``); :func:`evaluate`
stays the reference semantics of Definition 3.5.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.core.formulas.ast import (
    And,
    Bottom,
    Exists,
    Filter,
    Formula,
    Not,
    Or,
    Parent,
    PathExpr,
    Slash,
    Step,
    Top,
)
from repro.core.tree import Node
from repro.exceptions import FormulaError

#: A compiled formula: ``rule(node)`` is ``node ⊨ formula``.
Rule = Callable[[Node], bool]

#: A formula compiled for depth-1 states: ``predicate(mask)`` is the
#: formula's value at the root of the depth-1 tree whose root children carry
#: the labels of the bits set in ``mask``.
MaskPredicate = Callable[[int], bool]


def _always(node: Node) -> bool:
    return True


def _never(node: Node) -> bool:
    return False


def compile_formula(formula: Formula) -> Rule:
    """The closure deciding ``node ⊨ formula`` (Definition 3.5).

    Raises:
        FormulaError: on an AST node that is not part of the grammar.
    """
    if isinstance(formula, Exists):
        return compile_path(formula.path)
    if isinstance(formula, Top):
        return _always
    if isinstance(formula, Bottom):
        return _never
    if isinstance(formula, Not):
        operand = compile_formula(formula.operand)
        return lambda node: not operand(node)
    if isinstance(formula, And):
        left, right = compile_formula(formula.left), compile_formula(formula.right)
        return lambda node: left(node) and right(node)
    if isinstance(formula, Or):
        left, right = compile_formula(formula.left), compile_formula(formula.right)
        return lambda node: left(node) or right(node)
    raise FormulaError(f"cannot compile unknown formula node {formula!r}")


def compile_path(path: PathExpr, then: Optional[Rule] = None) -> Rule:
    """The closure deciding whether some target of *path* satisfies *then*.

    With ``then=None`` the closure decides whether *path* has a target at
    all, which is the value of the existence formula ``path``.

    Raises:
        FormulaError: on an AST node that is not part of the grammar.
    """
    if isinstance(path, Step):
        label = path.label
        if then is None:

            def step(node: Node) -> bool:
                for child in node.children:
                    if child.label == label:
                        return True
                return False

        else:

            def step(node: Node) -> bool:
                for child in node.children:
                    if child.label == label and then(child):
                        return True
                return False

        return step
    if isinstance(path, Slash):
        return compile_path(path.left, compile_path(path.right, then))
    if isinstance(path, Filter):
        condition = compile_formula(path.condition)
        if then is not None:
            condition = _both(condition, then)
        return compile_path(path.path, condition)
    if isinstance(path, Parent):
        if then is None:
            return lambda node: node.parent is not None

        def parent(node: Node) -> bool:
            up = node.parent
            return up is not None and then(up)

        return parent
    raise FormulaError(f"cannot compile unknown path node {path!r}")


def _both(first: Rule, second: Rule) -> Rule:
    return lambda node: first(node) and second(node)


# ---------------------------------------------------------------------- #
# depth-1 states: formulas folded into bit tests over a label bitmask
# ---------------------------------------------------------------------- #

#: Term tags.  A term is ``True``, ``False``, ``(_CUBE, care, value)`` —
#: ``mask & care == value`` — ``(_CLAUSE, care, value)`` — ``mask & care !=
#: value`` — or ``(_AND, parts)`` / ``(_OR, parts)`` over a tuple of terms.
_CUBE, _CLAUSE, _AND, _OR = "cube", "clause", "and", "or"

#: The root's position; a child's position is its label.
_ROOT = None


def compile_depth1(formula: Formula, bits: Mapping[str, int]) -> MaskPredicate:
    """The predicate deciding *formula* at the root of a depth-1 state.

    *bits* maps each root-child label of the schema to its bit in the state
    mask; labels it does not map never occur in a state.

    Raises:
        FormulaError: on an AST node that is not part of the grammar.
    """
    return _emit(_d1_formula(formula, _ROOT, bits))


def _d1_formula(formula: Formula, at, bits: Mapping[str, int]):
    """The term of *formula* evaluated at position *at*."""
    if isinstance(formula, Exists):
        reached = list(_d1_targets(formula.path, at, bits).values())
        return reached[0] if len(reached) == 1 else _disjoin(reached)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Not):
        return _negate(_d1_formula(formula.operand, at, bits))
    if isinstance(formula, (And, Or)):
        # a whole chain of one connective at once: long CNFs and DNFs are
        # nested binary nodes
        connective = type(formula)
        operands: list = []
        stack = [formula]
        while stack:
            item = stack.pop()
            if type(item) is connective:
                stack.extend((item.right, item.left))
            else:
                operands.append(item)
        terms = [_d1_formula(operand, at, bits) for operand in operands]
        return _conjoin(terms) if connective is And else _disjoin(terms)
    raise FormulaError(f"cannot compile unknown formula node {formula!r}")


def _d1_targets(path: PathExpr, at, bits: Mapping[str, int]) -> dict:
    """The positions *path* can reach from *at*, each with the term under
    which it does (never ``False``)."""
    if isinstance(path, Step):
        bit = bits.get(path.label) if at is _ROOT else None
        return {} if bit is None else {path.label: (_CUBE, bit, bit)}
    if isinstance(path, Parent):
        return {} if at is _ROOT else {_ROOT: True}
    if isinstance(path, Slash):
        routes: dict = {}
        for middle, first in _d1_targets(path.left, at, bits).items():
            for target, second in _d1_targets(path.right, middle, bits).items():
                routes.setdefault(target, []).append(_conjoin([first, second]))
        reached = {target: _disjoin(terms) for target, terms in routes.items()}
    elif isinstance(path, Filter):
        reached = {
            target: _conjoin([term, _d1_formula(path.condition, target, bits)])
            for target, term in _d1_targets(path.path, at, bits).items()
        }
    else:
        raise FormulaError(f"cannot compile unknown path node {path!r}")
    return {target: term for target, term in reached.items() if term is not False}


def _clause(care: int, value: int):
    """``mask & care != value``, as a cube when it tests a single bit."""
    if care & (care - 1) == 0:  # one bit (care is never 0 here)
        return (_CUBE, care, value ^ care)
    return (_CLAUSE, care, value)


def _negate(term):
    if term is True or term is False:
        return not term
    kind = term[0]
    if kind == _CUBE:
        return _clause(term[1], term[2])
    if kind == _CLAUSE:
        return (_CUBE, term[1], term[2])
    parts = [_negate(part) for part in term[1]]
    return _disjoin(parts) if kind == _AND else _conjoin(parts)


def _conjoin(terms: list):
    """The conjunction of *terms*: its cubes merged into one, listed first."""
    care = value = 0
    parts: list = []
    for term in _flattened(_AND, terms):
        if term is True:
            continue
        if term is False:
            return False
        if term[0] == _CUBE:
            if (term[2] ^ value) & term[1] & care:
                return False  # a bit required both set and clear
            care |= term[1]
            value |= term[2]
        else:
            parts.append(term)
    if care:
        parts.insert(0, (_CUBE, care, value))
    if not parts:
        return True
    return parts[0] if len(parts) == 1 else (_AND, tuple(parts))


def _disjoin(terms: list):
    """The disjunction of *terms*: its clauses and literals merged into one
    clause, listed first."""
    care = value = 0
    parts: list = []
    for term in _flattened(_OR, terms):
        if term is False:
            continue
        if term is True:
            return True
        kind = term[0]
        if kind == _CUBE and term[1] & (term[1] - 1) == 0:
            kind, term = _CLAUSE, (_CLAUSE, term[1], term[2] ^ term[1])  # a literal
        if kind == _CLAUSE:
            # the clauses' disjunction negates their cubes' conjunction
            if (term[2] ^ value) & term[1] & care:
                return True
            care |= term[1]
            value |= term[2]
        else:
            parts.append(term)
    if care:
        parts.insert(0, _clause(care, value))
    if not parts:
        return False
    return parts[0] if len(parts) == 1 else (_OR, tuple(parts))


def _flattened(kind: str, terms: list) -> list:
    """*terms* with the parts of each *kind* term in its place."""
    flat: list = []
    for term in terms:
        if term is not True and term is not False and term[0] == kind:
            flat.extend(term[1])
        else:
            flat.append(term)
    return flat


def _emit(term) -> MaskPredicate:
    """The closure of a term."""
    if term is True:
        return _always
    if term is False:
        return _never
    kind = term[0]
    if kind == _CUBE:
        care, value = term[1], term[2]
        return lambda mask: mask & care == value
    if kind == _CLAUSE:
        care, value = term[1], term[2]
        return lambda mask: mask & care != value
    parts = term[1]
    # a merged cube leads a conjunction, a merged clause a disjunction
    lead_kind = _CUBE if kind == _AND else _CLAUSE
    lead_care = lead_value = 0
    if parts[0][0] == lead_kind:
        lead_care, lead_value = parts[0][1], parts[0][2]
        parts = parts[1:]
    if kind == _AND and all(part[0] == _CLAUSE for part in parts):
        pairs = tuple((part[1], part[2]) for part in parts)

        def cnf(mask: int) -> bool:
            if mask & lead_care != lead_value:
                return False
            for care, value in pairs:
                if mask & care == value:
                    return False
            return True

        return cnf
    if kind == _OR and all(part[0] == _CUBE for part in parts):
        pairs = tuple((part[1], part[2]) for part in parts)

        def dnf(mask: int) -> bool:
            if mask & lead_care != lead_value:
                return True
            for care, value in pairs:
                if mask & care == value:
                    return True
            return False

        return dnf
    tests = tuple(_emit(part) for part in term[1])
    if kind == _AND:

        def conjunction(mask: int) -> bool:
            for test in tests:
                if not test(mask):
                    return False
            return True

        return conjunction

    def disjunction(mask: int) -> bool:
        for test in tests:
            if test(mask):
                return True
        return False

    return disjunction
