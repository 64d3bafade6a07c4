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
its continuation accepts.  The value equals :func:`evaluate`'s at every node
of every tree (``tests/property/test_compiled_formula_properties.py``);
:func:`evaluate` stays the reference semantics of Definition 3.5.
"""

from __future__ import annotations

from typing import Callable, Optional

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
