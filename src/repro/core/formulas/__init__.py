"""The formula language of Definition 3.4 (an abbreviated-XPath fragment).

Sub-modules:

* :mod:`repro.core.formulas.ast` — the abstract syntax tree;
* :mod:`repro.core.formulas.parser` — the concrete-syntax parser;
* :mod:`repro.core.formulas.semantics` — the evaluation relation of Def. 3.5;
* :mod:`repro.core.formulas.compiled` — formulas compiled to closures over
  tree nodes (the engine's guard evaluation);
* :mod:`repro.core.formulas.normalize` — the rewriting rules of Lemma 4.4;
* :mod:`repro.core.formulas.builders` — a small construction DSL;
* :mod:`repro.core.formulas.satisfiability` — satisfiability procedures
  (Corollary 4.5).
"""

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
from repro.core.formulas.builders import (
    child_path,
    conj,
    disj,
    iff,
    implies,
    label,
    lnot,
    parent_path,
    path,
    to_formula,
    up,
)
from repro.core.formulas.parser import parse_formula
from repro.core.formulas.semantics import evaluate, path_targets

__all__ = [
    "And",
    "Bottom",
    "Exists",
    "Filter",
    "Formula",
    "Not",
    "Or",
    "Parent",
    "PathExpr",
    "Slash",
    "Step",
    "Top",
    "child_path",
    "conj",
    "disj",
    "iff",
    "implies",
    "label",
    "lnot",
    "parent_path",
    "path",
    "to_formula",
    "up",
    "parse_formula",
    "evaluate",
    "path_targets",
]
