"""Guarded forms (Definition 3.11, Example 3.12).

A guarded form is a tuple ``(M, A, I0, φ)`` of a schema, an access-rule
function, an initial instance and a completion formula.  The only updates on
instances are the addition and the deletion of leaf edges; an update is
*allowed* when the corresponding access rule is true at the parent node of the
edge in the current instance.

:class:`GuardedForm` bundles the four components and implements the update
semantics: enumerating the enabled updates of an instance, applying updates,
and checking the completion formula.  Runs (sequences of allowed updates) are
handled by :mod:`repro.core.runs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.core.access import AccessRight, RuleTable
from repro.core.formulas.ast import Formula
from repro.core.formulas.parser import parse_formula
from repro.core.formulas.semantics import evaluate
from repro.core.instance import Instance
from repro.core.schema import Schema, format_schema_path
from repro.core.tree import Node
from repro.exceptions import InstanceError, UpdateNotAllowedError


@dataclass(frozen=True)
class Addition:
    """Addition of a new leaf with *label* under the node with *parent_id*."""

    parent_id: int
    label: str

    def describe(self, instance: Instance) -> str:
        """Human-readable description relative to *instance*."""
        parent = instance.node(self.parent_id)
        where = format_schema_path(parent.label_path())
        return f"add {self.label} under {where}"


@dataclass(frozen=True)
class Deletion:
    """Deletion of the leaf node with *node_id*."""

    node_id: int

    def describe(self, instance: Instance) -> str:
        """Human-readable description relative to *instance*."""
        node = instance.node(self.node_id)
        return f"delete {format_schema_path(node.label_path())}"


Update = Union[Addition, Deletion]


class GuardedForm:
    """A guarded form ``(M, A, I0, φ)``.

    Args:
        schema: the schema ``M``.
        rules: the access-rule function ``A`` (a :class:`RuleTable` bound to
            the same schema).
        initial_instance: the initial instance ``I0`` (defaults to the
            instance consisting of just the root).
        completion: the completion formula ``φ`` (a formula or concrete
            syntax string), evaluated at the root.
        name: an optional human-readable name used in reports.

    A built form is never edited: its name is read-only, and its schema and
    rule table must not change after construction.  One form object
    therefore serves every analysis that resolves the same inline form
    (:func:`repro.catalog.resolve_form`), and it carries its own
    :func:`~repro.io.serialization.form_fingerprint` once computed.
    """

    def __init__(
        self,
        schema: Schema,
        rules: RuleTable,
        completion: "Formula | str",
        initial_instance: Optional[Instance] = None,
        name: str = "guarded form",
    ) -> None:
        if rules.schema is not schema:
            # allow structurally identical schemas as a convenience
            if rules.schema.shape() != schema.shape():
                raise InstanceError(
                    "the rule table is bound to a different schema than the "
                    "guarded form"
                )
        schema.validate()
        self._schema = schema
        self._rules = rules
        self._completion = parse_formula(completion)
        if initial_instance is None:
            initial_instance = Instance.empty(schema)
        initial_instance.validate()
        self._initial = initial_instance.copy()
        self._name = name
        #: the form's fingerprint, filled in by its first
        #: :func:`repro.io.serialization.form_fingerprint` call
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # components
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """The human-readable name used in reports (read-only)."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The schema ``M``."""
        return self._schema

    @property
    def rules(self) -> RuleTable:
        """The access-rule function ``A``."""
        return self._rules

    @property
    def completion(self) -> Formula:
        """The completion formula ``φ``."""
        return self._completion

    def initial_instance(self) -> Instance:
        """A fresh copy of the initial instance ``I0``."""
        return self._initial.copy()

    def with_completion(self, completion: "Formula | str", name: Optional[str] = None) -> "GuardedForm":
        """A guarded form identical to this one but with another completion
        formula — handy for invariant checking (Section 3.5) and for the
        completion-formula variations discussed around Example 3.12."""
        return GuardedForm(
            self._schema,
            self._rules,
            completion,
            self._initial.copy(),
            name=name or self.name,
        )

    def with_initial_instance(self, instance: Instance, name: Optional[str] = None) -> "GuardedForm":
        """A guarded form identical to this one but started from *instance*
        (the semi-soundness problem quantifies over such restarts)."""
        return GuardedForm(
            self._schema,
            self._rules,
            self._completion,
            instance.copy(),
            name=name or self.name,
        )

    # ------------------------------------------------------------------ #
    # update semantics (Section 3.4)
    # ------------------------------------------------------------------ #

    def is_addition_allowed(self, instance: Instance, parent: "Node | int", label: str) -> bool:
        """Whether adding a *label* leaf under *parent* is allowed by ``A``.

        The rule ``A(add, ê)`` is evaluated at the parent node ``n`` of the
        new edge, in the current instance.
        """
        parent_node = instance.node(parent if isinstance(parent, int) else parent.node_id)
        edge_path = parent_node.label_path() + (label,)
        if not self._schema.has_path(edge_path):
            return False
        rule = self._rules.rule(AccessRight.ADD, edge_path)
        return evaluate(parent_node, rule)

    def is_deletion_allowed(self, instance: Instance, node: "Node | int") -> bool:
        """Whether deleting the leaf *node* is allowed by ``A``.

        The rule ``A(del, ê)`` is evaluated at the parent node of the deleted
        edge.  Non-leaf nodes and the root can never be deleted.
        """
        target = instance.node(node if isinstance(node, int) else node.node_id)
        if target.is_root() or not target.is_leaf():
            return False
        rule = self._rules.rule(AccessRight.DEL, target.label_path())
        assert target.parent is not None
        return evaluate(target.parent, rule)

    def is_update_allowed(self, instance: Instance, update: Update) -> bool:
        """Whether *update* is allowed on *instance*."""
        if isinstance(update, Addition):
            if not instance.has_node(update.parent_id):
                return False
            return self.is_addition_allowed(instance, update.parent_id, update.label)
        if not instance.has_node(update.node_id):
            return False
        return self.is_deletion_allowed(instance, update.node_id)

    def enabled_updates(self, instance: Instance) -> list[Update]:
        """All updates allowed on *instance*.

        Additions are enumerated per (node, schema child label) pair; note
        that applying the same addition twice produces two same-label
        siblings, which the paper's instances permit.
        """
        updates: list[Update] = []
        for node in instance.nodes():
            schema_node = self._schema.node_at(node.label_path())
            for schema_child in schema_node.children:
                if self.is_addition_allowed(instance, node, schema_child.label):
                    updates.append(Addition(node.node_id, schema_child.label))
            if not node.is_root() and node.is_leaf():
                if self.is_deletion_allowed(instance, node):
                    updates.append(Deletion(node.node_id))
        return updates

    def iter_enabled_additions(self, instance: Instance) -> Iterator[Addition]:
        """The enabled additions only (used by the saturation procedure of
        Theorem 5.5)."""
        for update in self.enabled_updates(instance):
            if isinstance(update, Addition):
                yield update

    def apply(self, instance: Instance, update: Update, in_place: bool = False) -> Instance:
        """Apply *update* to *instance* and return the resulting instance.

        Raises:
            UpdateNotAllowedError: when the access rules forbid the update.
            InstanceError: when the update is structurally impossible.
        """
        if not self.is_update_allowed(instance, update):
            raise UpdateNotAllowedError(
                f"update {update} is not allowed on the given instance"
            )
        return self.apply_unchecked(instance, update, in_place=in_place)

    def apply_unchecked(self, instance: Instance, update: Update, in_place: bool = False) -> Instance:
        """Apply *update* without consulting the access rules.

        The structural constraints (schema conformance, leaf-only deletion)
        are still enforced.  Used by the state-space explorers which check
        allowedness separately, and by tests that need to construct reachable
        and unreachable instances alike.
        """
        target = instance if in_place else instance.copy()
        if isinstance(update, Addition):
            target.add_field(target.node(update.parent_id), update.label)
        else:
            target.remove_field(target.node(update.node_id))
        return target

    def successors(self, instance: Instance) -> Iterator[tuple[Update, Instance]]:
        """Yield ``(update, resulting instance)`` for every enabled update."""
        for update in self.enabled_updates(instance):
            yield update, self.apply_unchecked(instance, update)

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #

    def is_complete(self, instance: Instance) -> bool:
        """Whether *instance* satisfies the completion formula ``φ``."""
        return evaluate(instance.root, self._completion)

    # ------------------------------------------------------------------ #
    # fragment-related metadata
    # ------------------------------------------------------------------ #

    def schema_depth(self) -> int:
        """Depth of the schema (children of the root have depth 1)."""
        return self._schema.depth()

    def has_positive_access_rules(self) -> bool:
        """Whether the form belongs to an ``A+`` fragment."""
        return self._rules.is_positive()

    def has_positive_completion(self) -> bool:
        """Whether the form belongs to a ``φ+`` fragment."""
        return self._completion.is_positive()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuardedForm(name={self.name!r}, depth={self.schema_depth()}, "
            f"fields={self._schema.size() - 1})"
        )


def guarded_form_from_dicts(
    schema_dict: Mapping[str, Mapping],
    rules_dict: Mapping[str, object],
    completion: "Formula | str",
    initial_paths: Optional[list[str]] = None,
    default_rule: "Formula | str | None" = None,
    name: str = "guarded form",
) -> GuardedForm:
    """One-call constructor used by examples and tests.

    Builds the schema from a nested dict, the rule table from a path→rule
    mapping, and the initial instance from a list of label paths.
    """
    schema = Schema.from_dict(schema_dict)
    rules = RuleTable.from_dict(schema, rules_dict, default=default_rule)
    initial = (
        Instance.from_paths(schema, initial_paths) if initial_paths else Instance.empty(schema)
    )
    return GuardedForm(schema, rules, completion, initial, name=name)
