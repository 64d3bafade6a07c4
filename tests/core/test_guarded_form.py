"""Unit tests for guarded forms (Definition 3.11, Example 3.12)."""

import pytest

from repro.core.access import RuleTable
from repro.core.guarded_form import Addition, Deletion, GuardedForm, guarded_form_from_dicts
from repro.core.instance import Instance
from repro.core.schema import depth_one_schema
from repro.exceptions import UpdateNotAllowedError


class TestUpdateSemantics:
    def test_initial_instance_is_copied(self, leave_form):
        first = leave_form.initial_instance()
        second = leave_form.initial_instance()
        first.add_field(first.root, "a")
        assert second.size() == 1

    def test_only_application_addable_on_empty_form(self, leave_form):
        instance = leave_form.initial_instance()
        updates = leave_form.enabled_updates(instance)
        assert len(updates) == 1
        assert isinstance(updates[0], Addition)
        assert updates[0].label == "a"

    def test_addition_allowed_respects_rule(self, leave_form):
        instance = leave_form.initial_instance()
        assert leave_form.is_addition_allowed(instance, instance.root, "a")
        assert not leave_form.is_addition_allowed(instance, instance.root, "s")
        assert not leave_form.is_addition_allowed(instance, instance.root, "f")

    def test_addition_of_unknown_field_not_allowed(self, leave_form):
        instance = leave_form.initial_instance()
        assert not leave_form.is_addition_allowed(instance, instance.root, "zzz")

    def test_application_cannot_be_added_twice(self, leave_form):
        instance = leave_form.initial_instance()
        instance.add_field(instance.root, "a")
        assert not leave_form.is_addition_allowed(instance, instance.root, "a")

    def test_application_cannot_be_deleted(self, leave_form):
        instance = leave_form.initial_instance()
        application = instance.add_field(instance.root, "a")
        assert not leave_form.is_deletion_allowed(instance, application)

    def test_name_deletable_before_submission_only(self, leave_form, leave_schema):
        before = Instance.from_paths(leave_form.schema, ["a/n"])
        name = before.find_path("a/n")
        assert leave_form.is_deletion_allowed(before, name)
        after = Instance.from_paths(leave_form.schema, ["a/n", "s"])
        name_after = after.find_path("a/n")
        assert not leave_form.is_deletion_allowed(after, name_after)

    def test_deletion_of_non_leaf_not_allowed(self, leave_form):
        instance = Instance.from_paths(leave_form.schema, ["a/n"])
        application = instance.find_path("a")
        assert not leave_form.is_deletion_allowed(instance, application)

    def test_root_never_deletable(self, leave_form):
        instance = leave_form.initial_instance()
        assert not leave_form.is_deletion_allowed(instance, instance.root)

    def test_apply_checks_rules(self, leave_form):
        instance = leave_form.initial_instance()
        with pytest.raises(UpdateNotAllowedError):
            leave_form.apply(instance, Addition(instance.root.node_id, "s"))
        result = leave_form.apply(instance, Addition(instance.root.node_id, "a"))
        assert result.has_path("a")
        assert not instance.has_path("a")  # original untouched

    def test_apply_in_place(self, leave_form):
        instance = leave_form.initial_instance()
        leave_form.apply(instance, Addition(instance.root.node_id, "a"), in_place=True)
        assert instance.has_path("a")

    def test_apply_unchecked_still_validates_schema(self, leave_form):
        instance = leave_form.initial_instance()
        with pytest.raises(Exception):
            leave_form.apply_unchecked(instance, Addition(instance.root.node_id, "zzz"))

    def test_update_on_missing_node_not_allowed(self, leave_form):
        instance = leave_form.initial_instance()
        assert not leave_form.is_update_allowed(instance, Addition(999, "a"))
        assert not leave_form.is_update_allowed(instance, Deletion(999))

    def test_successors_enumeration(self, leave_form):
        instance = leave_form.initial_instance()
        successors = list(leave_form.successors(instance))
        assert len(successors) == 1
        update, successor = successors[0]
        assert isinstance(update, Addition)
        assert successor.has_path("a")

    def test_submission_requires_complete_application(self, leave_form):
        ready = Instance.from_paths(leave_form.schema, ["a/n", "a/d", "a/p/b", "a/p/e"])
        assert leave_form.is_addition_allowed(ready, ready.root, "s")
        missing_end = Instance.from_paths(leave_form.schema, ["a/n", "a/d", "a/p/b"])
        assert not leave_form.is_addition_allowed(missing_end, missing_end.root, "s")

    def test_decision_requires_submission(self, leave_form):
        submitted = Instance.from_paths(leave_form.schema, ["a/n", "a/d", "a/p/b", "a/p/e", "s"])
        assert leave_form.is_addition_allowed(submitted, submitted.root, "d")
        unsubmitted = Instance.from_paths(leave_form.schema, ["a/n", "a/d", "a/p/b", "a/p/e"])
        assert not leave_form.is_addition_allowed(unsubmitted, unsubmitted.root, "d")

    def test_completion_formula(self, leave_form, rejected_instance):
        assert leave_form.is_complete(rejected_instance)
        assert not leave_form.is_complete(leave_form.initial_instance())


class TestConstructionAndMetadata:
    def test_with_completion_creates_variant(self, leave_form):
        variant = leave_form.with_completion("f ∧ ¬s")
        assert variant.completion != leave_form.completion
        assert variant.schema is leave_form.schema

    def test_with_initial_instance(self, leave_form):
        start = Instance.from_paths(leave_form.schema, ["a/n"])
        variant = leave_form.with_initial_instance(start)
        assert variant.initial_instance().has_path("a/n")

    def test_fragment_metadata(self, leave_form, tiny_form):
        assert not leave_form.has_positive_access_rules()
        assert leave_form.has_positive_completion()
        assert leave_form.schema_depth() == 3
        assert tiny_form.schema_depth() == 1

    def test_guarded_form_from_dicts(self):
        form = guarded_form_from_dicts(
            {"a": {}, "b": {}},
            {"a": "true", "b": ("a", "false")},
            completion="a ∧ b",
            initial_paths=["a"],
            name="from dicts",
        )
        assert form.name == "from dicts"
        assert form.initial_instance().has_path("a")
        assert form.schema_depth() == 1

    def test_name_is_read_only(self, leave_form):
        """Forms are shared between analyses and carry a fingerprint that
        covers the name, so the name cannot be reassigned."""
        with pytest.raises(AttributeError):
            leave_form.name = "renamed"
        assert leave_form.with_completion("f", name="renamed").name == "renamed"

    def test_mismatched_rule_schema_rejected(self):
        schema = depth_one_schema(["a"])
        other = depth_one_schema(["a", "b"])
        rules = RuleTable.from_dict(other, {"a": "true"})
        with pytest.raises(Exception):
            GuardedForm(schema, rules, completion="a")

    def test_structurally_equal_schema_accepted(self):
        schema = depth_one_schema(["a", "b"])
        twin = depth_one_schema(["a", "b"])
        rules = RuleTable.from_dict(twin, {"a": "true"})
        form = GuardedForm(schema, rules, completion="a")
        assert form.schema is schema
