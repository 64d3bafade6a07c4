"""The inline-form memo behind ``resolve_form``: same answers, one decode.

Contracts pinned here:

* a memo hit answers every request family of the benchmark pools with the
  wire body a cold decode gives, byte for byte;
* a decode that raises is never memoised, so a malformed form keeps its
  typed ``malformed-form`` error on every request;
* a dict that canonical JSON rejects or rewrites (tuple keys, set values,
  non-string keys) bypasses the memo and fails or succeeds exactly as a
  plain :func:`~repro.io.serialization.guarded_form_from_dict` does;
* under concurrent resolvers the memo keeps one form per distinct dict and
  never more entries than its capacity;
* sharing a form is safe: no analysis kind edits the form it is given, so
  its definition and its cached fingerprint are unchanged by every run.
"""

import copy
import hashlib
import json
import sys
import threading

import pytest

from repro import catalog
from repro.benchgen.families import (
    counter_machine_family,
    positive_deep_family,
    qsat_semisoundness_family,
    sat_completability_family,
    sat_semisoundness_family,
)
from repro.cache.runtime import reset_cache_runtime
from repro.catalog import FormMemo, resolve_form
from repro.fbwis.catalog import leave_application
from repro.io.serialization import (
    form_fingerprint,
    guarded_form_from_dict,
    guarded_form_to_dict,
    save_guarded_form,
)
from repro.service import AnalysisRequest
from repro.service.dispatch import result_to_wire, run_analysis, run_analysis_wire
from repro.service.request import REQUEST_API_VERSION


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test sees an empty process memo and no ambient result cache."""
    memo = FormMemo(capacity=catalog.FORM_MEMO.capacity)
    monkeypatch.setattr(catalog, "FORM_MEMO", memo)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    reset_cache_runtime()
    yield memo
    reset_cache_runtime()


def canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def payload(form_dict: dict, kind: str, **fields) -> dict:
    return {"api": REQUEST_API_VERSION, "form": form_dict, "kind": kind, **fields}


#: One request per family of the benchmark's pools (depth-1 SAT and
#: semi-soundness, nested document, two-counter machine, QSAT), at the
#: pools' sizes and request settings.
FAMILIES = {
    "sat": lambda: payload(
        guarded_form_to_dict(sat_completability_family(8, clause_ratio=4.3, seed=3)[0]),
        "completability",
    ),
    "sat-semisound": lambda: payload(
        guarded_form_to_dict(sat_semisoundness_family(5, clause_ratio=4.0, seed=3)[0]),
        "semisoundness",
    ),
    "deep": lambda: payload(
        guarded_form_to_dict(positive_deep_family(3, width=2)),
        "completability",
        strategy="bounded",
        max_states=300,
    ),
    "two-counter": lambda: payload(
        guarded_form_to_dict(counter_machine_family(3)[0]), "completability"
    ),
    "qsat": lambda: payload(
        guarded_form_to_dict(qsat_semisoundness_family(2, seed=3)[0]),
        "completability",
        max_states=300,
    ),
}


def leave_dict() -> dict:
    return guarded_form_to_dict(leave_application(single_period=True))


class TestMemoHits:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hit_body_is_byte_identical_to_cold_decode(self, family, fresh_memo):
        cold_payload = FAMILIES[family]()
        status, cold = run_analysis_wire(cold_payload)
        assert status == 200
        assert fresh_memo.stats()["misses"] == 1
        # equal content in new dict objects: the memo keys on content
        status, warm = run_analysis_wire(copy.deepcopy(cold_payload))
        assert status == 200
        assert fresh_memo.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "capacity": fresh_memo.capacity
        }
        assert canonical(warm) == canonical(cold)

    def test_equal_dicts_share_one_form_object(self):
        first = resolve_form(leave_dict())
        assert resolve_form(leave_dict()) is first
        assert resolve_form(json.loads(json.dumps(leave_dict()))) is first

    def test_edited_dict_is_a_different_form(self):
        base = resolve_form(leave_dict())
        renamed = dict(leave_dict(), name="another name")
        other = resolve_form(renamed)
        assert other is not base
        assert other.name == "another name"
        assert form_fingerprint(other) != form_fingerprint(base)

    def test_least_recently_used_form_is_evicted(self):
        memo = FormMemo(capacity=2)
        forms = [dict(leave_dict(), name=f"form {index}") for index in range(3)]
        first = memo.resolve(forms[0])
        memo.resolve(forms[1])
        assert memo.resolve(forms[0]) is first  # refreshes form 0
        memo.resolve(forms[2])  # evicts form 1, the least recently used
        assert memo.stats() == {"hits": 1, "misses": 3, "entries": 2, "capacity": 2}
        assert memo.resolve(forms[0]) is first
        memo.resolve(forms[1])
        assert memo.stats()["misses"] == 4

    def test_names_and_paths_bypass_the_memo(self, tmp_path, fresh_memo):
        path = tmp_path / "form.json"
        save_guarded_form(leave_application(single_period=True), path)
        assert resolve_form(str(path)) is not resolve_form(str(path))
        assert resolve_form("leave-application-finite") is not resolve_form(
            "leave-application-finite"
        )
        assert fresh_memo.stats()["hits"] + fresh_memo.stats()["misses"] == 0


class TestFailedDecodes:
    @pytest.mark.parametrize("breakage", ["bad-rule", "missing-key"])
    def test_a_raising_decode_is_not_memoised(self, breakage, fresh_memo):
        form_dict = leave_dict()
        if breakage == "bad-rule":
            form_dict["rules"]["f"] = ["d[a ∨", "¬f"]
        else:
            del form_dict["completion"]
        for _ in range(2):
            status, body = run_analysis_wire(payload(form_dict, "completability"))
            assert status == 400
            assert body["error"]["code"] == "malformed-form"
        assert fresh_memo.stats() == {
            "hits": 0, "misses": 2, "entries": 0, "capacity": fresh_memo.capacity
        }


def outcome(decode, data):
    """``("ok", the form's dict)`` or ``("raised", type, message)``."""
    try:
        return ("ok", guarded_form_to_dict(decode(data)))
    except Exception as error:  # noqa: BLE001 — the outcome is compared
        return ("raised", type(error), str(error))


def non_json_dicts() -> dict:
    tuple_key = leave_dict()
    tuple_key[("a", "b")] = 1
    set_value = leave_dict()
    set_value["notes"] = {"x", "y"}
    set_schema = leave_dict()
    set_schema["schema"]["f"] = {"x"}
    tuple_children = leave_dict()
    tuple_children["initial_instance"]["children"] = ()
    none_label = {
        "name": "n",
        "schema": {None: {}},
        "rules": {},
        "initial_instance": {"label": "r", "children": []},
        "completion": "true",
    }
    return {
        "tuple-key": tuple_key,
        "set-value": set_value,
        "set-in-schema": set_schema,
        "tuple-children": tuple_children,
        "none-label": none_label,
    }


class TestNonJsonDicts:
    @pytest.mark.parametrize("case", sorted(non_json_dicts()))
    def test_decoded_without_the_memo_as_a_plain_decode(self, case, fresh_memo):
        data = non_json_dicts()[case]
        expected = outcome(guarded_form_from_dict, data)
        assert outcome(resolve_form, data) == expected
        assert outcome(resolve_form, data) == expected
        assert fresh_memo.stats()["entries"] == 0
        assert fresh_memo.stats()["hits"] + fresh_memo.stats()["misses"] == 0

    def test_a_key_canonical_json_rewrites_never_hits_a_string_key_entry(self):
        """``{None: ...}`` and ``{"null": ...}`` share one canonical JSON
        text; only the string-keyed dict is a valid form."""
        valid = dict(non_json_dicts()["none-label"], schema={"null": {}})
        assert resolve_form(valid).schema.child_labels() == ["null"]
        rewritten = non_json_dicts()["none-label"]
        assert outcome(resolve_form, rewritten) == outcome(
            guarded_form_from_dict, rewritten
        )
        assert outcome(resolve_form, rewritten)[0] == "raised"


class TestConcurrentResolvers:
    THREADS = 8
    ROUNDS = 20

    def hammer(self, memo, forms):
        """Every thread resolves every form ROUNDS times (fresh copies);
        returns the form objects each thread got, per form index."""
        seen = [[] for _ in forms]
        lock = threading.Lock()
        errors = []
        entries_seen = []

        def worker(offset):
            try:
                for round_index in range(self.ROUNDS):
                    for step in range(len(forms)):
                        index = (offset + round_index + step) % len(forms)
                        form = memo.resolve(copy.deepcopy(forms[index]))
                        entries_seen.append(memo.stats()["entries"])
                        with lock:
                            seen[index].append(form)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return seen, entries_seen

    def forms(self, count):
        return [dict(leave_dict(), name=f"form {index}") for index in range(count)]

    def test_one_entry_and_one_object_per_distinct_form(self):
        forms = self.forms(4)
        memo = FormMemo(capacity=8)
        seen, _entries = self.hammer(memo, forms)
        stats = memo.stats()
        assert stats["entries"] == len(forms)
        assert stats["hits"] + stats["misses"] == self.THREADS * self.ROUNDS * len(forms)
        assert stats["misses"] >= len(forms)
        for index, objects in enumerate(seen):
            # a resolver that lost a decode race gets the winner's form
            assert len({id(form) for form in objects}) == 1
            assert objects[-1].name == f"form {index}"
            assert memo.resolve(forms[index]) is objects[-1]

    def test_the_capacity_bound_holds_under_contention(self):
        forms = self.forms(6)
        memo = FormMemo(capacity=3)
        seen, entries_seen = self.hammer(memo, forms)
        assert max(entries_seen) <= 3
        assert memo.stats()["entries"] == 3
        for index, objects in enumerate(seen):
            assert {form.name for form in objects} == {f"form {index}"}


def fingerprint_from_scratch(form) -> str:
    text = json.dumps(guarded_form_to_dict(form), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestSharedFormsAreNeverEdited:
    """The memo hands one form object to every request that inlines it; no
    analysis may change what that object defines."""

    FORMS = {
        "depth1": lambda: sat_completability_family(4, seed=4)[0],
        "bounded": lambda: leave_application(single_period=True),
    }

    def requests(self, form_dict, store_dir):
        completion = guarded_form_from_dict(form_dict).completion.to_text()
        common = {"form": form_dict, "max_states": 2_000}
        return [
            AnalysisRequest(kind="completability", **common),
            AnalysisRequest(kind="semisoundness", **common),
            AnalysisRequest(kind="invariant", formula="true", **common),
            AnalysisRequest(kind="reach", formula=completion, **common),
            AnalysisRequest(kind="workflow", **common),
            AnalysisRequest(
                kind="completability", store=str(store_dir / "run.sqlite"), **common
            ),
        ]

    @pytest.mark.parametrize("shape", sorted(FORMS))
    def test_every_kind_leaves_the_shared_form_unchanged(self, shape, tmp_path):
        form_dict = guarded_form_to_dict(self.FORMS[shape]())
        form = resolve_form(form_dict)
        before = copy.deepcopy(guarded_form_to_dict(form))
        fingerprint = form_fingerprint(form)
        assert fingerprint == fingerprint_from_scratch(form)
        for request in self.requests(form_dict, tmp_path):
            assert resolve_form(request.form) is form
            result_to_wire(run_analysis(request))
            assert guarded_form_to_dict(form) == before, request.kind
            assert form_fingerprint(form) == fingerprint
            assert fingerprint_from_scratch(form) == fingerprint, request.kind
