"""The built-in form catalogue, addressable by name.

Form *references* appear in three places that must agree: CLI positional
arguments, :class:`~repro.service.AnalysisRequest.form` fields travelling
over the service wire, and library calls.  This module is the single
resolver behind all three:

* a **catalogue name** (``leave-application``, ``tax-declaration``, …, plus
  the ``bench-*`` benchgen families) builds the named example form;
* a **dict** is decoded as the JSON form format of
  :mod:`repro.io.serialization` (this is how forms travel over the service
  wire — the client inlines the file so the server never needs the client's
  filesystem).  Decoded dicts are memoised process-wide in
  :data:`FORM_MEMO`, so a form that many requests inline is parsed once;
* any other **string** is treated as a path to a JSON form file.

Historically the catalogue lived in :mod:`repro.cli`, which re-exports it
for compatibility.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional

from repro.core.guarded_form import GuardedForm
from repro.exceptions import RequestError
from repro.fbwis.catalog import (
    leave_application,
    leave_application_incompletable,
    leave_application_not_semisound,
    purchase_order,
    tax_declaration,
)
from repro.io.serialization import guarded_form_from_dict, load_guarded_form


def _bench_counter_machine() -> GuardedForm:
    from repro.benchgen.families import counter_machine_family

    return counter_machine_family(3)[0]


def _bench_positive_deep() -> GuardedForm:
    from repro.benchgen.families import positive_deep_family

    return positive_deep_family(4, width=2)


def _bench_positive_chain() -> GuardedForm:
    from repro.benchgen.families import positive_chain_family

    return positive_chain_family(16)


def _bench_sat() -> GuardedForm:
    from repro.benchgen.families import sat_completability_family

    return sat_completability_family(8, seed=8)[0]


#: Built-in forms addressable by name on the command line and in service
#: requests.  The ``bench-*`` entries expose benchgen workload families (the
#: counter machine is the deepest — its unbounded state space is the intended
#: target for ``analyze --store … --max-states N`` / ``--resume`` sessions).
CATALOG: dict[str, Callable[[], GuardedForm]] = {
    "leave-application": lambda: leave_application(single_period=False),
    "leave-application-finite": lambda: leave_application(single_period=True),
    "leave-application-incompletable": lambda: leave_application_incompletable(single_period=True),
    "leave-application-not-semisound": lambda: leave_application_not_semisound(single_period=True),
    "tax-declaration": tax_declaration,
    "purchase-order": purchase_order,
    "bench-counter-machine": _bench_counter_machine,
    "bench-positive-deep": _bench_positive_deep,
    "bench-positive-chain": _bench_positive_chain,
    "bench-sat": _bench_sat,
}


def _canonical_digest(data: dict) -> Optional[str]:
    """The sha256 of *data*'s canonical JSON (sorted keys, compact), or
    ``None`` when *data* is not plain JSON.

    Canonical JSON turns tuples into lists and int, float, bool and ``None``
    keys into strings, so two different dicts can share one text; only a
    dict that reads back equal to itself gets a digest.  Tuple keys, set
    values and cycles make ``json.dumps`` raise.
    """
    try:
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError, RecursionError):
        return None
    if json.loads(canonical) != data:
        return None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class FormMemo:
    """A thread-safe LRU of decoded inline forms, keyed by content.

    The key is the :func:`_canonical_digest` of the form dict, so equal
    dicts sent by different requests share one
    :class:`~repro.core.guarded_form.GuardedForm` (a form is never edited
    once built, so sharing it is safe).  A decode that raises is not
    memoised, and a dict that is not plain JSON is decoded without the memo:
    both fail or succeed exactly as an uncached decode does.  Two threads
    missing on one form both decode it; the first to finish is kept and
    returned to both.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._forms: "OrderedDict[str, GuardedForm]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def resolve(self, data: dict) -> GuardedForm:
        """The decoded form of the inline form dict *data*."""
        key = _canonical_digest(data)
        if key is None:
            return guarded_form_from_dict(data)
        with self._lock:
            form = self._forms.get(key)
            if form is not None:
                self._forms.move_to_end(key)
                self._hits += 1
                return form
            self._misses += 1
        decoded = guarded_form_from_dict(data)
        with self._lock:
            form = self._forms.setdefault(key, decoded)
            self._forms.move_to_end(key)
            while len(self._forms) > self.capacity:
                self._forms.popitem(last=False)
        return form

    def stats(self) -> dict:
        """``{hits, misses, entries, capacity}``; a dict that bypasses the
        memo counts as neither a hit nor a miss."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._forms),
                "capacity": self.capacity,
            }


#: The process-wide memo behind :func:`resolve_form`.  It must hold the
#: largest pool of forms that cycles through one process: an LRU smaller
#: than a cyclic working set never hits (perfbench's ``depth1`` pool has 32
#: forms).  Decoded, a depth-1 SAT form of that pool holds ~24 KiB, and the
#: two-counter form of Theorem 4.1, the largest benchgen form, ~370 KiB.
FORM_MEMO = FormMemo(capacity=64)


def resolve_form(ref: "str | dict | GuardedForm") -> GuardedForm:
    """Materialise a form reference: name, inline dict, path, or the form.

    An inline dict is looked up in :data:`FORM_MEMO` by the digest of its
    canonical JSON before it is decoded, so repeated requests for one form
    share a single decoded :class:`~repro.core.guarded_form.GuardedForm`
    (and its cached :func:`~repro.io.serialization.form_fingerprint`).  A
    catalogue name builds a fresh form and a path reads its file on every
    call.

    Raises:
        RequestError: the reference is neither a catalogue name, an inline
            form dict, an existing JSON file, nor a
            :class:`~repro.core.guarded_form.GuardedForm` — the
            ``malformed-form`` case of the service error taxonomy.
    """
    if isinstance(ref, GuardedForm):
        return ref
    if isinstance(ref, dict):
        return FORM_MEMO.resolve(ref)
    if not isinstance(ref, str):
        raise RequestError(
            f"a form reference must be a catalogue name, a form dict or a "
            f"file path, not {type(ref).__name__}"
        )
    if ref in CATALOG:
        return CATALOG[ref]()
    path = Path(ref)
    if not path.exists():
        raise RequestError(
            f"{ref!r} is neither a catalogue form ({', '.join(sorted(CATALOG))}) "
            "nor an existing file"
        )
    return load_guarded_form(path)
