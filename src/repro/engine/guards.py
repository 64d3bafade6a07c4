"""Memoized, sharing-aware guard evaluation.

Every decision procedure ultimately asks the same two questions over and over:
"is this update allowed here?" (an access-rule formula evaluated at the parent
node of the updated edge) and "is this instance complete?" (the completion
formula evaluated at the root).  :class:`GuardCache` memoizes both, with three
levels of sharing, from widest to narrowest:

* **support projection** (depth-1 states) — a formula evaluated at the root of
  a depth-1 instance can only observe the labels it mentions
  (:func:`support_labels`), so the cache key is the *projection* of the
  canonical state onto that support.  On the Theorem 5.1 SAT workloads this
  collapses the ``2^n`` states into a handful of projections per rule.

* **subtree keying** (bounded states) — a formula without upward ``Parent``
  navigation (:func:`navigates_upward`) evaluated at node ``n`` only observes
  the subtree of ``n``, so its value is shared across *all* states (and all
  explorations on the same engine) in which an isomorphic subtree occurs.
  The hash-consed subtree shapes of the interner serve as the keys.

* **state keying** (fallback) — rules that navigate upward are cached per
  (state id, node, rule); this still shares work across the repeated
  explorations a semi-soundness analysis performs.

Cache ``hits`` count formula evaluations that the legacy explorers would have
performed but the engine served from memory; ``misses`` count formula
evaluations actually run.
"""

from __future__ import annotations

from repro.core.access import AccessRight
from repro.core.canonical import depth1_state_to_instance
from repro.core.formulas.ast import (
    And,
    Exists,
    Filter,
    Formula,
    Not,
    Or,
    Parent,
    PathExpr,
    Slash,
    Step,
)
from repro.core.formulas.semantics import evaluate
from repro.core.guarded_form import GuardedForm
from repro.core.tree import Node, Shape
from repro.io.serialization import decode_guard_key, encode_guard_key_binary
from repro.obs import NO_TELEMETRY

#: Sentinel distinguishing "not restored" from a restored ``False`` value.
_MISSING = object()


def support_labels(formula: Formula) -> frozenset:
    """All edge labels a formula (or path expression) can possibly observe.

    Evaluating *formula* at the root of a depth-1 tree only ever visits the
    root and children whose labels occur as ``Step`` labels somewhere in the
    formula, so the formula's value on a canonical depth-1 state ``S`` is a
    function of ``S & support_labels(formula)`` alone.
    """
    labels: set = set()
    stack: list = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, Step):
            labels.add(item.label)
        elif isinstance(item, Slash):
            stack.extend((item.left, item.right))
        elif isinstance(item, Filter):
            stack.extend((item.path, item.condition))
        elif isinstance(item, Exists):
            stack.append(item.path)
        elif isinstance(item, Not):
            stack.append(item.operand)
        elif isinstance(item, (And, Or)):
            stack.extend((item.left, item.right))
        # Top / Bottom / Parent observe no labels
    return frozenset(labels)


def navigates_upward(formula: "Formula | PathExpr") -> bool:
    """Whether the formula contains a ``Parent`` (``../``) step anywhere.

    A formula without upward navigation, evaluated at node ``n``, never leaves
    the subtree of ``n``; its value is therefore invariant across isomorphic
    subtrees and can be cached by subtree shape.
    """
    stack: list = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, Parent):
            return True
        if isinstance(item, Slash):
            stack.extend((item.left, item.right))
        elif isinstance(item, Filter):
            stack.extend((item.path, item.condition))
        elif isinstance(item, Exists):
            stack.append(item.path)
        elif isinstance(item, Not):
            stack.append(item.operand)
        elif isinstance(item, (And, Or)):
            stack.extend((item.left, item.right))
    return False


class GuardCache:
    """Memoizes access-rule and completion-formula evaluations for one form."""

    def __init__(self, guarded_form: GuardedForm, store=None, telemetry=None) -> None:
        self._form = guarded_form
        self._rules = guarded_form.rules
        self._cache: dict = {}
        #: Telemetry recorder; the cache-hit path never touches it, and the
        #: miss path pays two clock reads only when tracing is enabled.
        self._obs = telemetry if telemetry is not None else NO_TELEMETRY
        #: Wall seconds spent in actual formula evaluations (miss path),
        #: accumulated only while telemetry is enabled.  ``eval_seconds`` is
        #: cumulative (stats); ``_eval_unreported`` is the drainable delta
        #: :meth:`take_eval_seconds` hands to the metrics registry.
        self.eval_seconds = 0.0
        self._eval_unreported = 0.0
        #: (AccessRight, path) -> (rule formula, upward?, support labels)
        self._rule_info: dict = {}
        completion = guarded_form.completion
        self._completion_support = support_labels(completion)
        #: Persistent write-through sink (a persistent
        #: :class:`~repro.engine.store.StateStore`), or ``None``.
        self._store = store
        #: Persisted **binary** guard rows restored raw (encoded bytes →
        #: value) and promoted into ``_cache`` on first probe; see
        #: :meth:`restore_raw`.
        self._restored_raw: dict = {}
        self.hits = 0
        self.misses = 0
        self.entries_restored = 0

    # ------------------------------------------------------------------ #
    # rule metadata
    # ------------------------------------------------------------------ #

    def _info(self, right: AccessRight, path: tuple) -> tuple:
        info = self._rule_info.get((right, path))
        if info is None:
            rule = self._rules.rule(right, path)
            info = (rule, navigates_upward(rule), support_labels(rule))
            self._rule_info[(right, path)] = info
        return info

    def _lookup(self, key, node: Node, rule: Formula) -> bool:
        try:
            value = self._cache[key]
            self.hits += 1
            return value
        except KeyError:
            value = self._probe_restored(key)
            if value is not _MISSING:
                return value
            self.misses += 1
            obs = self._obs
            if obs.enabled:
                started = obs.now()
                value = evaluate(node, rule)
                elapsed = obs.now() - started
                self.eval_seconds += elapsed
                self._eval_unreported += elapsed
            else:
                value = evaluate(node, rule)
            self._cache[key] = value
            if self._store is not None:
                self._store.put_guard(key, value)
            return value

    def _probe_restored(self, key):
        """Promote *key* from the raw-restored tier, or :data:`_MISSING`.

        The binary guard-row encoding is canonical and injective, so instead
        of decoding every persisted row at hydration the cache keeps the raw
        bytes and **encodes the probed key** (one cheap
        :func:`~repro.io.serialization.encode_guard_key_binary` per first
        probe) — hydration cost becomes proportional to the keys a run
        actually asks about, not to the store's guard table.  A promoted
        entry counts as a hit, exactly as a probe after an eager restore
        did, and is not written back to the store it came from.
        """
        raw = self._restored_raw
        if not raw:
            return _MISSING
        value = raw.pop(encode_guard_key_binary(key), _MISSING)
        if value is not _MISSING:
            self.hits += 1
            self._cache[key] = value
        return value

    def restore(self, key: tuple, value: bool) -> None:
        """Seed one persisted guard entry (hydration; not written back)."""
        self._cache[key] = value
        self.entries_restored += 1

    def restore_raw(self, row, value: bool) -> None:
        """Seed one persisted guard row without decoding it (hydration).

        Binary rows are kept as raw bytes and promoted lazily by
        :meth:`_probe_restored`; a corrupt binary row can therefore never
        poison the cache — it simply never matches a probed key's canonical
        encoding and the evaluation reruns.  Legacy JSON rows are decoded
        (and validated) eagerly, preserving the attach-time corruption
        surfacing those stores were written under.
        """
        if isinstance(row, (bytes, bytearray, memoryview)):
            self._restored_raw[bytes(row)] = bool(value)
            self.entries_restored += 1
        else:
            self.restore(decode_guard_key(row), bool(value))

    # ------------------------------------------------------------------ #
    # bounded-explorer guards (arbitrary depth, subtree/state keyed)
    # ------------------------------------------------------------------ #

    def addition_allowed(
        self, state_id: int, node: Node, label: str, subtree_shape: Shape
    ) -> bool:
        """Whether adding *label* under *node* is allowed (``A(add, e)``
        evaluated at *node*); *subtree_shape* is the consed shape of *node*."""
        path = node.label_path() + (label,)
        rule, upward, _ = self._info(AccessRight.ADD, path)
        if upward:
            key = ("a", state_id, node.node_id, label)
        else:
            key = ("A", path, subtree_shape)
        return self._lookup(key, node, rule)

    def deletion_allowed(self, state_id: int, node: Node, parent_shape: Shape) -> bool:
        """Whether deleting the leaf *node* is allowed (``A(del, e)``
        evaluated at the parent); *parent_shape* is the parent's consed shape.

        The rule only sees the parent, so all same-label siblings share one
        cache entry.
        """
        path = node.label_path()
        rule, upward, _ = self._info(AccessRight.DEL, path)
        if upward:
            key = ("d", state_id, node.parent.node_id, node.label)
        else:
            key = ("D", path, parent_shape)
        return self._lookup(key, node.parent, rule)

    def completion(self, state_id: int, root: Node) -> bool:
        """Whether the state satisfies the completion formula."""
        key = ("phi", state_id)
        return self._lookup(key, root, self._form.completion)

    # ------------------------------------------------------------------ #
    # depth-1 guards (canonical label-set states, support-projected)
    # ------------------------------------------------------------------ #

    def _d1_projected(self, tag: str, label_key, state: frozenset, rule: Formula, support: frozenset) -> bool:
        projection = state & support
        key = (tag, label_key, projection)
        try:
            value = self._cache[key]
            self.hits += 1
            return value
        except KeyError:
            value = self._probe_restored(key)
            if value is not _MISSING:
                return value
            self.misses += 1
            obs = self._obs
            if obs.enabled:
                started = obs.now()
                materialised = depth1_state_to_instance(self._form.schema, projection)
                value = evaluate(materialised.root, rule)
                elapsed = obs.now() - started
                self.eval_seconds += elapsed
                self._eval_unreported += elapsed
            else:
                materialised = depth1_state_to_instance(self._form.schema, projection)
                value = evaluate(materialised.root, rule)
            self._cache[key] = value
            if self._store is not None:
                self._store.put_guard(key, value)
            return value

    def d1_addition_allowed(self, state: frozenset, label: str) -> bool:
        """``A(add, label)`` at the root of the canonical depth-1 *state*."""
        rule, _, support = self._info(AccessRight.ADD, (label,))
        return self._d1_projected("1a", label, state, rule, support)

    def d1_deletion_allowed(self, state: frozenset, label: str) -> bool:
        """``A(del, label)`` at the root of the canonical depth-1 *state*."""
        rule, _, support = self._info(AccessRight.DEL, (label,))
        return self._d1_projected("1d", label, state, rule, support)

    def d1_completion(self, state: frozenset) -> bool:
        """Whether the canonical depth-1 *state* satisfies the completion."""
        return self._d1_projected(
            "1p", None, state, self._form.completion, self._completion_support
        )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def credit_reuse(self, queries: int) -> None:
        """Record *queries* evaluations served wholesale from a memoized
        expansion (the legacy explorers would have re-evaluated each)."""
        self.hits += queries

    def take_eval_seconds(self) -> float:
        """Drain the not-yet-reported miss-path evaluation time (telemetry).

        The cumulative :attr:`eval_seconds` (the engine's
        ``guard_eval_seconds``) is untouched; this hands out each second
        exactly once, so callers can feed a counter without double-counting.
        """
        drained, self._eval_unreported = self._eval_unreported, 0.0
        return drained

    @property
    def hit_rate(self) -> float:
        """Fraction of guard queries served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for :class:`AnalysisResult` stats."""
        return {
            "guard_cache_hits": self.hits,
            "guard_cache_misses": self.misses,
            "guard_cache_hit_rate": round(self.hit_rate, 4),
            "formula_evaluations": self.misses,
            "formula_evaluations_saved": self.hits,
            "guard_entries_restored": self.entries_restored,
        }
