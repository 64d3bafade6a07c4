"""Memoized, sharing-aware guard evaluation.

Every decision procedure ultimately asks the same two questions over and over:
"is this update allowed here?" (an access-rule formula evaluated at the parent
node of the updated edge) and "is this instance complete?" (the completion
formula evaluated at the root).  :class:`GuardCache` memoizes both, with three
levels of sharing, from widest to narrowest:

* **support projection** (depth-1 states) — a formula evaluated at the root of
  a depth-1 instance can only observe the labels it mentions
  (:func:`support_labels`), so the cache key is the *projection* of the
  canonical state onto that support.  States are ``int`` bitmasks over the
  schema's root-child labels (:func:`~repro.core.canonical.depth1_label_bits`)
  and the support is a mask too, so the projection is ``state & support``.
  On the Theorem 5.1 SAT workloads this collapses the ``2^n`` states into a
  handful of projections per rule.

* **subtree keying** (bounded states) — a formula without upward ``Parent``
  navigation (:func:`navigates_upward`) evaluated at node ``n`` only observes
  the subtree of ``n``, so its value is shared across *all* states (and all
  explorations on the same engine) in which an isomorphic subtree occurs.
  The interner's subtree ids serve as the keys: ``("A", edge, sid)`` and
  ``("D", path, sid)``.  Subtree ids are local to one interner, so the
  parallel workers ship these keys with nested-tuple shapes instead
  (:func:`map_subtree_keys`).

* **state keying** (fallback) — rules that navigate upward are cached per
  (state id, node, rule); this still shares work across the repeated
  explorations a semi-soundness analysis performs.

Cache ``hits`` count formula evaluations that the legacy explorers would have
performed but the engine served from memory; ``misses`` count formula
evaluations actually run.

**Compiled rules and probe plans.**  A miss does not interpret the formula's
AST: each access rule and the completion formula is compiled once per cache
into a closure over :class:`~repro.core.tree.Node`
(:func:`~repro.core.formulas.compiled.compile_formula`), or over a depth-1
state mask, and every miss runs one through the module-level
:func:`evaluate`.  What a probe needs besides
the state is fixed by the schema node it is made at, so it is bundled once
per schema node into a plan:

* :meth:`GuardCache.plan` — per schema label path, for the bounded explorer:
  each child label with its compiled add rule, whether that rule navigates
  upward, and its edge path (the subtree key's first part), plus the compiled
  delete rule of the node itself;
* the depth-1 probe tables — per field label, for depth-1 forms: one table
  for the add rules and one for the delete rules, each entry the rule
  compiled to a predicate over the state mask
  (:func:`~repro.core.formulas.compiled.compile_depth1`) with its support
  mask, resolved on the label's first probe.  A depth-1 probe is one table
  read, one projection and one cache read; a miss runs the predicate on the
  projected mask: a few bit tests, no tree.

A plan decides what to evaluate, never the key: keys depend only on the
state, the node and the edge (``tests/engine/test_guard_counters.py`` pins
the keys and the hit and miss counts).

The cache lives in memory only.  A store-backed engine persists shapes,
representatives and checkpoints but no guard values: re-running a compiled
rule in a resumed process costs less than encoding, writing and restoring
its row.  The one way entries enter the cache other than a miss is
:meth:`GuardCache.restore`, with which the parallel coordinator merges the
entries its frontier workers evaluated.
"""

from __future__ import annotations

from itertools import islice

from repro.core.access import AccessRight
from repro.core.canonical import depth1_label_bits
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
from repro.core.formulas.compiled import MaskPredicate, Rule, compile_depth1, compile_formula
from repro.core.guarded_form import GuardedForm
from repro.core.tree import Node
from repro.obs import NO_TELEMETRY


def evaluate(node: "Node | int", rule: "Rule | MaskPredicate") -> bool:
    """Run the compiled *rule* at *node*, or the depth-1 predicate on a state
    mask: every guard-cache miss goes through here."""
    return rule(node)


#: Tags of the guard keys whose last term is a subtree id.
SUBTREE_KEY_TAGS = ("A", "D")


def map_subtree_keys(entries: list, convert) -> list:
    """The ``(key, value)`` guard *entries* with the subtree term of every
    ``A``/``D`` key passed through *convert* (a sid to its nested tuple, or
    back)."""
    return [
        ((key[0], key[1], convert(key[2])), value) if key[0] in SUBTREE_KEY_TAGS else (key, value)
        for key, value in entries
    ]


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
    """Memoizes access-rule and completion-formula evaluations for one form.

    The completion formula and each access rule are compiled
    (:mod:`repro.core.formulas.compiled`) when a probe first needs them, over
    nodes for the bounded explorer and over state masks for depth-1 forms;
    the probes of one schema node are bundled in a plan (:meth:`plan`), and
    the depth-1 rules sit in per-label add and delete tables, so a probe
    costs a key build and a dict lookup, and a miss one closure call.
    """

    def __init__(self, guarded_form: GuardedForm, telemetry=None) -> None:
        self._form = guarded_form
        self._rules = guarded_form.rules
        #: key -> value, in insertion order; only misses and :meth:`restore`
        #: add entries, and none is ever removed
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
        #: schema label path -> bounded probe plan (see :meth:`plan`)
        self._plans: dict = {}
        #: depth-1 field label -> (predicate, support mask) of its add rule,
        #: and of its delete rule, each filled on the label's first probe
        self._d1_add: dict = {}
        self._d1_del: dict = {}
        #: root-child label -> its bit in a depth-1 state mask
        self.d1_bits = depth1_label_bits(guarded_form.schema)
        #: the completion compiled over nodes, and as (predicate, support
        #: mask) over depth-1 state masks, each on its first miss
        self._completion = None
        self._d1_completion = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # probe plans
    # ------------------------------------------------------------------ #

    def plan(self, path: tuple) -> tuple:
        """The guard probes of an instance node at schema label *path*.

        Returns ``(additions, deletion)``: ``additions`` holds one
        ``(label, rule, upward, edge path)`` per schema child of the node, in
        schema order, with the compiled ``A(add, edge)``; ``deletion`` is
        ``(rule, upward)`` with the compiled ``A(del, path)``, or ``None`` at
        the root.  ``upward`` is :func:`navigates_upward` of the rule.
        """
        plan = self._plans.get(path)
        if plan is None:
            additions = []
            for schema_child in self._form.schema.node_at(path).children:
                edge = path + (schema_child.label,)
                rule = self._rules.rule(AccessRight.ADD, edge)
                additions.append(
                    (schema_child.label, compile_formula(rule), navigates_upward(rule), edge)
                )
            deletion = None
            if path:
                rule = self._rules.rule(AccessRight.DEL, path)
                deletion = (compile_formula(rule), navigates_upward(rule))
            plan = self._plans[path] = (tuple(additions), deletion)
        return plan

    def _d1_probe(self, formula: Formula) -> tuple:
        """``(predicate, support mask)`` of *formula* at a depth-1 root."""
        bits = self.d1_bits
        support = sum(bits[label] for label in support_labels(formula) if label in bits)
        return compile_depth1(formula, bits), support

    def _miss(self, key, node: "Node | int", rule: "Rule | MaskPredicate") -> bool:
        """Answer a probe *key* the cache does not hold by evaluating the
        compiled *rule* at *node* (a depth-1 state mask for a predicate)."""
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
        return value

    def restore(self, key: tuple, value: bool) -> None:
        """Seed one guard entry evaluated elsewhere (a frontier worker)."""
        self._cache[key] = value

    def entries_since(self, count: int) -> list:
        """The ``(key, value)`` entries added after the cache held *count*,
        oldest first; the cache only grows, in insertion order, so they are
        its tail."""
        return list(islice(reversed(self._cache.items()), len(self._cache) - count))[::-1]

    # ------------------------------------------------------------------ #
    # bounded-explorer guards (arbitrary depth, subtree/state keyed)
    # ------------------------------------------------------------------ #

    def addition_allowed(self, state_id: int, node: Node, probe: tuple, subtree: int) -> bool:
        """Whether the addition *probe* (an entry of ``plan(path)[0]``, where
        *path* is the label path of *node*) is allowed under *node*;
        *subtree* is the subtree id of *node*."""
        label, rule, upward, edge = probe
        if upward:
            key = ("a", state_id, node.node_id, label)
        else:
            key = ("A", edge, subtree)
        try:
            value = self._cache[key]
        except KeyError:
            return self._miss(key, node, rule)
        self.hits += 1
        return value

    def deletion_allowed(
        self, state_id: int, node: Node, probe: tuple, path: tuple, parent_subtree: int
    ) -> bool:
        """Whether deleting the leaf *node*, at label *path*, is allowed;
        *probe* is ``plan(path)[1]`` and *parent_subtree* the subtree id of
        the node's parent.

        The rule only sees the parent, so all same-label siblings share one
        cache entry.
        """
        rule, upward = probe
        parent = node.parent
        if upward:
            key = ("d", state_id, parent.node_id, node.label)
        else:
            key = ("D", path, parent_subtree)
        try:
            value = self._cache[key]
        except KeyError:
            return self._miss(key, parent, rule)
        self.hits += 1
        return value

    def completion(self, state_id: int, root: Node) -> bool:
        """Whether the state satisfies the completion formula."""
        key = ("phi", state_id)
        try:
            value = self._cache[key]
        except KeyError:
            rule = self._completion
            if rule is None:
                rule = self._completion = compile_formula(self._form.completion)
            return self._miss(key, root, rule)
        self.hits += 1
        return value

    # ------------------------------------------------------------------ #
    # depth-1 guards (canonical states as label bitmasks, support-projected)
    # ------------------------------------------------------------------ #

    def d1_addition_allowed(self, state: int, label: str) -> bool:
        """``A(add, label)`` at the root of the canonical depth-1 *state*."""
        try:
            predicate, support = self._d1_add[label]
        except KeyError:
            predicate, support = self._d1_add[label] = self._d1_probe(
                self._rules.rule(AccessRight.ADD, (label,))
            )
        projection = state & support
        key = ("1a", label, projection)
        try:
            value = self._cache[key]
        except KeyError:
            return self._miss(key, projection, predicate)
        self.hits += 1
        return value

    def d1_deletion_allowed(self, state: int, label: str) -> bool:
        """``A(del, label)`` at the root of the canonical depth-1 *state*."""
        try:
            predicate, support = self._d1_del[label]
        except KeyError:
            predicate, support = self._d1_del[label] = self._d1_probe(
                self._rules.rule(AccessRight.DEL, (label,))
            )
        projection = state & support
        key = ("1d", label, projection)
        try:
            value = self._cache[key]
        except KeyError:
            return self._miss(key, projection, predicate)
        self.hits += 1
        return value

    def d1_completion(self, state: int) -> bool:
        """Whether the canonical depth-1 *state* satisfies the completion."""
        probe = self._d1_completion
        if probe is None:
            probe = self._d1_completion = self._d1_probe(self._form.completion)
        predicate, support = probe
        projection = state & support
        key = ("1p", None, projection)
        try:
            value = self._cache[key]
        except KeyError:
            return self._miss(key, projection, predicate)
        self.hits += 1
        return value

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
        }
