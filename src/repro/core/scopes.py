"""The scope specialization hierarchy and the rule repository (§4.1).

Rules are grouped "into three scopes based on their applicability domain:
wrapper-scope, collection-scope and predicate-scope ... Furthermore, the
mediator has two additional scopes, the default-scope and the local-scope"
(Figure 10).  Section 4.3.1 adds a sixth, most-specific **query scope**
holding rules recorded from actual executions.

Matching order (§4.2, Step 1): query > predicate > collection > wrapper >
(local) > default.  Within one scope, rules are ordered by pattern
specificity (:meth:`OperatorPattern.specificity`), and ties fall back to
the order "given by the wrapper implementor".

The paper notes that naive rule lookup "tends to slow down the cost
estimate process ... That is why we do not use the standard overriding
mechanism of Java, but implement our own efficient one based on kind of
virtual tables."  :class:`RuleRepository` reproduces that: everything a
lookup needs from a rule's place in the hierarchy — sort key, matching
level, provenance label — is computed once when the rule is registered
(:class:`ScopedRule`), and the hierarchy itself is resolved once per
(source, operator name) into one tuple holding the wrapper's and the
mediator's rules already merged, ordered and scope-filtered, so per-node
matching is a dict probe.  The linear-scan alternative is kept
(``use_dispatch_index=False``) as the reference the tests and the
ablation benchmark compare against.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter
from typing import Iterable

from repro.algebra.expressions import AttributeRef, Comparison, Literal
from repro.algebra.logical import PlanNode, Select
from repro.core.rules import (
    Bindings,
    CostRule,
    OperatorPattern,
    SelectPredPattern,
    Var,
)
from repro.errors import CostModelError


class Scope(IntEnum):
    """Scopes of Figure 10, ordered by increasing specificity."""

    DEFAULT = 0
    LOCAL = 1
    WRAPPER = 2
    COLLECTION = 3
    PREDICATE = 4
    QUERY = 5

    def __str__(self) -> str:
        return self.name.lower()


#: The mediator's own pseudo-source name for LOCAL/DEFAULT scope rules.
MEDIATOR_SOURCE = "__mediator__"


def classify_wrapper_rule(rule: CostRule) -> Scope:
    """Derive the scope of a wrapper-exported rule from its head (§4.1).

    * no bound collection → wrapper-scope (applies to any collection of
      the source);
    * bound collection, free predicate → collection-scope;
    * bound attribute or value → predicate-scope.
    """
    collections_bound, _shape_bound, attributes_bound, values_bound = (
        rule.specificity()
    )
    if attributes_bound or values_bound:
        return Scope.PREDICATE
    if collections_bound:
        return Scope.COLLECTION
    return Scope.WRAPPER


@dataclass(frozen=True)
class ScopedRule:
    """A rule placed in the hierarchy: who exported it, at which scope,
    and where among its scope's rules it was declared.

    Everything a lookup reads is fixed at registration (§4.1: rules are
    integrated once), so it is computed here, once, not per lookup.
    """

    rule: CostRule
    scope: Scope
    source: str
    #: Declaration order within (source, scope) — "the order given by the
    #: wrapper implementor".  Owned by the placement, not the rule: one
    #: :class:`CostRule` may be registered with several repositories.
    order: int = 0
    #: Descending match priority: scope, then the specificity levels, then
    #: declaration order (ascending).
    sort_key: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: The paper's "matching level": scope plus pattern specificity.  Rules
    #: at the same level are *all* associated with a node and their
    #: formulas race to the lowest value (§4.2, Step 3).
    level: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Provenance shown by explain(): ``"predicate[oo7]: select(...)"``.
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.rule.specificity()
        scope = int(self.scope)
        set_ = object.__setattr__
        set_(self, "sort_key", (-scope, *(-level for level in spec), self.order))
        set_(self, "level", (scope, *spec))
        set_(self, "label", f"{self.scope}[{self.source}]: {self.rule.name}")


_SORT_KEY = attrgetter("sort_key")


@dataclass(frozen=True)
class RuleMatch:
    """A successful unification of a scoped rule with a plan node."""

    scoped: ScopedRule
    bindings: Bindings

    @property
    def rule(self) -> CostRule:
        return self.scoped.rule

    @property
    def scope(self) -> Scope:
        return self.scoped.scope


def providing(matches: Iterable[RuleMatch], variable: str) -> list[RuleMatch]:
    """From a node's matches (most specific first), those to use for one
    variable: every match at the highest matching level that provides it
    (§4.2 Steps 1 & 3 — the first providing level wins, same-level
    matches race)."""
    selected: list[RuleMatch] = []
    best_level: tuple[int, ...] | None = None
    for match in matches:
        scoped = match.scoped
        if variable not in scoped.rule.provides:
            continue
        if best_level is None:
            best_level = scoped.level
        elif scoped.level != best_level:
            # Matches are sorted, so the first lower level ends it.
            break
        selected.append(match)
    return selected


class RuleRepository:
    """All scoped rules known to one mediator.

    Wrapper rules are integrated at registration time (§4.1: "Integration
    consists of compiling the rules ... and transmitting the results of
    compilation to the mediator"); formula compilation happened when the
    :class:`~repro.core.formulas.Formula` objects were built, so adding a
    rule here only indexes it.
    """

    def __init__(self, use_dispatch_index: bool = True) -> None:
        self.use_dispatch_index = use_dispatch_index
        self._rules: list[ScopedRule] = []
        # (source, operator) -> that source's rules, kept sorted on insert.
        self._index: dict[tuple[str, str], list[ScopedRule]] = {}
        # Fully pinned select rules (bound collection, attribute, op and
        # value) hash directly on their constants, so a thousand
        # query-specific rules cost one dict probe, not a scan — the
        # §3.3.2 "virtual tables" point.
        self._pinned: dict[tuple, list[ScopedRule]] = {}
        # The "virtual table": (node source or None, operator) -> the rules
        # a node may use, most specific first — the source's bucket and the
        # mediator's merged, ordered and scope-filtered.  Built on first
        # lookup; any change to the rule set starts a new, empty table.
        self._table: dict[tuple[str | None, str], tuple[ScopedRule, ...]] = {}
        self._orders: dict[tuple[str, Scope], int] = {}

    # -- registration -----------------------------------------------------------

    def _place(self, rule: CostRule, scope: Scope, source: str) -> ScopedRule:
        key = (source, scope)
        order = self._orders.get(key, 0)
        self._orders[key] = order + 1
        scoped = ScopedRule(rule, scope, source, order)
        self._insert(scoped)
        return scoped

    def _insert(self, scoped: ScopedRule) -> None:
        self._rules.append(scoped)
        pinned_key = self._pinned_key_for_rule(scoped)
        if pinned_key is not None:
            bucket = self._pinned.setdefault(pinned_key, [])
        else:
            bucket = self._index.setdefault(
                (scoped.source, scoped.rule.head.operator), []
            )
        insort(bucket, scoped, key=_SORT_KEY)
        self._table = {}

    @staticmethod
    def _pinned_key_for_rule(scoped: ScopedRule) -> tuple | None:
        """Hash key for a wrapper's fully bound select rule, or None.
        (The mediator's own rules stay in its operator bucket: a node is
        only ever probed under the source that owns it.)"""
        head = scoped.rule.head
        if (
            type(head) is not OperatorPattern
            or head.operator != "select"
            or scoped.source == MEDIATOR_SOURCE
        ):
            return None
        pred = head.predicate
        if not isinstance(pred, SelectPredPattern):
            return None
        collection = head.collections[0]
        if (
            isinstance(collection, Var)
            or isinstance(pred.attribute, Var)
            or isinstance(pred.value, Var)
        ):
            return None
        try:
            hash(pred.value)
        except TypeError:
            return None
        return (scoped.source, collection, pred.attribute, pred.op, pred.value)

    @staticmethod
    def _pinned_key_for_node(node: PlanNode, source: str) -> tuple | None:
        """The pinned-bucket key a select node would hash to, or None."""
        if not isinstance(node, Select):
            return None
        predicate = node.predicate
        if not isinstance(predicate, Comparison):
            return None
        predicate = predicate.normalized()
        if not predicate.is_attr_value:
            return None
        collection = node.primary_collection()
        if collection is None:
            return None
        attribute = predicate.left
        literal = predicate.right
        assert isinstance(attribute, AttributeRef)
        assert isinstance(literal, Literal)
        try:
            hash(literal.value)
        except TypeError:
            return None
        return (source, collection, attribute.name, predicate.op, literal.value)

    def add_default_rule(self, rule: CostRule) -> ScopedRule:
        """Install a generic-model rule (default-scope)."""
        return self._place(rule, Scope.DEFAULT, MEDIATOR_SOURCE)

    def add_local_rule(self, rule: CostRule) -> ScopedRule:
        """Install a mediator local-scope rule (physical mediator operators)."""
        return self._place(rule, Scope.LOCAL, MEDIATOR_SOURCE)

    def add_wrapper_rule(self, source: str, rule: CostRule) -> ScopedRule:
        """Install a wrapper-exported rule, deriving its scope from the head."""
        if source == MEDIATOR_SOURCE:
            raise CostModelError(
                f"wrapper rules cannot use the reserved source {source!r}"
            )
        return self._place(rule, classify_wrapper_rule(rule), source)

    def add_wrapper_rules(self, source: str, rules: Iterable[CostRule]) -> None:
        for rule in rules:
            self.add_wrapper_rule(source, rule)

    def add_query_rule(self, source: str, rule: CostRule) -> ScopedRule:
        """Install a query-scope rule (§4.3.1 historical costs)."""
        return self._place(rule, Scope.QUERY, source)

    def remove_source(self, source: str) -> int:
        """Drop every rule of a source (wrapper re-registration).  Returns
        the number of rules removed."""
        before = len(self._rules)
        self._rules = [s for s in self._rules if s.source != source]
        for key in [k for k in self._index if k[0] == source]:
            del self._index[key]
        for key in [k for k in self._pinned if k[0] == source]:
            del self._pinned[key]
        for key in [k for k in self._orders if k[0] == source]:
            del self._orders[key]
        self._table = {}
        return before - len(self._rules)

    # -- lookup --------------------------------------------------------------------

    @staticmethod
    def _visible(scoped: ScopedRule, source: str | None) -> bool:
        """Mediator-local nodes must not see a wrapper's rules; and a
        wrapper node must not use LOCAL-scope rules (the mediator runs a
        physical algebra locally, §4.1 footnote)."""
        if source is None:
            return scoped.scope in (Scope.LOCAL, Scope.DEFAULT)
        return scoped.scope is not Scope.LOCAL

    def _candidate_rules(
        self, node: PlanNode, source: str | None
    ) -> Iterable[ScopedRule]:
        """Scoped rules that could match ``node`` owned by ``source``
        (``None`` = a mediator-local node), most specific first."""
        operator = node.operator_name
        if not self.use_dispatch_index:
            wanted_sources = (MEDIATOR_SOURCE, source)
            return sorted(
                (
                    s
                    for s in self._rules
                    if s.source in wanted_sources
                    and s.rule.head.operator == operator
                    and self._visible(s, source)
                ),
                key=_SORT_KEY,
            )
        # Read the table before the buckets: a registration updates the
        # buckets first and then starts a new table, so an entry built
        # from buckets it has not finished with lands in the table it
        # has already discarded.
        table = self._table
        rules = table.get((source, operator))
        if rules is None:
            merged = self._index.get((MEDIATOR_SOURCE, operator), [])
            if source is not None and source != MEDIATOR_SOURCE:
                merged = self._index.get((source, operator), []) + merged
            rules = table[(source, operator)] = tuple(
                s for s in sorted(merged, key=_SORT_KEY) if self._visible(s, source)
            )
        if source is not None and self._pinned:
            pinned = self._pinned.get(self._pinned_key_for_node(node, source))
            if pinned:
                # Pinned rules are wrapper-owned, hence visible here.
                return sorted(pinned + list(rules), key=_SORT_KEY)
        return rules

    def matches(self, node: PlanNode, source: str | None) -> list[RuleMatch]:
        """All rules matching ``node``, most specific first."""
        found: list[RuleMatch] = []
        for scoped in self._candidate_rules(node, source):
            bindings = scoped.rule.match(node)
            if bindings is not None:
                found.append(RuleMatch(scoped, bindings))
        return found

    def matches_providing(
        self, node: PlanNode, source: str | None, variable: str
    ) -> list[RuleMatch]:
        """The matches to use for one variable: every match at the highest
        matching level that provides the variable (§4.2 Steps 1 & 3)."""
        return providing(self.matches(node, source), variable)

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def rules_for_source(self, source: str) -> list[ScopedRule]:
        return [s for s in self._rules if s.source == source]

    def describe(self) -> str:
        """Render the hierarchy, outermost (default) scope first —
        a textual Figure 10."""
        lines: list[str] = []
        by_scope: dict[Scope, list[ScopedRule]] = {}
        for scoped in self._rules:
            by_scope.setdefault(scoped.scope, []).append(scoped)
        for scope in sorted(by_scope, key=int):
            lines.append(f"{scope}:")
            for scoped in by_scope[scope]:
                lines.append(f"  [{scoped.source}] {scoped.rule}")
        return "\n".join(lines)
