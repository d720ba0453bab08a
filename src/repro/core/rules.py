"""Cost rules: operator patterns, unification, and specificity (§3.3.2).

A cost rule binds an *operator pattern* (the rule head) to a list of
formulas (the rule body).  During cost estimation each plan node is
matched against rule heads; "the binding mechanism unifies each variable
in the pattern with a corresponding value from the operator being
estimated".  A head argument may be:

* a **bound name** — ``select(Employee, ...)`` matches only nodes whose
  input derives from the ``Employee`` collection;
* a **free variable** — ``select(C, P)`` matches any select, binding ``C``
  to the input and ``P`` to the predicate.

The paper orders matches by specificity: "(i) unification on the
collection name; (ii) unification on the attribute name; (iii) unification
on the predicate operation and the predicate arguments ... we select the
most specific rule, with more bound parameters.  In case of multiple rules
matching at the same level, we select the first one in the order given by
the wrapper implementor."  :meth:`OperatorPattern.specificity` encodes the
levels lexicographically and :mod:`repro.core.scopes` applies the
declaration-order tie-break.

Beyond Figure 9's ``=``-only predicates, patterns here accept all six
comparison operators, which the paper's Figure 13 rule needs conceptually
(range selections on ``Id``) — a documented, conservative grammar
extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, Union as TUnion

from repro.algebra.expressions import AttributeRef, Comparison, Literal, Predicate
from repro.algebra.logical import (
    BindJoin,
    Join,
    PlanNode,
    Scan,
    Scatter,
    Select,
    Submit,
)
from repro.core.formulas import Formula, RESULT_VARIABLES, parse_formula
from repro.errors import CostModelError

#: Operators a rule head may name (the mediator algebra of §2.2).
PATTERN_OPERATORS = (
    "scan",
    "select",
    "project",
    "sort",
    "distinct",
    "aggregate",
    "join",
    "bindjoin",
    "union",
    "submit",
    "scatter",
)

_UNARY_WITH_PRED = ("select",)
_BINARY = ("join", "union")


@dataclass(frozen=True)
class Var:
    """A free variable in a rule head (by convention capitalised)."""

    name: str

    def __str__(self) -> str:
        return self.name


#: A collection argument: a bound collection name or a free variable.
CollectionArg = TUnion[str, Var]

Bindings = dict[str, Any]


@dataclass(frozen=True)
class SelectPredPattern:
    """Pattern over the Figure 9 ``<sel pred>`` shape ``A op V``.

    ``attribute`` and ``value`` may be bound or free; ``op`` is always
    bound (a rule about ``=`` should not silently cover ``<``).
    """

    attribute: str | Var
    op: str
    value: Any | Var

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value}"


@dataclass(frozen=True)
class JoinPredPattern:
    """Pattern over the Figure 9 ``<join pred>`` shape ``A1 = A2``."""

    left_attribute: str | Var
    right_attribute: str | Var

    def __str__(self) -> str:
        return f"{self.left_attribute} = {self.right_attribute}"


@dataclass(frozen=True)
class AnyPredicate:
    """A whole-predicate free variable: ``select(C, P)``."""

    var: Var

    def __str__(self) -> str:
        return str(self.var)


PredicateArg = TUnion[SelectPredPattern, JoinPredPattern, AnyPredicate, None]


def _collection_matches(arg: CollectionArg, node_input: Any) -> tuple[bool, Bindings]:
    """Unify one collection argument of a pattern with a node input.

    ``node_input`` is a collection name for scans, else a child plan node
    whose :meth:`primary_collection` provides the name to match.
    """
    if isinstance(arg, Var):
        return True, {arg.name: node_input}
    if isinstance(node_input, str):
        return (node_input == arg), {}
    if isinstance(node_input, PlanNode):
        return (node_input.primary_collection() == arg), {}
    return False, {}


@dataclass(frozen=True)
class OperatorPattern:
    """A rule head: operator name plus collection/predicate arguments."""

    operator: str
    collections: tuple[CollectionArg, ...] = ()
    predicate: PredicateArg = None

    def __post_init__(self) -> None:
        if self.operator not in PATTERN_OPERATORS:
            raise CostModelError(f"unknown operator {self.operator!r} in rule head")
        expected = 2 if self.operator in _BINARY else 1
        if len(self.collections) != expected:
            raise CostModelError(
                f"{self.operator} pattern needs {expected} collection argument(s), "
                f"got {len(self.collections)}"
            )
        if isinstance(self.predicate, JoinPredPattern) and self.operator != "join":
            raise CostModelError("join-predicate pattern on a non-join operator")
        if isinstance(self.predicate, SelectPredPattern) and self.operator != "select":
            raise CostModelError("select-predicate pattern on a non-select operator")

    # -- specificity --------------------------------------------------------------

    def specificity(self) -> tuple[int, int, int, int]:
        """(bound collections, bound predicate shape, bound attributes,
        bound values), compared lexicographically.

        The second component distinguishes ``select(C, A = V)`` — which
        pins the predicate *operation* (the paper's level iii covers "the
        predicate operation and the predicate arguments") — from
        ``select(C, P)``, whose whole-predicate variable matches anything.
        """
        collections_bound = sum(
            1 for arg in self.collections if not isinstance(arg, Var)
        )
        shape_bound = 0
        attributes_bound = 0
        values_bound = 0
        pred = self.predicate
        if isinstance(pred, SelectPredPattern):
            shape_bound = 1
            if not isinstance(pred.attribute, Var):
                attributes_bound += 1
            if not isinstance(pred.value, Var):
                values_bound += 1
        elif isinstance(pred, JoinPredPattern):
            shape_bound = 1
            for attribute in (pred.left_attribute, pred.right_attribute):
                if not isinstance(attribute, Var):
                    attributes_bound += 1
        return (collections_bound, shape_bound, attributes_bound, values_bound)

    # -- unification ---------------------------------------------------------------

    def match(self, node: PlanNode) -> Bindings | None:
        """Unify this pattern with a plan node.

        Returns the variable bindings on success, ``None`` on failure.
        Bindings map variable names to: a collection name (scan inputs),
        a child :class:`PlanNode` (other inputs), an attribute name, a
        literal value, or a whole :class:`Predicate`.
        """
        if node.operator_name != self.operator:
            return None
        bindings: Bindings = {}

        inputs = self._node_inputs(node)
        if inputs is None or len(inputs) != len(self.collections):
            return None
        for arg, node_input in zip(self.collections, inputs):
            ok, new = _collection_matches(arg, node_input)
            if not ok:
                return None
            bindings.update(new)

        if not self._match_predicate(node, bindings):
            return None
        return bindings

    @staticmethod
    def _node_inputs(node: PlanNode) -> list[Any] | None:
        """The values the pattern's collection arguments unify against."""
        if isinstance(node, Scan):
            return [node.collection]
        if isinstance(node, Submit):
            return [node.child]
        if isinstance(node, BindJoin):
            return [node.outer]
        if isinstance(node, Scatter):
            # One collection argument — the *logical* name; a rule head
            # may pin it even though the node fans out to N branches.
            return [node.collection]
        children = list(node.children)
        if not children:
            return None
        return children

    def _match_predicate(self, node: PlanNode, bindings: Bindings) -> bool:
        pred_pattern = self.predicate
        if pred_pattern is None:
            return True
        if isinstance(pred_pattern, AnyPredicate):
            node_predicate = getattr(node, "predicate", None)
            if node_predicate is None:
                return False
            bindings[pred_pattern.var.name] = node_predicate
            return True
        if isinstance(pred_pattern, SelectPredPattern):
            return self._match_select_pred(node, pred_pattern, bindings)
        if isinstance(pred_pattern, JoinPredPattern):
            return self._match_join_pred(node, pred_pattern, bindings)
        return False

    @staticmethod
    def _match_select_pred(
        node: PlanNode, pattern: SelectPredPattern, bindings: Bindings
    ) -> bool:
        if not isinstance(node, Select):
            return False
        predicate = node.predicate
        if not isinstance(predicate, Comparison):
            return False
        predicate = predicate.normalized()
        if not predicate.is_attr_value:
            return False
        attribute = predicate.left
        value = predicate.right
        assert isinstance(attribute, AttributeRef)
        assert isinstance(value, Literal)
        if predicate.op != pattern.op:
            return False
        if isinstance(pattern.attribute, Var):
            bindings[pattern.attribute.name] = attribute.name
        elif pattern.attribute != attribute.name:
            return False
        if isinstance(pattern.value, Var):
            bindings[pattern.value.name] = value.value
        elif pattern.value != value.value:
            return False
        return True

    @staticmethod
    def _match_join_pred(
        node: PlanNode, pattern: JoinPredPattern, bindings: Bindings
    ) -> bool:
        if not isinstance(node, Join):
            return False
        left = node.left_attribute
        right = node.right_attribute
        if isinstance(pattern.left_attribute, Var):
            bindings[pattern.left_attribute.name] = left.name
        elif pattern.left_attribute != left.name:
            return False
        if isinstance(pattern.right_attribute, Var):
            bindings[pattern.right_attribute.name] = right.name
        elif pattern.right_attribute != right.name:
            return False
        return True

    def __str__(self) -> str:
        args = [str(arg) for arg in self.collections]
        if self.predicate is not None:
            args.append(str(self.predicate))
        return f"{self.operator}({', '.join(args)})"


@dataclass
class CostRule:
    """A rule head plus its formula body (§3.3.2).

    "The rule body is the formula itself; the body may contain more than
    one formula depending on how many costs are provided."  Formulas are
    ordered: a local assignment (e.g. ``CountPage = ...`` in Figure 13) is
    visible to the formulas after it.

    Attributes:
        head: the operator pattern.
        formulas: ordered formula list (result and local assignments).
        name: optional label for provenance (shown by explain()).
        order: declaration order as the implementor wrote it (the CDL
            compiler numbers a file's rules).  A repository does not read
            or write it: the per-scope tie-break order of a registered
            rule lives on its :class:`~repro.core.scopes.ScopedRule`.
    """

    head: OperatorPattern
    formulas: list[Formula]
    name: str = ""
    order: int = 0
    #: The grammar result variables this rule can compute.
    provides: frozenset[str] = field(init=False, repr=False, compare=False)
    #: Local (non-result) variables assigned by the body.
    locals_: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.formulas:
            raise CostModelError(f"rule {self.head} has an empty body")
        if not self.name:
            self.name = str(self.head)

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name == "formulas":
            # The estimator asks these three questions once per formula
            # evaluation, so the answers are tabulated whenever the body is
            # (re)assigned — §4.3.1 history replaces a rule's body in place.
            by_target: dict[str, list[Formula]] = {}
            for formula in value:
                by_target.setdefault(formula.target, []).append(formula)
            self._by_target = {
                target: tuple(group) for target, group in by_target.items()
            }
            self.provides = frozenset(by_target).intersection(RESULT_VARIABLES)
            self.locals_ = frozenset(by_target).difference(RESULT_VARIABLES)

    def formulas_for(self, variable: str) -> tuple[Formula, ...]:
        """All body formulas assigning ``variable``, in order."""
        return self._by_target.get(variable, ())

    def specificity(self) -> tuple[int, int, int, int]:
        return self.head.specificity()

    def match(self, node: PlanNode) -> Bindings | None:
        return self.head.match(node)

    def __str__(self) -> str:
        body = "; ".join(str(f) for f in self.formulas)
        return f"{self.head} {{ {body} }}"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def var(name: str) -> Var:
    """Create a free variable for use in rule heads."""
    return Var(name)


def rule(
    head: OperatorPattern,
    body: Sequence[str] | Sequence[Formula] | Mapping[str, str],
    name: str = "",
) -> CostRule:
    """Build a :class:`CostRule` from formula texts, objects, or a mapping.

    Example::

        rule(scan_pattern("Employee"),
             ["TotalTime = 120 + Employee.TotalSize * 12"])
    """
    formulas: list[Formula] = []
    if isinstance(body, Mapping):
        formulas = [parse_formula(f"{target} = {text}") for target, text in body.items()]
    else:
        for item in body:
            formulas.append(item if isinstance(item, Formula) else parse_formula(item))
    return CostRule(head=head, formulas=formulas, name=name)


def scan_pattern(collection: CollectionArg) -> OperatorPattern:
    """``scan(C)`` head."""
    return OperatorPattern("scan", (collection,))


def select_pattern(
    collection: CollectionArg,
    predicate: PredicateArg = None,
) -> OperatorPattern:
    """``select(C, P)`` head; ``predicate=None`` matches any select."""
    if predicate is None:
        predicate = AnyPredicate(Var("P"))
    return OperatorPattern("select", (collection,), predicate)


def select_eq_pattern(
    collection: CollectionArg,
    attribute: str | Var,
    value: Any | Var,
    op: str = "=",
) -> OperatorPattern:
    """``select(C, A op V)`` head."""
    return OperatorPattern(
        "select", (collection,), SelectPredPattern(attribute, op, value)
    )


def project_pattern(collection: CollectionArg) -> OperatorPattern:
    """``project(C, ...)`` head (attribute list always free)."""
    return OperatorPattern("project", (collection,))


def join_pattern(
    left: CollectionArg,
    right: CollectionArg,
    left_attribute: str | Var | None = None,
    right_attribute: str | Var | None = None,
) -> OperatorPattern:
    """``join(C1, C2, A1 = A2)`` head; omit attributes to match any
    join predicate."""
    predicate: PredicateArg = None
    if left_attribute is not None or right_attribute is not None:
        predicate = JoinPredPattern(
            left_attribute if left_attribute is not None else Var("A1"),
            right_attribute if right_attribute is not None else Var("A2"),
        )
    return OperatorPattern("join", (left, right), predicate)


def unary_pattern(operator: str, collection: CollectionArg) -> OperatorPattern:
    """Head for the remaining unary operators (sort/distinct/aggregate/
    submit/scatter)."""
    return OperatorPattern(operator, (collection,))


def union_pattern(left: CollectionArg, right: CollectionArg) -> OperatorPattern:
    """``union(C1, C2)`` head."""
    return OperatorPattern("union", (left, right))


def most_specific_first(rules: Iterable[CostRule]) -> list[CostRule]:
    """Sort rules by descending specificity, stable on declaration order."""
    return sorted(
        rules,
        key=lambda r: tuple(-level for level in r.specificity()) + (r.order,),
    )
