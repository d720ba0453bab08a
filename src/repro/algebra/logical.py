"""The mediator algebra (§2.2).

"Although there exist many different data source managers, the basic
algebraic operators are always the same" — the mediator algebra covers:

* unary operators: :class:`Scan`, :class:`Select`, :class:`Project`,
  :class:`Sort`;
* binary operators: :class:`Join`, :class:`Union`;
* aggregate operators: :class:`Distinct` (duplicate elimination) and
  :class:`Aggregate` (grouping with SUM/AVG/COUNT/MIN/MAX);
* :class:`Submit`, "used to model the issuing of a subplan to a wrapper".

Plans are immutable trees.  Every node knows its ``operator_name`` (the
name rule heads match on), its children, and how to describe itself.

The cost estimator annotates plans externally (it never mutates nodes), so
a single plan object can be costed under several cost models — exactly
what the benchmark harness does when comparing the generic, calibrated and
blended estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.algebra.expressions import AttributeRef, Comparison, Predicate
from repro.errors import PlanError

_node_ids = itertools.count(1)
_NOT_COMPUTED = object()

#: Aggregate function names supported by :class:`Aggregate`.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: ``function(attribute) AS alias``.

    ``attribute`` may be ``None`` only for ``count`` (i.e. ``COUNT(*)``).
    """

    function: str
    attribute: str | None
    alias: str

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")
        if self.attribute is None and self.function != "count":
            raise PlanError(f"{self.function}(*) is not defined")

    def __str__(self) -> str:
        inner = self.attribute if self.attribute is not None else "*"
        return f"{self.function}({inner}) AS {self.alias}"


class PlanNode:
    """Base class of logical plan nodes.

    Node identity (``node_id``) is used by the estimator to key its
    annotations; structural equality is intentionally *not* defined so two
    occurrences of the same subtree cost independently.
    """

    operator_name: str = "?"
    #: :meth:`primary_collection`, computed on first use (plans are
    #: immutable, and rule matching asks once per rule per variable).
    _primary_collection: Any = _NOT_COMPUTED

    def __init__(self) -> None:
        self.node_id = next(_node_ids)

    # -- tree structure -------------------------------------------------------

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    # -- semantics helpers ------------------------------------------------------

    def base_collections(self) -> set[str]:
        """Names of all base collections scanned under this node."""
        names: set[str] = set()
        for node in self.walk():
            if isinstance(node, Scan):
                names.add(node.collection)
        return names

    def primary_collection(self) -> str | None:
        """The collection a rule-head name argument should match.

        A unary pipeline over a single scan has that scan's collection as
        its primary; joins and unions have none (a rule head naming a
        collection cannot match a multi-collection input).
        """
        primary = self._primary_collection
        if primary is _NOT_COMPUTED:
            collections = self.base_collections()
            primary = next(iter(collections)) if len(collections) == 1 else None
            self._primary_collection = primary
        return primary

    # -- display ---------------------------------------------------------------

    def describe(self) -> str:
        """One-line description of this node alone."""
        return self.operator_name

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the subtree."""
        lines = ["  " * indent + self.describe()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.node_id} {self.describe()}>"


class Scan(PlanNode):
    """Scan a base collection: ``scan(employee)``."""

    operator_name = "scan"

    def __init__(self, collection: str) -> None:
        super().__init__()
        if not collection:
            raise PlanError("scan needs a collection name")
        self.collection = collection

    def describe(self) -> str:
        return f"scan({self.collection})"


class Select(PlanNode):
    """Filter rows by a predicate: ``select(C, A = V)``."""

    operator_name = "select"

    def __init__(self, child: PlanNode, predicate: Predicate) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"select({self.predicate})"


class Project(PlanNode):
    """Keep only the named attributes: ``project(C, a, b)``.

    ``attributes`` are the *output* names; ``renames`` optionally maps an
    output name to the input attribute it reads (``SELECT oid AS sid``
    becomes ``attributes=("sid",), renames={"sid": "oid"}``).
    """

    operator_name = "project"

    def __init__(
        self,
        child: PlanNode,
        attributes: Sequence[str],
        renames: dict[str, str] | None = None,
    ) -> None:
        super().__init__()
        if not attributes:
            raise PlanError("project needs at least one attribute")
        self.child = child
        self.attributes = tuple(attributes)
        self.renames = dict(renames or {})
        for output in self.renames:
            if output not in self.attributes:
                raise PlanError(
                    f"rename target {output!r} is not a projected attribute"
                )

    def source_of(self, output: str) -> str:
        """The input attribute an output column reads."""
        return self.renames.get(output, output)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        parts = [
            f"{self.renames[a]} AS {a}" if a in self.renames else a
            for a in self.attributes
        ]
        return f"project({', '.join(parts)})"


class Sort(PlanNode):
    """Order rows by one or more keys."""

    operator_name = "sort"

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        descending: bool = False,
    ) -> None:
        super().__init__()
        if not keys:
            raise PlanError("sort needs at least one key")
        self.child = child
        self.keys = tuple(keys)
        self.descending = descending

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        direction = " DESC" if self.descending else ""
        return f"sort({', '.join(self.keys)}{direction})"


class Distinct(PlanNode):
    """Eliminate duplicate rows (the paper's duplicate-elimination
    aggregate operator)."""

    operator_name = "distinct"

    def __init__(self, child: PlanNode) -> None:
        super().__init__()
        self.child = child

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "distinct()"


class Aggregate(PlanNode):
    """Group rows and compute aggregate functions (§2.2)."""

    operator_name = "aggregate"

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        super().__init__()
        if not aggregates and not group_by:
            raise PlanError("aggregate needs group keys or aggregate specs")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        parts = [str(spec) for spec in self.aggregates]
        if self.group_by:
            parts.append(f"BY {', '.join(self.group_by)}")
        return f"aggregate({'; '.join(parts)})"


class Join(PlanNode):
    """Equi-join of two inputs: ``join(C1, C2, a1 = a2)``.

    ``predicate`` must be a :class:`Comparison` between two attribute
    references (the Figure 9 ``<join pred>`` shape); richer join conditions
    are expressed as a Select above a Join by the translator.
    """

    operator_name = "join"

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Comparison,
    ) -> None:
        super().__init__()
        if not isinstance(predicate, Comparison) or not predicate.is_attr_attr:
            raise PlanError(
                f"join predicate must compare two attributes, got {predicate}"
            )
        self.left = left
        self.right = right
        self.predicate = predicate

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def left_attribute(self) -> AttributeRef:
        assert isinstance(self.predicate.left, AttributeRef)
        return self.predicate.left

    @property
    def right_attribute(self) -> AttributeRef:
        assert isinstance(self.predicate.right, AttributeRef)
        return self.predicate.right

    def describe(self) -> str:
        return f"join({self.predicate})"


class BindJoin(PlanNode):
    """A dependent (bind) join: evaluate the outer side, then probe the
    inner *collection* at its wrapper with the outer join-key values.

    This is the classical mediator technique for the situation §7
    motivates — "avoid processing a large number of images by first
    selecting a few images from other data source": instead of shipping
    the whole inner collection, the mediator sends the (few) outer keys
    as a disjunctive selection the inner wrapper can answer through its
    index.

    The inner side is *parameterized*, not a static subtree: at runtime
    the executor builds ``select(scan(inner), inner_attr IN outer-keys
    [AND inner_filters])`` batches and submits them to ``wrapper``.
    ``children`` therefore contains only the outer plan.
    """

    operator_name = "bindjoin"

    def __init__(
        self,
        outer: PlanNode,
        outer_attribute: AttributeRef,
        inner_collection: str,
        inner_attribute: AttributeRef,
        wrapper: str,
        inner_filters: Predicate | None = None,
        batch_size: int = 50,
    ) -> None:
        super().__init__()
        if not inner_collection or not wrapper:
            raise PlanError("bindjoin needs an inner collection and wrapper")
        if batch_size < 1:
            raise PlanError("bindjoin batch size must be >= 1")
        self.outer = outer
        self.outer_attribute = outer_attribute
        self.inner_collection = inner_collection
        self.inner_attribute = inner_attribute
        self.wrapper = wrapper
        self.inner_filters = inner_filters
        self.batch_size = batch_size

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.outer,)

    def base_collections(self) -> set[str]:
        return super().base_collections() | {self.inner_collection}

    def describe(self) -> str:
        return (
            f"bindjoin({self.outer_attribute} -> "
            f"{self.inner_collection}.{self.inner_attribute.name} @ {self.wrapper})"
        )


class Union(PlanNode):
    """Bag union of two union-compatible inputs."""

    operator_name = "union"

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return "union()"


class Submit(PlanNode):
    """Issue a subplan to a wrapper (§2.2's ``submit`` operator).

    Everything strictly below a Submit executes at the named wrapper;
    everything above executes at the mediator.  The cost of a Submit node
    covers shipping the subquery and the result rows.
    """

    operator_name = "submit"

    def __init__(
        self,
        child: PlanNode,
        wrapper: str,
        *,
        shard: int | None = None,
        shard_of: str | None = None,
    ) -> None:
        super().__init__()
        if not wrapper:
            raise PlanError("submit needs a wrapper name")
        self.child = child
        self.wrapper = wrapper
        #: Shard identity when this submit is a :class:`Scatter` branch:
        #: the scheme index of the shard it targets and the *logical*
        #: collection being fanned out.  Telemetry-only metadata — it
        #: never changes what the wrapper executes, so plans with and
        #: without it behave identically.
        self.shard = shard
        self.shard_of = shard_of

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"submit[{self.wrapper}]"


class Scatter(PlanNode):
    """Fan one subquery out to the shards of a partitioned collection.

    A beyond-the-paper operator: each branch is a :class:`Submit` carrying
    the same subquery against one shard's physical collection, and the
    gather is a bag union in branch order.  ``collection`` is the
    *logical* name — :meth:`base_collections` reports it (not the
    physical shard names) so join validation, rule-head unification and
    statistics lookups see the partitioned collection with its aggregated
    statistics.  ``total_shards`` records the scheme size; a pruned
    scatter carries fewer branches than ``total_shards``.
    """

    operator_name = "scatter"

    def __init__(
        self,
        branches: Sequence["Submit"],
        collection: str,
        shard_key: str,
        total_shards: int,
    ) -> None:
        super().__init__()
        if not branches:
            raise PlanError("scatter needs at least one branch")
        for branch in branches:
            if not isinstance(branch, Submit):
                raise PlanError(
                    f"scatter branches must be submits, got {branch.describe()}"
                )
        if total_shards < len(branches):
            raise PlanError(
                f"scatter has {len(branches)} branches but only "
                f"{total_shards} total shards"
            )
        if not collection or not shard_key:
            raise PlanError("scatter needs a collection and shard key")
        self.branches = tuple(branches)
        self.collection = collection
        self.shard_key = shard_key
        self.total_shards = total_shards

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return self.branches

    def base_collections(self) -> set[str]:
        return {self.collection}

    def describe(self) -> str:
        return (
            f"scatter[{self.collection}/"
            f"{len(self.branches)} of {self.total_shards} shards]"
        )


@dataclass
class _Validation:
    """Accumulates problems found by :func:`validate_plan`."""

    problems: list[str] = field(default_factory=list)

    def complain(self, node: PlanNode, message: str) -> None:
        self.problems.append(f"{node.describe()}: {message}")


def validate_plan(root: PlanNode) -> None:
    """Check structural invariants of a plan; raise :class:`PlanError`.

    Invariants: Submit nodes are not nested (a wrapper never re-submits),
    every Scan appears under at most one Submit, and join predicates refer
    to attributes available from the respective sides when qualified.
    """
    report = _Validation()
    _validate(root, inside_submit=False, report=report)
    if report.problems:
        raise PlanError("; ".join(report.problems))


def _validate(node: PlanNode, inside_submit: bool, report: _Validation) -> None:
    if isinstance(node, BindJoin) and inside_submit:
        report.complain(node, "bindjoin inside a submit (wrappers cannot probe)")
    if isinstance(node, Scatter) and inside_submit:
        report.complain(node, "scatter inside a submit (wrappers cannot fan out)")
    if isinstance(node, Submit):
        if inside_submit:
            report.complain(node, "nested submit")
        _validate(node.child, True, report)
        return
    if isinstance(node, Join) and node.predicate.is_attr_attr:
        left_col = node.predicate.left.collection  # type: ignore[union-attr]
        right_col = node.predicate.right.collection  # type: ignore[union-attr]
        if left_col and left_col not in node.left.base_collections():
            if left_col in node.right.base_collections():
                report.complain(node, "join predicate sides are swapped")
            else:
                report.complain(
                    node, f"left attribute names unknown collection {left_col!r}"
                )
        if right_col and right_col not in node.right.base_collections():
            if right_col not in node.left.base_collections():
                report.complain(
                    node, f"right attribute names unknown collection {right_col!r}"
                )
    for child in node.children:
        _validate(child, inside_submit, report)


def clone_plan(root: PlanNode) -> PlanNode:
    """Deep-copy a plan tree with *fresh* node ids.

    Used when a subtree must be re-costed under a different source
    assignment (replica candidates): an estimator memo keys on node id
    and its values depend on the owning source, so a node object is only
    ever priced under one wrapper.  Scans are rebuilt too — every node
    in the clone is new.
    """
    if isinstance(root, Submit):
        return Submit(
            clone_plan(root.child),
            root.wrapper,
            shard=root.shard,
            shard_of=root.shard_of,
        )
    if isinstance(root, Scan):
        return Scan(root.collection)
    if isinstance(root, Select):
        return Select(clone_plan(root.child), root.predicate)
    if isinstance(root, Project):
        return Project(clone_plan(root.child), root.attributes, root.renames)
    if isinstance(root, Sort):
        return Sort(clone_plan(root.child), root.keys, root.descending)
    if isinstance(root, Distinct):
        return Distinct(clone_plan(root.child))
    if isinstance(root, Aggregate):
        return Aggregate(clone_plan(root.child), root.group_by, root.aggregates)
    if isinstance(root, Join):
        return Join(clone_plan(root.left), clone_plan(root.right), root.predicate)
    if isinstance(root, BindJoin):
        return BindJoin(
            clone_plan(root.outer),
            root.outer_attribute,
            root.inner_collection,
            root.inner_attribute,
            root.wrapper,
            root.inner_filters,
            root.batch_size,
        )
    if isinstance(root, Union):
        return Union(clone_plan(root.left), clone_plan(root.right))
    if isinstance(root, Scatter):
        branches = [clone_plan(branch) for branch in root.branches]
        return Scatter(
            branches,  # type: ignore[arg-type]
            root.collection,
            root.shard_key,
            root.total_shards,
        )
    return root


def strip_submits(root: PlanNode) -> PlanNode:
    """Return the same plan with Submit nodes removed (for wrappers that
    execute the raw algebra)."""
    if isinstance(root, Submit):
        return strip_submits(root.child)
    if isinstance(root, Select):
        return Select(strip_submits(root.child), root.predicate)
    if isinstance(root, Project):
        return Project(strip_submits(root.child), root.attributes, root.renames)
    if isinstance(root, Sort):
        return Sort(strip_submits(root.child), root.keys, root.descending)
    if isinstance(root, Distinct):
        return Distinct(strip_submits(root.child))
    if isinstance(root, Aggregate):
        return Aggregate(strip_submits(root.child), root.group_by, root.aggregates)
    if isinstance(root, Join):
        return Join(strip_submits(root.left), strip_submits(root.right), root.predicate)
    if isinstance(root, BindJoin):
        return BindJoin(
            strip_submits(root.outer),
            root.outer_attribute,
            root.inner_collection,
            root.inner_attribute,
            root.wrapper,
            root.inner_filters,
            root.batch_size,
        )
    if isinstance(root, Union):
        return Union(strip_submits(root.left), strip_submits(root.right))
    if isinstance(root, Scatter):
        # Submit-free scatter semantics collapse to a union chain over the
        # shard subplans (the gather is a bag union in branch order).
        stripped = [strip_submits(branch) for branch in root.branches]
        result = stripped[0]
        for branch in stripped[1:]:
            result = Union(result, branch)
        return result
    return root
