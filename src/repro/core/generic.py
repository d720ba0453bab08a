"""The mediator's generic cost model (§2.3).

"When no specific information are given by wrappers, the mediator
estimates the cost of plans using a cost model ... for simplicity, the
generic cost model does not separate CPU and IO costs, which are buried in
global cost formulas parameters."

The model distinguishes, exactly as the paper describes:

* **unary operators** — two cases, *sequential scan* and *index scan*; the
  relevant one is selected through the index-presence statistic and, per
  §4.2 Step 3, by installing both formulas at the same matching level so
  the cheaper estimate wins;
* **binary operators** — three cases, *index join*, *nested loops* and
  *sort-merge*: "When an index is existing, the index join formula is
  selected, otherwise the best of the two others is chosen" — again
  realized as three same-level rules racing to the lowest value;
* selectivities derived from ``Min``/``Max``/``CountDistinct`` (§2.3), and
  join cardinality from ``1 / max(CountDistinct(A), CountDistinct(B))``.

Every rule is installed at **default scope**, so any wrapper-exported rule
at wrapper/collection/predicate scope overrides it per variable — that is
the leverage mechanism of the paper's title.  A parallel set with
mediator-local coefficients is installed at **local scope** for operators
the mediator executes itself (§4.1 footnote).

The numeric coefficients live in :class:`GenericCoefficients`; the
registration probe fit (:mod:`repro.mediator.probe_fit`) estimates them per
source class, following [DKS92]/[GST96].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from repro.algebra.expressions import (
    And,
    AttributeRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.algebra.logical import BindJoin, Join, PlanNode, Scan, Select, Submit
from repro.core import selectivity as sel_mod
from repro.core.formulas import PythonFormula, Value
from repro.core.rules import (
    CostRule,
    OperatorPattern,
    join_pattern,
    scan_pattern,
    select_pattern,
    unary_pattern,
    union_pattern,
    var,
)
from repro.core.scopes import RuleRepository
from repro.core.statistics import (
    STANDARD_COUNT_DISTINCT,
    STANDARD_COUNT_OBJECT,
    STANDARD_OBJECT_SIZE,
    AttributeStats,
)

#: An "impossible" cost used by method formulas that do not apply (no
#: index, wrong shape).  Under the lowest-value policy it simply loses.
NOT_APPLICABLE = math.inf

#: Fan-out network multiplier for scatter communication (Snippet 3's
#: multi-node scan factor): a full S-shard scatter serializes its
#: per-branch transfers through the mediator's network interface under
#: contention, priced at this multiple of the lone-branch cost.  A
#: pruned single-shard lookup pays multiplier 1 — the Snippet 3
#: "sharding access fraction" (~0.1 at S=10) then falls out of simply
#: not paying the other S-1 branches.
SCATTER_NETWORK_MULTIPLIER = 5.0


@dataclass
class GenericCoefficients:
    """The calibrated time parameters of the generic model (milliseconds).

    Names follow the three-form scheme of §2.3 — overheads feed
    ``TimeFirst``, per-object terms feed ``TimeNext``/``TotalTime``.
    """

    # unary operators
    ms_scan_startup: float = 100.0
    ms_per_object_scanned: float = 10.0
    ms_index_startup: float = 50.0
    ms_per_object_index: float = 12.0
    ms_per_object_filter: float = 0.5
    ms_per_object_project: float = 0.2
    # binary operators
    ms_per_pair_nested_loop: float = 0.2
    ms_sort_factor: float = 0.8
    ms_per_object_merge: float = 0.4
    ms_per_probe_index_join: float = 26.0
    ms_per_object_fetch: float = 10.0
    # aggregates / sets
    ms_per_object_hash: float = 0.6
    # communication (submit)
    ms_per_message: float = 150.0
    ms_per_byte: float = 0.002
    # generic output term
    ms_per_object_output: float = 1.0

    def scaled(self, factor: float) -> "GenericCoefficients":
        """A uniformly scaled copy (useful for modelling faster devices)."""
        values = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return GenericCoefficients(**values)


#: Coefficients for operators executed by the mediator itself: pure
#: in-memory processing, no device I/O.
MEDIATOR_COEFFICIENTS = GenericCoefficients(
    ms_scan_startup=1.0,
    ms_per_object_scanned=0.05,
    ms_index_startup=1.0,
    ms_per_object_index=0.06,
    ms_per_object_filter=0.02,
    ms_per_object_project=0.01,
    ms_per_pair_nested_loop=0.02,
    ms_sort_factor=0.03,
    ms_per_object_merge=0.02,
    ms_per_probe_index_join=0.06,
    ms_per_object_fetch=0.05,
    ms_per_object_hash=0.03,
    ms_per_message=150.0,
    ms_per_byte=0.002,
    ms_per_object_output=0.02,
)


class CoefficientSet:
    """Per-source calibrated coefficients with a shared default.

    The calibrating approach specializes the generic model "for a class of
    systems"; each registered wrapper may get its own fitted coefficients
    while unknown sources fall back to the defaults.
    """

    def __init__(self, default: GenericCoefficients | None = None) -> None:
        self.default = default or GenericCoefficients()
        self._per_source: dict[str, GenericCoefficients] = {}
        self.mediator = MEDIATOR_COEFFICIENTS

    def set_source(self, source: str, coefficients: GenericCoefficients) -> None:
        self._per_source[source] = coefficients

    def for_source(self, source: str | None) -> GenericCoefficients:
        if source is None:
            return self.mediator
        return self._per_source.get(source, self.default)

    def sources(self) -> list[str]:
        return sorted(self._per_source)


def _coeffs(ctx) -> GenericCoefficients:
    """Coefficients of the node a formula is evaluating: its source's
    calibrated set, or the mediator's for a node the mediator runs."""
    return ctx.coefficients.for_source(ctx.source)


# ---------------------------------------------------------------------------
# Predicate selectivity (native derivation, §2.3)
# ---------------------------------------------------------------------------


def _attribute_stats(ctx, attribute: AttributeRef) -> AttributeStats:
    stats = ctx.attribute_stats(attribute.collection, attribute.name)
    if stats is None:
        stats = ctx.estimation.estimator.default_attribute_stats(attribute.name)
    return stats


def predicate_selectivity(ctx, predicate: Predicate) -> float:
    """Estimate the fraction of input rows a predicate keeps.

    Conjunctions multiply, disjunctions use inclusion–exclusion, negation
    complements; comparisons use the uniform estimators of
    :mod:`repro.core.selectivity` over the catalog statistics, with §6's
    standard fallback values when statistics are missing.
    """
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, And):
        return predicate_selectivity(ctx, predicate.left) * predicate_selectivity(
            ctx, predicate.right
        )
    if isinstance(predicate, Or):
        left = predicate_selectivity(ctx, predicate.left)
        right = predicate_selectivity(ctx, predicate.right)
        return min(1.0, left + right - left * right)
    if isinstance(predicate, Not):
        return max(0.0, 1.0 - predicate_selectivity(ctx, predicate.operand))
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(ctx, predicate.normalized())
    return 1.0 / 3.0


def _comparison_selectivity(ctx, comparison: Comparison) -> float:
    if comparison.is_attr_attr:
        # Attribute-to-attribute restriction inside one collection.
        return 0.1
    if not comparison.is_attr_value:
        return 1.0 / 3.0
    attribute = comparison.left
    literal = comparison.right
    assert isinstance(attribute, AttributeRef) and isinstance(literal, Literal)
    stats = _attribute_stats(ctx, attribute)
    op = comparison.op
    if op == "=":
        return sel_mod.equality_selectivity(stats)
    if op == "!=":
        return sel_mod.inequality_selectivity(stats)
    if op in ("<", "<="):
        return sel_mod.range_selectivity(
            stats, None, literal.value, high_inclusive=(op == "<=")
        )
    return sel_mod.range_selectivity(
        stats, literal.value, None, low_inclusive=(op == ">=")
    )


def _single_indexed_comparison(ctx, node: PlanNode) -> Comparison | None:
    """The comparison enabling an index access path, if any.

    Requires the select to sit directly on a Scan (the access-path shape)
    and the restricted attribute to be exported as indexed.
    """
    if not isinstance(node, Select) or not isinstance(node.child, Scan):
        return None
    predicate = node.predicate
    comparisons = [
        c.normalized()
        for c in predicate.conjuncts()
        if isinstance(c, Comparison) and c.normalized().is_attr_value
    ]
    for comparison in comparisons:
        attribute = comparison.left
        assert isinstance(attribute, AttributeRef)
        stats = ctx.attribute_stats(attribute.collection, attribute.name)
        if stats is not None and stats.indexed:
            return comparison
    return None


def _join_selectivity(ctx, node: Join) -> float:
    left_stats = ctx.attribute_stats(
        node.left_attribute.collection or node.left.primary_collection(),
        node.left_attribute.name,
    )
    right_stats = ctx.attribute_stats(
        node.right_attribute.collection or node.right.primary_collection(),
        node.right_attribute.name,
    )
    if left_stats is None and right_stats is None:
        return 0.01
    fallback = AttributeStats(name="?", count_distinct=None)
    return sel_mod.join_selectivity(left_stats or fallback, right_stats or fallback)


def _join_index(ctx, node: Join) -> AttributeStats | None:
    """§2.3: "When an index is existing, the index join formula is
    selected" — applicable when the right input is a base scan with an
    exported index on the join attribute, whose statistics these are."""
    right = node.right
    if not isinstance(right, Scan):
        return None
    right_stats = ctx.attribute_stats(right.collection, node.right_attribute.name)
    return right_stats if right_stats is not None and right_stats.indexed else None


# ---------------------------------------------------------------------------
# Inputs that overlap: the executor's wave model, stated once
# ---------------------------------------------------------------------------


def makespan(durations: list[float], max_concurrency: int | None = None) -> float:
    """Completion time of ``durations`` under greedy list scheduling.

    Branches are assigned, in order, to the earliest-available of
    ``max_concurrency`` slots (unbounded when ``None``); the makespan is
    the latest slot finish time.  With one slot this degenerates to the
    sequential sum, with unbounded slots to the plain max.  The simulated
    executor's :class:`~repro.sources.clock.ParallelClock` commits its
    waves with this function, so estimate and simulation agree.
    """
    if not durations:
        return 0.0
    slots_count = (
        len(durations)
        if max_concurrency is None
        else max(1, min(max_concurrency, len(durations)))
    )
    slots = [0.0] * slots_count
    for duration in durations:
        if duration < 0:
            raise ValueError(f"negative branch duration: {duration}")
        earliest = min(range(slots_count), key=lambda i: slots[i])
        slots[earliest] += duration
    return max(slots)


def _makespan(ctx, waits: list[float]) -> float:
    """List-scheduled completion time of one dispatch wave, under the
    concurrency bound the executor declares (``ctx.execution``)."""
    return makespan(waits, ctx.execution.max_concurrency)


def _wave_total(ctx, submits_per_child, network_factor: float = 1.0) -> float:
    """``TotalTime`` of children dispatched as one submit wave.

    Mirrors the executor's concurrent dispatch: each child's time splits
    into the communication of the Submits beneath it — serialized at the
    mediator, never more than the child's whole time — and the wrapper
    wait that remains; the waits overlap (:func:`_makespan`), the
    communication adds up, scaled by ``network_factor``.
    """
    coeffs = ctx.coefficients.mediator
    waits: list[float] = []
    communication = 0.0
    for index, submits in enumerate(submits_per_child):
        total = ctx.child_value("TotalTime", index)
        comm = 0.0
        for submit in submits:
            size = float(ctx.estimation.value_of(submit, "TotalSize"))
            comm += 2.0 * coeffs.ms_per_message + size * coeffs.ms_per_byte
        comm = min(comm, total)
        communication += comm
        waits.append(total - comm)
    return _makespan(ctx, waits) + network_factor * communication


#: What :func:`_inputs_total` may read of a child: its time, and — when the
#: child is itself one of the wave's Submits — its size.
_INPUT_READS = ("TotalTime", "TotalSize")


def _inputs_total(ctx) -> float:
    """Combined ``TotalTime`` of the two inputs of a join or union.

    The §2.3 additive sum, unless the executor declares concurrent
    dispatch, the mediator runs the node, and every input reaches wrappers
    through Submit nodes — then the inputs are one wave
    (:func:`_wave_total`), so the optimizer prefers plans whose submits
    overlap.
    """
    if ctx.execution.parallel_submits and ctx.source is None:
        submits_per_child = [
            [d for d in child.walk() if isinstance(d, Submit)]
            for child in ctx.node.children
        ]
        if all(submits_per_child):
            return _wave_total(ctx, submits_per_child)
    return ctx.child_value("TotalTime", 0) + ctx.child_value("TotalTime", 1)


# ---------------------------------------------------------------------------
# Formula shapes: each body is written once and leaves its builder finished —
# label and the child / own variables it reads declared right beside the reads
# ---------------------------------------------------------------------------


def _formula(
    target: str,
    label: str,
    body: Callable[..., Value] | None = None,
    *,
    child: tuple[str, ...] = (),
    own: tuple[str, ...] = (),
):
    """The finished formula ``target = <generic:label>`` whose ``body`` reads
    the ``child`` variables of the node's children and the ``own`` variables
    of the node itself; without a body, the decorator that finishes one."""
    if body is None:
        return lambda body: _formula(target, label, body, child=child, own=own)
    return PythonFormula(
        target,
        body,
        source=f"{target} = <generic:{label}>",
        child_requirements=frozenset(child),
        own_requirements=frozenset(own),
    )


def _carry(variable: str, label: str) -> PythonFormula:
    """``variable`` passes through from the (first) child unchanged."""
    return _formula(
        variable, label, lambda ctx: ctx.child_value(variable), child=(variable,)
    )


def _sum_of_children(variable: str, label: str) -> PythonFormula:
    """``variable`` adds up over every child: a union's two inputs, a
    scatter's branches."""

    @_formula(variable, label, child=(variable,))
    def children_sum(ctx) -> Value:
        return sum(
            ctx.child_value(variable, index)
            for index in range(len(ctx.node.children))
        )

    return children_sum


def _catalog_statistic(target: str, label: str, statistic: str) -> PythonFormula:
    """``target`` is a statistic of the scanned collection (§6 standard
    values when the catalog lacks it)."""

    @_formula(target, label)
    def catalog_statistic(ctx) -> Value:
        stats = ctx.estimation.estimator.stats_for(ctx.match.bindings["C"])
        return float(getattr(stats, statistic))

    return catalog_statistic


def _per_object_surcharge(label: str, coefficient: str) -> PythonFormula:
    """``TotalTime`` of a streaming unary operator: the child's time plus
    one ``coefficient`` per object the child delivers."""

    @_formula("TotalTime", label, child=("TotalTime", "CountObject"))
    def surcharged(ctx) -> Value:
        per_object = getattr(_coeffs(ctx), coefficient)
        return (
            ctx.child_value("TotalTime")
            + ctx.child_value("CountObject") * per_object
        )

    return surcharged


def _blocking_first(label: str) -> PythonFormula:
    """A blocking operator: the first tuple appears only at the end
    ("TimeFirst accounts for query start up time and, in particular, sort
    operations", §2.3)."""
    return _formula(
        "TimeFirst", label, lambda ctx: ctx.own_value("TotalTime"), own=("TotalTime",)
    )


def _first_of_inputs(label: str, combine: Callable[..., float]) -> PythonFormula:
    """``TimeFirst`` of a binary operator from its two inputs' ``TimeFirst``."""

    @_formula("TimeFirst", label, child=("TimeFirst",))
    def first(ctx) -> Value:
        return combine(ctx.child_value("TimeFirst", 0), ctx.child_value("TimeFirst", 1))

    return first


def _child_width(ctx) -> float:
    return ctx.child_value("ObjectSize")


def _own_count_times(
    label: str,
    width: Callable[..., float] = _child_width,
    child: tuple[str, ...] = ("ObjectSize",),
) -> PythonFormula:
    """``TotalSize`` = the node's own ``CountObject`` × the ``width`` of one
    result object; ``child`` names what ``width`` reads of the children."""
    return _formula(
        "TotalSize",
        label,
        lambda ctx: ctx.own_value("CountObject") * width(ctx),
        child=child,
        own=("CountObject",),
    )


def _unindexed_join(
    label: str, method_terms: Callable[..., tuple[float, ...]]
) -> PythonFormula:
    """``TotalTime`` of a join method that scans both inputs: the inputs
    (:func:`_inputs_total`) plus the method's own terms, added in order.

    §2.3 precedence: the index-join formula is *selected* when an index
    exists; only otherwise do nested-loop and sort-merge race.
    """

    @_formula("TotalTime", label, child=("CountObject", *_INPUT_READS))
    def total_time(ctx) -> Value:
        if _join_index(ctx, ctx.node) is not None:
            return NOT_APPLICABLE
        coeffs = _coeffs(ctx)
        n1 = ctx.child_value("CountObject", 0)
        n2 = ctx.child_value("CountObject", 1)
        total = _inputs_total(ctx)
        for term in method_terms(coeffs, n1, n2):
            total += term
        return total

    return total_time


@_formula("TimeNext", "avg-per-tuple", own=("TotalTime", "TimeFirst", "CountObject"))
def _time_next(ctx) -> Value:
    """Catch-all ``TimeNext = (TotalTime - TimeFirst) / CountObject``."""
    total = ctx.own_value("TotalTime")
    first = ctx.own_value("TimeFirst")
    count = max(1.0, ctx.own_value("CountObject"))
    return max(0.0, (total - first)) / count


# ---------------------------------------------------------------------------
# Bodies only one rule uses
# ---------------------------------------------------------------------------


@_formula("TotalTime", "seq-scan", own=("CountObject",))
def _seq_scan_time(ctx) -> Value:
    coeffs = _coeffs(ctx)
    count = ctx.own_value("CountObject")
    return coeffs.ms_scan_startup + count * coeffs.ms_per_object_scanned


@_formula("CountObject", "select-card", child=("CountObject",))
def _select_card(ctx) -> Value:
    selectivity = predicate_selectivity(ctx, ctx.node.predicate)
    return ctx.child_value("CountObject") * selectivity


@_formula("TotalTime", "index-scan", child=("CountObject",))
def _index_scan_time(ctx) -> Value:
    comparison = _single_indexed_comparison(ctx, ctx.node)
    if comparison is None:
        return NOT_APPLICABLE
    coeffs = _coeffs(ctx)
    selectivity = predicate_selectivity(ctx, ctx.node.predicate)
    base_count = ctx.child_value("CountObject")
    selected = selectivity * base_count
    return coeffs.ms_index_startup + selected * coeffs.ms_per_object_index


@_formula("TimeFirst", "index-scan-first")
def _index_scan_first(ctx) -> Value:
    if _single_indexed_comparison(ctx, ctx.node) is None:
        return NOT_APPLICABLE
    return _coeffs(ctx).ms_index_startup


@_formula("TotalSize", "project-size", child=("TotalSize",))
def _project_size(ctx) -> Value:
    node = ctx.node
    stats = ctx.primary_stats_or_none()
    if stats is not None and stats.attributes:
        fraction = min(1.0, len(node.attributes) / len(stats.attributes))
    else:
        fraction = 0.5
    return ctx.child_value("TotalSize") * fraction


@_formula("TotalTime", "sort-time", child=("TotalTime", "CountObject"))
def _sort_time(ctx) -> Value:
    coeffs = _coeffs(ctx)
    count = ctx.child_value("CountObject")
    return ctx.child_value("TotalTime") + coeffs.ms_sort_factor * count * math.log2(
        count + 2.0
    )


@_formula("CountObject", "agg-card", child=("CountObject",))
def _aggregate_card(ctx) -> Value:
    node = ctx.node
    child_count = ctx.child_value("CountObject")
    if not node.group_by:
        return 1.0
    stats = ctx.primary_stats_or_none()
    groups = 1.0
    for attribute in node.group_by:
        attr_stats = None
        if stats is not None and attribute in stats.attributes:
            attr_stats = stats.attributes[attribute]
        if attr_stats is not None and attr_stats.count_distinct:
            groups *= attr_stats.count_distinct
        else:
            groups *= math.sqrt(max(1.0, child_count))
    return min(child_count, groups)


@_formula("CountObject", "join-card", child=("CountObject",))
def _join_card(ctx) -> Value:
    selectivity = _join_selectivity(ctx, ctx.node)
    return (
        ctx.child_value("CountObject", 0)
        * ctx.child_value("CountObject", 1)
        * selectivity
    )


def _sort_merge_terms(coeffs, n1: float, n2: float) -> tuple[float, ...]:
    sort_cost = coeffs.ms_sort_factor * (
        n1 * math.log2(n1 + 2.0) + n2 * math.log2(n2 + 2.0)
    )
    return (sort_cost, (n1 + n2) * coeffs.ms_per_object_merge)


# Not an :func:`_unindexed_join`: the right input is probed, never scanned,
# so only the left input's time is paid and there is no wave to overlap.
@_formula("TotalTime", "index-join", child=("TotalTime", "CountObject"))
def _index_join_time(ctx) -> Value:
    right_stats = _join_index(ctx, ctx.node)
    if right_stats is None:
        return NOT_APPLICABLE
    coeffs = _coeffs(ctx)
    n1 = ctx.child_value("CountObject", 0)
    n2 = ctx.child_value("CountObject", 1)
    matches_per_probe = n2 / max(1.0, float(right_stats.count_distinct or n2))
    probe_cost = coeffs.ms_per_probe_index_join + (
        matches_per_probe * coeffs.ms_per_object_fetch
    )
    return ctx.child_value("TotalTime", 0) + n1 * probe_cost


def _inner_count(ctx) -> float:
    """Cardinality of a bind join's inner collection (§6 standard value
    when the catalog lacks it)."""
    inner = ctx.stats_or_none(ctx.node.inner_collection)
    return float(inner.count_object if inner is not None else STANDARD_COUNT_OBJECT)


@_formula("CountObject", "bindjoin-card", child=("CountObject",))
def _bindjoin_card(ctx) -> Value:
    node: BindJoin = ctx.node
    inner_count = _inner_count(ctx)
    inner_attr = ctx.attribute_stats(node.inner_collection, node.inner_attribute.name)
    distinct = float(
        inner_attr.count_distinct
        if inner_attr is not None and inner_attr.count_distinct
        else STANDARD_COUNT_DISTINCT
    )
    matches_per_key = inner_count / max(1.0, distinct)
    selectivity = 1.0
    if node.inner_filters is not None:
        selectivity = predicate_selectivity(ctx, node.inner_filters)
    return ctx.child_value("CountObject") * matches_per_key * selectivity


def _bindjoin_width(ctx) -> float:
    inner = ctx.stats_or_none(ctx.node.inner_collection)
    inner_width = float(
        inner.object_size if inner is not None else STANDARD_OBJECT_SIZE
    )
    return ctx.child_value("ObjectSize") + inner_width


@_formula("TotalTime", "bind-join", child=("TotalTime", "CountObject"))
def _bindjoin_time(ctx) -> Value:
    node: BindJoin = ctx.node
    inner_attr = ctx.attribute_stats(node.inner_collection, node.inner_attribute.name)
    if inner_attr is None or not inner_attr.indexed:
        # Probing without an index means one inner scan per batch —
        # never competitive; let the classic join win.
        return NOT_APPLICABLE
    inner_coeffs = ctx.coefficients.for_source(node.wrapper)
    # Estimated distinct outer join-key values to probe with.
    keys = ctx.child_value("CountObject")
    outer_attr = ctx.attribute_stats(
        node.outer_attribute.collection or node.outer.primary_collection(),
        node.outer_attribute.name,
    )
    if outer_attr is not None and outer_attr.count_distinct:
        keys = min(keys, float(outer_attr.count_distinct))
    inner_count = _inner_count(ctx)
    matches_per_key = inner_count / max(
        1.0, float(inner_attr.count_distinct or inner_count)
    )
    # Each probe is one index lookup at the inner source; the
    # calibrated per-selected-object index coefficient (fitted by the
    # [GST96] procedure) prices the retrieved objects.
    probe_cost = inner_coeffs.ms_index_startup / max(
        1.0, node.batch_size
    ) + matches_per_key * max(
        inner_coeffs.ms_per_object_index, inner_coeffs.ms_per_object_fetch
    )
    batches = math.ceil(keys / node.batch_size)
    communication = 2.0 * batches * ctx.coefficients.mediator.ms_per_message
    probe_time = keys * probe_cost
    if ctx.execution.parallel_submits and batches > 1:
        # Probe batches dispatch as one wave: the inner-source waits
        # overlap (communication stays serialized at the mediator).  Not a
        # :func:`_wave_total`: the probes are not plan children, so there
        # is no per-child time to split — the waits are priced directly.
        batch_keys = [float(node.batch_size)] * (batches - 1)
        batch_keys.append(keys - node.batch_size * (batches - 1))
        probe_time = _makespan(ctx, [k * probe_cost for k in batch_keys])
    return ctx.child_value("TotalTime") + communication + probe_time


@_formula("TotalTime", "union-time", child=_INPUT_READS, own=("CountObject",))
def _union_time(ctx) -> Value:
    coeffs = _coeffs(ctx)
    count = ctx.own_value("CountObject")
    return _inputs_total(ctx) + count * coeffs.ms_per_object_output


@_formula("TotalTime", "submit-time", child=("TotalTime", "TotalSize"))
def _submit_time(ctx) -> Value:
    coeffs = _coeffs(ctx)
    return (
        ctx.child_value("TotalTime")
        + 2.0 * coeffs.ms_per_message
        + ctx.child_value("TotalSize") * coeffs.ms_per_byte
    )


@_formula("TotalTime", "scatter-wave", child=_INPUT_READS)
def _scatter_time(ctx) -> Value:
    """Cost of fanning one subquery out to the shards of a partition.

    The scatter is mediator-executed and its branches always dispatch as
    one submit wave — :func:`_wave_total` with each branch its own Submit —
    with the communication scaled by a fan-out factor that interpolates
    from 1 (single pruned branch) to :data:`SCATTER_NETWORK_MULTIPLIER`
    (all ``total_shards`` branches).
    """
    node = ctx.node
    fanout = 1.0 + (SCATTER_NETWORK_MULTIPLIER - 1.0) * (
        len(node.branches) - 1
    ) / max(1, node.total_shards - 1)
    return _wave_total(ctx, [(branch,) for branch in node.branches], fanout)


@_formula("TimeFirst", "scatter-first", child=("TimeFirst",), own=("TotalTime",))
def _scatter_first(ctx) -> Value:
    # A lone pruned branch streams like the plain submit it wraps;
    # a true fan-out gathers in branch order, so conservatively the
    # first row waits for the whole wave.
    if len(ctx.node.children) == 1:
        return ctx.child_value("TimeFirst", 0)
    return ctx.own_value("TotalTime")


# ---------------------------------------------------------------------------
# The model: every rule, as a declaration over the shapes above
# ---------------------------------------------------------------------------

_C, _C1, _C2 = var("C"), var("C1"), var("C2")


def _complete(suffix: str, head: OperatorPattern, *four: PythonFormula):
    """A rule that provides every variable: its own four formulas plus the
    catch-all ``TimeNext``."""
    return suffix, head, (*four, _time_next)


#: ``(name suffix, head, body)`` in installation order — same-level rules
#: race in this order (§4.2 Step 3).  Formulas hold no state, so the one
#: table serves every scope and every repository.
_MODEL: tuple[tuple[str, OperatorPattern, tuple[PythonFormula, ...]], ...] = (
    _complete(
        "scan",
        scan_pattern(_C),
        _catalog_statistic("CountObject", "scan-card", "count_object"),
        _catalog_statistic("TotalSize", "scan-size", "total_size"),
        _formula("TimeFirst", "scan-first", lambda ctx: _coeffs(ctx).ms_scan_startup),
        _seq_scan_time,
    ),
    # Unary operators, two cases (§2.3): the sequential rule is complete,
    # the index rule races it on the two time variables.
    _complete(
        "select-seq",
        select_pattern(_C),
        _select_card,
        _own_count_times("select-size"),
        _carry("TimeFirst", "select-seq-first"),
        _per_object_surcharge("seq-filter", "ms_per_object_filter"),
    ),
    ("select-index", select_pattern(_C), (_index_scan_time, _index_scan_first)),
    _complete(
        "project",
        unary_pattern("project", _C),
        _carry("CountObject", "project-card"),
        _project_size,
        _carry("TimeFirst", "project-first"),
        _per_object_surcharge("project-time", "ms_per_object_project"),
    ),
    _complete(
        "sort",
        unary_pattern("sort", _C),
        _carry("CountObject", "sort-card"),
        _carry("TotalSize", "sort-size"),
        _sort_time,
        _blocking_first("sort-first"),
    ),
    _complete(
        "distinct",
        unary_pattern("distinct", _C),
        # Without value statistics of the full tuple, duplicate
        # elimination keeps everything (conservative upper bound).
        _carry("CountObject", "distinct-card"),
        _own_count_times("distinct-size"),
        _per_object_surcharge("distinct-time", "ms_per_object_hash"),
        _blocking_first("distinct-first"),
    ),
    _complete(
        "aggregate",
        unary_pattern("aggregate", _C),
        _aggregate_card,
        _own_count_times(
            "agg-size",
            lambda ctx: 16.0 * (len(ctx.node.group_by) + len(ctx.node.aggregates)),
            child=(),
        ),
        _per_object_surcharge("agg-time", "ms_per_object_hash"),
        _blocking_first("agg-first"),
    ),
    # Binary operators, three cases (§2.3): the nested-loop rule is
    # complete, the other two methods race it on TotalTime.
    _complete(
        "join-nested-loop",
        join_pattern(_C1, _C2),
        _join_card,
        _own_count_times(
            "join-size",
            lambda ctx: ctx.child_value("ObjectSize", 0) + ctx.child_value("ObjectSize", 1),
        ),
        _unindexed_join(
            "nested-loop-join",
            lambda coeffs, n1, n2: (n1 * n2 * coeffs.ms_per_pair_nested_loop,),
        ),
        _first_of_inputs("join-first", operator.add),
    ),
    (
        "join-sort-merge",
        join_pattern(_C1, _C2),
        (_unindexed_join("sort-merge-join", _sort_merge_terms),),
    ),
    ("join-index", join_pattern(_C1, _C2), (_index_join_time,)),
    _complete(
        "bindjoin",
        unary_pattern("bindjoin", _C),
        _bindjoin_card,
        _own_count_times("bindjoin-size", _bindjoin_width),
        _bindjoin_time,
        _formula(
            "TimeFirst",
            "bindjoin-first",
            lambda ctx: ctx.child_value("TotalTime")
            + ctx.coefficients.mediator.ms_per_message,
            child=("TotalTime",),
        ),
    ),
    _complete(
        "union",
        union_pattern(_C1, _C2),
        _sum_of_children("CountObject", "union-card"),
        _sum_of_children("TotalSize", "union-size"),
        _union_time,
        _first_of_inputs("union-first", min),
    ),
    _complete(
        "submit",
        unary_pattern("submit", _C),
        _carry("CountObject", "submit-card"),
        _carry("TotalSize", "submit-size"),
        _submit_time,
        _formula(
            "TimeFirst",
            "submit-first",
            lambda ctx: ctx.child_value("TimeFirst") + _coeffs(ctx).ms_per_message,
            child=("TimeFirst",),
        ),
    ),
    _complete(
        "scatter",
        unary_pattern("scatter", _C),
        _sum_of_children("CountObject", "scatter-card"),
        _sum_of_children("TotalSize", "scatter-size"),
        _scatter_time,
        _scatter_first,
    ),
)


def all_generic_rules(prefix: str = "generic") -> list[CostRule]:
    """Fresh rule instances of the whole model, named ``<prefix>-<rule>``."""
    return [
        CostRule(head=head, formulas=list(body), name=f"{prefix}-{suffix}")
        for suffix, head, body in _MODEL
    ]


def install_generic_model(repository: RuleRepository) -> int:
    """Install the generic model at default scope.  Returns rule count.

    "The mediator default cost model guarantees that at least one formula
    is found for every variable for every node" (§4.2) — after this call
    that guarantee holds.
    """
    rules = all_generic_rules()
    for generic_rule in rules:
        repository.add_default_rule(generic_rule)
    return len(rules)


def install_local_model(repository: RuleRepository) -> int:
    """Install the model at local scope for mediator-executed operators.

    Local rules shadow the default scope only for nodes the mediator runs
    itself (source ``None``); their coefficients come from
    ``CoefficientSet.mediator`` automatically via ``_coeffs``, so the rule
    bodies are the default scope's own — what differs is the coefficient
    set the context hands out.  Installing them still matters for the
    paper's architecture point: the mediator's physical operators occupy a
    distinct scope level (§4.1 footnote), and wrapper rules must never
    apply to them.
    """
    rules = all_generic_rules("local")
    for local_rule in rules:
        repository.add_local_rule(local_rule)
    return len(rules)


def standard_repository(use_dispatch_index: bool = True) -> RuleRepository:
    """A repository with the generic + local models installed."""
    repository = RuleRepository(use_dispatch_index=use_dispatch_index)
    install_generic_model(repository)
    install_local_model(repository)
    return repository
