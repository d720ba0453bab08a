"""The cost evaluation algorithm (§4, Figure 11).

Estimating a plan is a recursive tree traversal with two phases: "a
top-down traversal from the root to the leaves and then a bottom-up
traversal from the leaves to the root.  During the first phase cost
formulas are associated with nodes.  During the second phase the cost of
each operator is computed."

This module implements that algorithm with the paper's two Step-1
optimizations — "(i) at each node the required variables are analyzed ...
only formula that compute required variables are associated with a node;
(ii) if no variables required from a child node, the recursive call to the
child is cut" — realized as demand-driven evaluation: the estimator asks
the root node for the variables the caller wants, and each formula pulls
exactly the child variables it references.  Setting
``EstimatorOptions.propagate_required = False`` restores the unoptimized
full traversal (every node computes all five variables), which the
ablation benchmark compares against.

Step 3's conflict resolution — "all formulas are invoked and the lowest
value is assigned to the variable" — is the default
:data:`ConflictPolicy.LOWEST`; :data:`ConflictPolicy.FIRST` implements the
§3.3.2 declaration-order alternative for the ablation.

Section 4.3.2's branch-and-bound extension is available through the
``bound_ms`` argument of :meth:`CostEstimator.estimate`: as soon as any
computed (sub)plan ``TotalTime`` exceeds the bound, estimation aborts with
a pruned result.

A node's estimate never depends on its parents, and the optimizer builds
its candidates over shared subplan objects (the dynamic-programming
table), so a caller costing many plans may pass one ``memo`` dict to all
its :meth:`CostEstimator.estimate` calls: each shared node is then
unified with its rules once and each of its variables is computed once.
The memo is the caller's and is only as valid as the rules, statistics
and coefficients it was filled under — the optimizer makes one per
``optimize()`` call and drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Any, Callable

from repro.algebra.logical import PlanNode, Submit
from repro.core.formulas import (
    BUILTIN_FUNCTIONS,
    DERIVED_VARIABLES,
    RESULT_VARIABLES,
    Value,
)
from repro.core.generic import CoefficientSet
from repro.core.scopes import RuleMatch, RuleRepository, providing
from repro.core.statistics import (
    ATTRIBUTE_STATISTICS,
    COLLECTION_STATISTICS,
    STANDARD_COUNT_DISTINCT,
    STANDARD_COUNT_OBJECT,
    STANDARD_OBJECT_SIZE,
    AttributeStats,
    CollectionStats,
    StatisticsCatalog,
)
from repro.errors import (
    FormulaError,
    NoApplicableRuleError,
    UnknownStatisticError,
)
from repro.obs.trace import NULL_TRACER, SpanTracer


class ConflictPolicy(Enum):
    """How to resolve several same-level formulas for one variable."""

    LOWEST = "lowest"
    FIRST = "first"


@dataclass
class EstimatorOptions:
    """Tunable behaviour of the estimator (ablation knobs of DESIGN.md)."""

    conflict_policy: ConflictPolicy = ConflictPolicy.LOWEST
    #: Step-1 optimization: propagate required variables / cut child calls.
    propagate_required: bool = True


#: The paper's execution model — one submit after another, additive
#: ``TotalTime`` (§2.3): what an estimator assumes until the mediator
#: points :attr:`CostEstimator.execution` at its executor's options.
SEQUENTIAL_EXECUTION = SimpleNamespace(parallel_submits=False, max_concurrency=None)


class PlanPruned(Exception):
    """Raised internally when §4.3.2 pruning rejects the plan early."""

    def __init__(self, exceeded_ms: float) -> None:
        self.exceeded_ms = exceeded_ms
        super().__init__(f"plan pruned at {exceeded_ms:.3f} ms")


@dataclass
class NodeEstimate:
    """Computed variables of one plan node, with provenance.

    ``provenance`` maps each variable to a human-readable description of
    the rule that produced it (``"predicate[oo7]: select(AtomicParts, Id
    = V)"``), which ``explain`` output uses to show the blending at work.
    """

    node: PlanNode
    values: dict[str, Value] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    #: Estimator bookkeeping, per variable: the largest ``TotalTime``
    #: computed at or beneath this node while the variable was evaluated —
    #: what a §4.3.2 bound must be checked against when the value is
    #: served from a memo instead of being evaluated again.
    peaks: dict[str, float] = field(default_factory=dict, repr=False, compare=False)
    #: Estimator bookkeeping: the owning source and the rules unified with
    #: the node (once, on the first variable that needs them).
    source: str | None = field(default=None, repr=False, compare=False)
    matches: list[RuleMatch] | None = field(default=None, repr=False, compare=False)

    @property
    def total_time(self) -> float:
        return float(self.values.get("TotalTime", math.nan))

    @property
    def count_object(self) -> float:
        return float(self.values.get("CountObject", math.nan))


@dataclass
class PlanEstimate:
    """The result of costing one plan."""

    plan: PlanNode
    root: NodeEstimate
    nodes: dict[int, NodeEstimate]
    pruned: bool = False

    @property
    def total_time(self) -> float:
        """Estimated TotalTime of the whole plan, in milliseconds.

        For a pruned plan this is the partial cost at which estimation
        stopped — by construction it already exceeds the caller's bound.
        """
        return self.root.total_time

    def estimate_for(self, node: PlanNode) -> NodeEstimate:
        return self.nodes[node.node_id]

    def to_dict(self) -> dict:
        """Machine-readable plan estimate (the `explain(format="json")`
        payload): the plan tree with per-node values and provenance."""

        def node_dict(node: PlanNode) -> dict:
            estimate = self.nodes.get(node.node_id)
            payload: dict[str, Any] = {
                "operator": node.operator_name,
                "describe": node.describe(),
            }
            if estimate is not None:
                payload["values"] = {
                    variable: (
                        float(value) if isinstance(value, (int, float)) else value
                    )
                    for variable, value in estimate.values.items()
                }
                payload["provenance"] = dict(estimate.provenance)
            payload["children"] = [node_dict(child) for child in node.children]
            return payload

        return {
            "pruned": self.pruned,
            "total_time_ms": self.total_time,
            "plan": node_dict(self.plan),
        }

    def explain(self) -> str:
        """Indented plan rendering with costs and rule provenance."""
        lines: list[str] = []
        self._explain_node(self.plan, 0, lines)
        return "\n".join(lines)

    def _explain_node(self, node: PlanNode, indent: int, lines: list[str]) -> None:
        pad = "  " * indent
        estimate = self.nodes.get(node.node_id)
        if estimate is None:
            lines.append(f"{pad}{node.describe()}  [not costed]")
        else:
            parts = []
            for variable in ("CountObject", "TotalSize", "TotalTime"):
                if variable in estimate.values:
                    value = estimate.values[variable]
                    parts.append(f"{variable}={float(value):.1f}")  # type: ignore[arg-type]
            lines.append(f"{pad}{node.describe()}  [{', '.join(parts)}]")
            for variable in sorted(estimate.provenance):
                lines.append(
                    f"{pad}    {variable} <- {estimate.provenance[variable]}"
                )
        for child in node.children:
            self._explain_node(child, indent + 1, lines)


@dataclass
class SourceEnvironment:
    """Per-source evaluation extras: wrapper variables and functions (§3.3.1:
    "wrapper implementors may define their own local variables or functions
    to parameterize their formulas")."""

    name: str
    variables: dict[str, Value] = field(default_factory=dict)
    functions: dict[str, Callable[..., Value]] = field(default_factory=dict)
    context_functions: dict[str, Callable[..., Value]] = field(default_factory=dict)


@dataclass
class EstimatorCounters:
    """Work counters for the overhead benchmarks."""

    nodes_visited: int = 0
    variables_computed: int = 0
    formulas_evaluated: int = 0
    match_attempts: int = 0


class _NodeContext:
    """The :class:`EvaluationContext` a formula sees for one rule at one
    node.  Implements the Figure 7 path-resolution scheme."""

    def __init__(
        self,
        estimation: "_Estimation",
        node: PlanNode,
        source: str | None,
        match: RuleMatch,
    ) -> None:
        self.estimation = estimation
        self.node = node
        self.source = source
        self.match = match
        self.locals: dict[str, Value] = {}
        self._locals_in_progress: set[str] = set()

    # -- EvaluationContext ---------------------------------------------------

    def resolve_path(self, parts: tuple[str, ...]) -> Value:
        if len(parts) == 1:
            return self._resolve_single(parts[0])
        if len(parts) == 2:
            return self._resolve_double(parts[0], parts[1])
        return self._resolve_triple(parts[0], parts[1], parts[2])

    def resolve_function(self, name: str) -> Callable[..., Value]:
        env = self.estimation.estimator.source_environment(self.source)
        if name in env.functions:
            return env.functions[name]
        if name in env.context_functions:
            fn = env.context_functions[name]
            return lambda *args: fn(self, *args)
        if name in BUILTIN_FUNCTIONS:
            return BUILTIN_FUNCTIONS[name]
        raise FormulaError(
            f"unknown function {name!r} (source {self.source or 'mediator'})"
        )

    # -- resolution helpers -----------------------------------------------------

    def _resolve_single(self, name: str) -> Value:
        # 1. rule-local assignment (e.g. CountPage in the Figure 13 rule)
        local = self._maybe_local(name)
        if local is not None:
            return local
        # 2. pattern variable binding
        bindings = self.match.bindings
        if name in bindings:
            bound = bindings[name]
            if isinstance(bound, PlanNode):
                # A bare child reference has no scalar value; expose its
                # estimated cardinality, the most common intent.
                return self.estimation.value_of(bound, "CountObject")
            return bound  # scalars; predicates, attribute tuples: for functions
        # 3. the node's own result variable ("Variables without a
        #    collection name refer to the result of the formula")
        if name in RESULT_VARIABLES or name in DERIVED_VARIABLES:
            return self.estimation.value_of(self.node, name)
        # 4. wrapper-defined variable (PageSize = 4000)
        env = self.estimation.estimator.source_environment(self.source)
        if name in env.variables:
            return env.variables[name]
        raise FormulaError(f"unbound reference {name!r}")

    def _resolve_double(self, first: str, second: str) -> Value:
        subject = self._subject(first)
        if isinstance(subject, PlanNode):
            if second in RESULT_VARIABLES or second in DERIVED_VARIABLES:
                return self.estimation.value_of(subject, second)
            raise FormulaError(
                f"{first}.{second}: {second!r} is not a result variable"
            )
        if isinstance(subject, CollectionStats):
            if second in COLLECTION_STATISTICS:
                return subject.lookup(second)
            raise FormulaError(
                f"{first}.{second}: {second!r} is not a collection statistic"
            )
        if isinstance(subject, str) and second in ATTRIBUTE_STATISTICS:
            # ``A.Min`` where A is a bound attribute name: resolve against
            # the node's primary collection ("Attribute and Collection may
            # be omitted in non-ambiguous cases").
            stats = self._primary_stats()
            return stats.attribute(subject).lookup(second)
        raise FormulaError(f"cannot resolve {first}.{second}")

    def _resolve_triple(self, first: str, second: str, third: str) -> Value:
        subject = self._subject(first)
        if isinstance(subject, PlanNode):
            stats = self._stats_for_node(subject)
        elif isinstance(subject, CollectionStats):
            stats = subject
        else:
            raise FormulaError(f"cannot resolve {first}.{second}.{third}")
        attribute = second
        bindings = self.match.bindings
        if attribute in bindings and isinstance(bindings[attribute], str):
            attribute = bindings[attribute]
        if third not in ATTRIBUTE_STATISTICS:
            raise FormulaError(f"{third!r} is not an attribute statistic")
        return stats.attribute(attribute).lookup(third)

    def _subject(self, name: str) -> Any:
        """Resolve the first path component: binding, collection, or child."""
        bindings = self.match.bindings
        if name in bindings:
            bound = bindings[name]
            if isinstance(bound, PlanNode):
                return bound
            if isinstance(bound, str):
                # Collection name or attribute name; try collection first.
                catalog_stats = self.estimation.estimator.stats_or_none(bound)
                if catalog_stats is not None:
                    return catalog_stats
                return bound
            return bound
        catalog_stats = self.estimation.estimator.stats_or_none(name)
        if catalog_stats is not None:
            return catalog_stats
        return name

    def _primary_stats(self) -> CollectionStats:
        return self._stats_for_node(self.node)

    def _stats_for_node(self, node: PlanNode) -> CollectionStats:
        collection = node.primary_collection()
        if collection is None:
            raise FormulaError(
                f"node {node.describe()} has no unique base collection for "
                "attribute-statistic lookup"
            )
        return self.estimation.estimator.stats_for(collection)

    def _maybe_local(self, name: str) -> Value | None:
        if name in self.locals:
            return self.locals[name]
        rule = self.match.rule
        if name not in rule.locals_:
            return None
        if name in self._locals_in_progress:
            raise FormulaError(f"cyclic local variable {name!r} in rule {rule.name}")
        self._locals_in_progress.add(name)
        try:
            candidates = [
                formula.evaluate(self) for formula in rule.formulas_for(name)
            ]
        finally:
            self._locals_in_progress.discard(name)
        value = candidates[0] if len(candidates) == 1 else min(
            float(v) for v in candidates  # type: ignore[arg-type]
        )
        self.locals[name] = value
        return value

    # -- conveniences for native (generic-model) formulas -------------------------

    def child(self, index: int = 0) -> PlanNode:
        children = self.node.children
        if not children:
            raise FormulaError(f"{self.node.describe()} has no children")
        return children[index]

    def child_value(self, variable: str, index: int = 0) -> float:
        return float(self.estimation.value_of(self.child(index), variable))  # type: ignore[arg-type]

    def own_value(self, variable: str) -> float:
        return float(self.estimation.value_of(self.node, variable))  # type: ignore[arg-type]

    def stats_or_none(self, collection: str) -> CollectionStats | None:
        return self.estimation.estimator.stats_or_none(collection)

    def primary_stats_or_none(self) -> CollectionStats | None:
        collection = self.node.primary_collection()
        if collection is None:
            return None
        return self.estimation.estimator.stats_for(collection)

    def attribute_stats(
        self, collection: str | None, attribute: str
    ) -> AttributeStats | None:
        if collection is None:
            stats = self.primary_stats_or_none()
        else:
            stats = self.estimation.estimator.stats_for(collection)
        if stats is None:
            return None
        try:
            return stats.attribute(attribute)
        except UnknownStatisticError:
            return None

    @property
    def coefficients(self) -> CoefficientSet:
        return self.estimation.estimator.coefficients

    @property
    def execution(self) -> Any:
        """The executor's declaration of how submits dispatch."""
        return self.estimation.estimator.execution


#: ``NodeEstimate.peaks`` value when no TotalTime was computed beneath.
_NO_TIME = -math.inf


class _Estimation:
    """State of one estimate() run: the node table, counters, prune bound."""

    def __init__(
        self,
        estimator: "CostEstimator",
        table: dict[int, NodeEstimate],
        bound_ms: float | None,
    ) -> None:
        self.estimator = estimator
        #: node id -> estimate, for every node of the plan; the caller's
        #: memo when one was passed, so entries may arrive already filled.
        self.table = table
        self.bound_ms = bound_ms
        self.in_progress: set[tuple[int, str]] = set()
        self.counters = EstimatorCounters()
        #: Largest TotalTime computed so far beneath the variable being
        #: evaluated (one running value per :meth:`value_of` frame).
        self.peak = _NO_TIME

    def value_of(self, node: PlanNode, variable: str) -> Value:
        """Demand-driven Step-2/3 evaluation with memoization."""
        estimate = self.table[node.node_id]
        values = estimate.values
        if variable in values:
            # Computed earlier in this run, or by an earlier run sharing the
            # memo.  §4.3.2 fires on *any* TotalTime computed while a plan
            # is costed, so skipping the evaluation must not skip the
            # check: replay it against everything evaluated beneath.
            peak = estimate.peaks[variable]
            if peak > self.peak:
                self.peak = peak
                if self.bound_ms is not None and peak > self.bound_ms:
                    # The read that pruned the plan is the one variable it
                    # cost, as when a freshly computed TotalTime trips.
                    self.counters.variables_computed += 1
                    raise PlanPruned(peak)
            return values[variable]
        key = (node.node_id, variable)
        if key in self.in_progress:
            raise FormulaError(
                f"cyclic dependency computing {variable} of {node.describe()}"
            )
        self.in_progress.add(key)
        outer_peak = self.peak
        self.peak = _NO_TIME
        try:
            if variable in DERIVED_VARIABLES:
                value, provenance = self._derived(node, variable), "derived"
            else:
                value, provenance = self._compute(estimate, variable)
                self.counters.variables_computed += 1
            is_time = variable == "TotalTime" and isinstance(value, (int, float))
            if is_time and value > self.peak:
                self.peak = float(value)
            values[variable] = value
            estimate.provenance[variable] = provenance
            estimate.peaks[variable] = self.peak
        finally:
            self.in_progress.discard(key)
            if outer_peak > self.peak:
                self.peak = outer_peak
        if is_time and self.bound_ms is not None and value > self.bound_ms:
            raise PlanPruned(float(value))
        return value

    def _derived(self, node: PlanNode, variable: str) -> Value:
        assert variable == "ObjectSize"
        count = float(self.value_of(node, "CountObject"))  # type: ignore[arg-type]
        size = float(self.value_of(node, "TotalSize"))  # type: ignore[arg-type]
        return size / max(1.0, count)

    def _compute(self, estimate: NodeEstimate, variable: str) -> tuple[Value, str]:
        node = estimate.node
        source = estimate.source
        self.counters.match_attempts += 1
        if estimate.matches is None:
            # Unify the node with its candidate rules once; every variable
            # of the node is then served from that list.
            self.counters.nodes_visited += 1
            estimate.matches = self.estimator.repository.matches(node, source)
        matches = providing(estimate.matches, variable)
        if not matches:
            raise NoApplicableRuleError(
                f"no rule provides {variable} for {node.describe()} "
                f"(source {source or 'mediator'}) — is the generic model installed?"
            )
        lowest = self.estimator.options.conflict_policy is ConflictPolicy.LOWEST
        best_value: Value | None = None
        best: RuleMatch | None = None
        for match in matches:
            ctx = _NodeContext(self, node, source, match)
            for formula in match.rule.formulas_for(variable):
                self.counters.formulas_evaluated += 1
                value = formula.evaluate(ctx)
                if best is None or (
                    lowest
                    and isinstance(value, (int, float))
                    and isinstance(best_value, (int, float))
                    and value < best_value
                ):
                    best_value, best = value, match
                if not lowest:
                    break
            if not lowest and best is not None:
                break
        assert best is not None and best_value is not None
        best_provenance = best.scoped.label
        # Online calibration overlay: wrapper-owned predictions are
        # multiplied by the active coefficient for (wrapper, variable).
        # Mediator-side nodes (source None) are never calibrated — the
        # drift tracker only measures wrapper work.
        calibration = self.estimator.calibration
        if (
            calibration is not None
            and source is not None
            and isinstance(best_value, (int, float))
            and calibration.active.multipliers
        ):
            multiplier = calibration.multiplier_for(source, variable)
            if multiplier != 1.0:
                best_value = float(best_value) * multiplier
                best_provenance += (
                    f" | calibrated x{multiplier:.4g}"
                    f" (v{calibration.active_version})"
                )
        return best_value, best_provenance


class CostEstimator:
    """Costs plans against a rule repository, a statistics catalog, and
    per-source environments.

    This is the "cost computation module in the mediator" of §4: rules are
    integrated once (into ``repository``), then :meth:`estimate` is called
    for every candidate plan the optimizer generates.
    """

    def __init__(
        self,
        repository: RuleRepository,
        catalog: StatisticsCatalog,
        options: EstimatorOptions | None = None,
        coefficients: CoefficientSet | None = None,
    ) -> None:
        self.repository = repository
        self.catalog = catalog
        self.options = options or EstimatorOptions()
        self.coefficients = (
            coefficients if coefficients is not None else CoefficientSet()
        )
        #: How the executor dispatches submits: any object declaring
        #: ``parallel_submits`` and ``max_concurrency`` (the mediator wires
        #: in its ``ExecutorOptions``, the one place the pair is set).
        self.execution: Any = SEQUENTIAL_EXECUTION
        self._environments: dict[str, SourceEnvironment] = {}
        self._default_stats_cache: dict[str, CollectionStats] = {}
        self.last_counters = EstimatorCounters()
        #: Telemetry sink; defaults to the shared no-op tracer.
        self.tracer: SpanTracer = NULL_TRACER
        #: Online calibration overlay (duck-typed
        #: :class:`repro.mediator.calibration.CalibrationState`); the
        #: mediator wires the catalog's state in.  None = seed behaviour.
        self.calibration: Any = None

    # -- environments ------------------------------------------------------------

    def source_environment(self, source: str | None) -> SourceEnvironment:
        key = source or "__mediator__"
        if key not in self._environments:
            self._environments[key] = SourceEnvironment(name=key)
        return self._environments[key]

    def register_environment(self, env: SourceEnvironment) -> None:
        self._environments[env.name] = env

    # -- statistics ---------------------------------------------------------------

    def stats_or_none(self, collection: str) -> CollectionStats | None:
        if collection in self.catalog:
            return self.catalog.get(collection)
        return None

    def stats_for(self, collection: str) -> CollectionStats:
        """Statistics with the §6 "standard values" fallback."""
        if collection in self.catalog:
            return self.catalog.get(collection)
        if collection not in self._default_stats_cache:
            self._default_stats_cache[collection] = CollectionStats.from_extent(
                collection,
                count_object=STANDARD_COUNT_OBJECT,
                object_size=STANDARD_OBJECT_SIZE,
            )
        return self._default_stats_cache[collection]

    def default_attribute_stats(self, attribute: str) -> AttributeStats:
        return AttributeStats(
            name=attribute,
            indexed=False,
            count_distinct=STANDARD_COUNT_DISTINCT,
        )

    # -- the algorithm ---------------------------------------------------------------

    def estimate(
        self,
        plan: PlanNode,
        *,
        default_source: str | None = None,
        bound_ms: float | None = None,
        variables: tuple[str, ...] = ("TotalTime", "CountObject", "TotalSize"),
        memo: dict[int, NodeEstimate] | None = None,
    ) -> PlanEstimate:
        """Cost a plan.

        Args:
            plan: the root of the logical plan tree.
            default_source: which wrapper owns nodes not under a Submit;
                ``None`` means the mediator (nodes under a Submit always
                belong to that Submit's wrapper).
            bound_ms: §4.3.2 pruning bound — estimation aborts as soon as
                any computed TotalTime exceeds it.
            variables: which root variables the caller needs.
            memo: node id → estimate, owned by the caller and shared by
                the calls that cost plans built over the same subplan
                objects: a shared node is unified and each of its
                variables computed by the first call that needs it.  A
                pruning bound still sees every TotalTime beneath a
                memoised value.  Pass one memo only to calls made under
                the same rules, statistics, coefficients and
                ``default_source``, and drop it afterwards.

        Returns:
            A :class:`PlanEstimate`; ``pruned`` is True when the bound cut
            the estimation short.  ``nodes`` holds the costed nodes of
            ``plan`` and no others; with a memo a node may carry variables
            that another plan sharing it demanded.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._estimate(plan, default_source, bound_ms, variables, memo)
        span = tracer.start("estimate", kind="estimate", plan=plan.describe())
        try:
            result = self._estimate(plan, default_source, bound_ms, variables, memo)
        except Exception:
            tracer.end(span, error=True)
            raise
        counters = self.last_counters
        tracer.end(
            span,
            total_ms=result.total_time,
            pruned=result.pruned,
            nodes_visited=counters.nodes_visited,
            formulas_evaluated=counters.formulas_evaluated,
        )
        return result

    def _estimate(
        self,
        plan: PlanNode,
        default_source: str | None,
        bound_ms: float | None,
        variables: tuple[str, ...],
        memo: dict[int, NodeEstimate] | None,
    ) -> PlanEstimate:
        table = memo if memo is not None else {}
        reachable = self._enter(plan, default_source, table)
        estimation = _Estimation(self, table, bound_ms)
        exceeded: float | None = None
        try:
            if self.options.propagate_required:
                for variable in variables:
                    estimation.value_of(plan, variable)
            else:
                # Unoptimized Figure 11: every node computes every variable.
                self._estimate_eagerly(plan, estimation)
        except PlanPruned as pruned:
            exceeded = pruned.exceeded_ms
        self.last_counters = estimation.counters
        root = reachable[0]
        if exceeded is not None and root.values.get("TotalTime") != exceeded:
            # Surface the partial cost that tripped the bound — on a copy:
            # the node's own estimate may be shared through the memo (and
            # may hold a complete TotalTime that is itself within bound).
            root = NodeEstimate(
                plan,
                {**root.values, "TotalTime": exceeded},
                {**root.provenance, "TotalTime": "pruned (§4.3.2 bound exceeded)"},
            )
        nodes = {e.node.node_id: e for e in reachable if e.values}
        nodes[plan.node_id] = root
        return PlanEstimate(
            plan=plan, root=root, nodes=nodes, pruned=exceeded is not None
        )

    def _estimate_eagerly(self, node: PlanNode, estimation: _Estimation) -> None:
        for child in node.children:
            self._estimate_eagerly(child, estimation)
        for variable in RESULT_VARIABLES:
            estimation.value_of(node, variable)

    @staticmethod
    def _enter(
        plan: PlanNode, default_source: str | None, table: dict[int, NodeEstimate]
    ) -> list[NodeEstimate]:
        """The estimates of the plan's nodes in pre-order, entering into
        ``table`` those it lacks with their owning source: below a Submit,
        the wrapper; elsewhere the default."""
        reachable: list[NodeEstimate] = []

        def walk(node: PlanNode, current: str | None) -> None:
            below = current
            if isinstance(node, Submit):
                # The Submit node itself is costed mediator-side (it models
                # the communication step); its subtree runs at the wrapper.
                current, below = None, node.wrapper
            estimate = table.get(node.node_id)
            if estimate is None:
                estimate = table[node.node_id] = NodeEstimate(node, source=current)
            reachable.append(estimate)
            for child in node.children:
                walk(child, below)

        walk(plan, default_source)
        return reachable


def estimate_once(
    plan: PlanNode,
    repository: RuleRepository,
    catalog: StatisticsCatalog,
    **kwargs: Any,
) -> PlanEstimate:
    """One-shot convenience: build an estimator and cost a single plan."""
    estimator = CostEstimator(repository, catalog)
    return estimator.estimate(plan, **kwargs)
