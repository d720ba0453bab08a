"""The mediator facade — the component of Figures 1 and 2.

Ties the whole architecture together:

* :meth:`Mediator.register` runs the registration phase for a wrapper
  (schema + statistics + cost rules into catalog/repository/estimator);
* :meth:`Mediator.query` runs the query phase: parse (SQL) → translate →
  optimize (blended cost model, §4) → execute (submits to wrappers,
  composition at the mediator) → answer;
* :meth:`Mediator.explain` shows the chosen plan with per-node costs and
  the provenance of every estimate (which scope/rule produced it);
* with ``record_history=True``, executed subqueries feed the §4.3.1
  query-scope history so identical subqueries are estimated from real
  measurements afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.algebra.logical import PlanNode
from repro.core.estimator import CostEstimator, PlanEstimate
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.history import HistoryStore
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.optimizer import OptimizationResult, Optimizer, OptimizerStats
from repro.mediator.queryspec import QuerySpec, UnionSpec
from repro.mediator.registration import register_wrapper
from repro.mediator.resilience import PartialAnswer
from repro.obs import ObservabilityOptions, QueryTelemetry
from repro.obs.trace import NULL_TRACER, Span, SpanTracer
from repro.sources.pages import Row
from repro.wrappers.base import ExecutionResult, Wrapper


@dataclass
class QueryResult:
    """The answer returned to the client (Step 6) plus diagnostics."""

    rows: list[Row]
    elapsed_ms: float
    time_first_ms: float
    plan: PlanNode
    estimate: PlanEstimate
    optimizer_stats: OptimizerStats = field(default_factory=OptimizerStats)
    sql: str | None = None
    #: Subanswer-cache activity during this query (zero when disabled).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Simulated time concurrent submit waves saved versus sequential
    #: dispatch (zero in the default sequential mode).
    parallel_saved_ms: float = 0.0
    #: The query's span tree (root ``query`` span) when the mediator was
    #: built with tracing enabled; ``None`` otherwise.
    trace: Span | None = None
    #: Degradation report when the query was answered without some of
    #: its sources (``partial`` failure mode): which wrappers and
    #: collections are missing, which union branches were dropped, which
    #: joins were pruned, and whether the answer is a sound lower bound.
    #: ``None`` on a complete answer.
    partial: PartialAnswer | None = None
    #: Per-operator cost attribution (built from the span tree when the
    #: mediator runs with tracing + profiling on); ``None`` otherwise.
    #: Typed loosely to keep the import graph acyclic — always a
    #: :class:`repro.obs.profile.QueryProfile` when set.
    profile: "object | None" = None

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def degraded(self) -> bool:
        """True when at least one source failed out of this answer."""
        return self.partial is not None and self.partial.degraded

    @property
    def estimated_ms(self) -> float:
        return self.estimate.total_time


class Mediator:
    """A DISCO-style mediator over registered wrappers."""

    def __init__(
        self,
        record_history: bool = False,
        executor_options: ExecutorOptions | None = None,
        observability: ObservabilityOptions | None = None,
    ) -> None:
        self.catalog = MediatorCatalog()
        self.repository = standard_repository()
        self.coefficients = CoefficientSet()
        self.estimator = CostEstimator(
            self.repository,
            self.catalog.statistics,
            coefficients=self.coefficients,
        )
        # The catalog owns the calibration overlay history; the estimator
        # reads the active version on every wrapper-owned prediction.
        self.estimator.calibration = self.catalog.calibration
        self.optimizer = Optimizer(self.catalog, self.estimator)
        self.executor = MediatorExecutor(self.catalog, options=executor_options)
        # What the optimizer believes about dispatch is what the executor
        # declares: the estimator reads the executor's own options.
        self.estimator.execution = self.executor.options
        # Replica plumbing: the optimizer excludes breaker-open members
        # at costing time, and the scheduler ranks failover/hedge
        # candidates with the same cost model the optimizer used.
        self.optimizer.health_view = self.executor.scheduler.open_breaker_wrappers
        self.executor.scheduler.replica_ranker = self.optimizer.rank_replicas
        self.history = HistoryStore(self.repository) if record_history else None
        self.observability = (
            observability if observability is not None else ObservabilityOptions()
        )
        #: The telemetry bundle (tracer + metrics + drift); ``None`` when
        #: observability is off — disabled telemetry costs nothing.
        self.telemetry: QueryTelemetry | None = None
        self._tracer: SpanTracer = NULL_TRACER
        if self.observability.enabled:
            self.telemetry = QueryTelemetry(
                self.observability, clock=self.executor.clock
            )
            self._tracer = self.telemetry.tracer
            self.estimator.tracer = self._tracer
            self.optimizer.tracer = self._tracer
            self.executor.set_tracer(
                self._tracer, trace_compose=self.observability.trace_compose
            )

    # -- registration phase (§2.1) ---------------------------------------------

    def register(self, wrapper: Wrapper) -> int:
        """Register (or re-register) a wrapper; returns its rule count."""
        if self.executor.cache is not None:
            # Re-registration means the source's data or rules changed;
            # memoized subanswers from it are no longer trustworthy.
            self.executor.cache.invalidate_wrapper(wrapper.name)
        if self.telemetry is not None and self.telemetry.drift is not None:
            # Registered sources report drift even before any submit is
            # measured ("no data" beats a silently missing row).
            self.telemetry.drift.expect_wrapper(wrapper.name)
        return register_wrapper(
            wrapper, self.catalog, self.repository, self.estimator
        )

    def register_replica(self, wrapper: Wrapper, of: str) -> int:
        """Register ``wrapper`` as a replica of the already-registered
        source ``of``; returns the replica's rule count.

        The replica must serve (at least) every collection the primary
        serves.  The primary's statistics stay canonical; the replica
        contributes its own cost rules and environment, so the optimizer
        can price the same subquery differently per member.
        """
        if self.executor.cache is not None:
            # A new member changes how submits to this logical source
            # may be served; cached subanswers keyed on the primary stay
            # valid, but be conservative about the new name.
            self.executor.cache.invalidate_wrapper(wrapper.name)
        if self.telemetry is not None and self.telemetry.drift is not None:
            self.telemetry.drift.expect_wrapper(wrapper.name)
        from repro.mediator.registration import register_replica

        return register_replica(
            wrapper, of, self.catalog, self.repository, self.estimator
        )

    def register_partitioned(self, scheme):
        """Register a partition scheme over already-registered shard
        wrappers; returns the aggregated logical statistics (or None)."""
        from repro.mediator.registration import register_partitioned_collection

        return register_partitioned_collection(scheme, self.catalog)

    # -- calibration (§4.3 feedback loop) ---------------------------------------

    def apply_calibration(self, updates, note: str = "", observations: int = 0):
        """Install a calibration overlay and drop every stale estimate.

        ``updates`` is a ``{CoefficientKey: multiplier}`` dict or a list
        of :class:`~repro.mediator.calibration.CoefficientUpdate`.  The
        catalog-version bump invalidates plan caches; the estimator
        keeps nothing between plans, so the next one is costed under the
        new overlay.
        """
        return self.catalog.apply_calibration(
            updates, note=note, observations=observations
        )

    def rollback_calibration(self, version: int):
        """Re-activate a prior overlay version (0 = seed behaviour)."""
        return self.catalog.rollback_calibration(version)

    # -- query phase (§2.2) ---------------------------------------------------------

    def parse(self, sql: str) -> QuerySpec | UnionSpec:
        """Parse SQL into the optimizer's query representation."""
        from repro.sqlfe.translator import translate_sql

        with self._tracer.span("parse/translate", kind="phase", sql=sql):
            return translate_sql(sql, self.catalog)

    def plan(self, query: "str | QuerySpec | UnionSpec") -> OptimizationResult:
        """Optimize a query without executing it."""
        spec = self.parse(query) if isinstance(query, str) else query
        tracer = self._tracer
        with tracer.span("optimize", kind="phase") as span:
            optimized = self.optimizer.optimize(spec)
            if tracer.enabled:
                span.set(
                    candidates_considered=optimized.stats.candidates_considered,
                    candidates_pruned=optimized.stats.candidates_pruned,
                    estimated_ms=optimized.estimated_total_ms,
                )
        return optimized

    def query(self, query: "str | QuerySpec | UnionSpec") -> QueryResult:
        """Run a query end to end and return rows plus diagnostics."""
        sql = query if isinstance(query, str) else None
        tracer = self._tracer
        with tracer.span("query", kind="query", sql=sql) as root:
            optimized = self.plan(query)
            with tracer.span("execute", kind="phase") as execute_span:
                execution = self.executor.execute(optimized.plan)
                if tracer.enabled:
                    execute_span.set(
                        rows=len(execution.rows),
                        elapsed_ms=execution.total_time_ms,
                        cache_hits=execution.cache_hits,
                        cache_misses=execution.cache_misses,
                        parallel_saved_ms=execution.parallel_saved_ms,
                    )
                    if execution.degraded:
                        assert execution.partial is not None
                        execute_span.set(
                            degraded=True,
                            missing_wrappers=execution.partial.missing_wrappers,
                        )
        return self.answer(
            execution,
            optimized.plan,
            optimized.estimate,
            optimized.stats,
            sql=sql,
            trace=root if tracer.enabled else None,
        )

    def execute_plan(self, plan: PlanNode) -> QueryResult:
        """Execute a hand-built plan, bypassing the optimizer."""
        tracer = self._tracer
        with tracer.span("query", kind="query", entry="execute_plan") as root:
            estimate = self.estimator.estimate(plan)
            with tracer.span("execute", kind="phase"):
                execution = self.executor.execute(plan)
        return self.answer(
            execution,
            plan,
            estimate,
            OptimizerStats(),
            trace=root if tracer.enabled else None,
        )

    def answer(
        self,
        execution: ExecutionResult,
        plan: PlanNode,
        estimate: PlanEstimate,
        optimizer_stats: OptimizerStats,
        sql: str | None = None,
        trace: Span | None = None,
    ) -> QueryResult:
        """The tail of every executed query, whichever entry ran it
        (:meth:`query`, :meth:`execute_plan`, the serving layer): feed the
        §4.3.1 history, assemble the client-facing result, record
        telemetry."""
        if self.history is not None:
            self.history.record_plan(plan, execution, self.catalog)
        result = QueryResult(
            rows=execution.rows,
            elapsed_ms=execution.total_time_ms,
            time_first_ms=execution.time_first_ms,
            plan=plan,
            estimate=estimate,
            optimizer_stats=optimizer_stats,
            sql=sql,
            cache_hits=execution.cache_hits,
            cache_misses=execution.cache_misses,
            parallel_saved_ms=execution.parallel_saved_ms,
            trace=trace,
            partial=execution.partial,
        )
        if self.telemetry is not None:
            self.telemetry.record_query(
                result, execution, breakers=self.executor.scheduler.breakers
            )
        return result

    def explain(
        self, query: "str | QuerySpec | UnionSpec", format: str = "text"
    ) -> str:
        """The chosen plan with costs and rule provenance per node.

        ``format="text"`` (default) renders the indented human-readable
        plan; ``format="json"`` returns a machine-readable document with
        the same information (per-node values and provenance).  The
        subanswer-cache line reports *lifetime* executor counters — it is
        labelled as such because `explain` itself executes nothing.
        """
        if format not in ("text", "json"):
            raise ValueError(f"unknown explain format {format!r}")
        tracer = self._tracer
        roots_before = len(tracer.roots) if tracer.enabled else 0
        optimized = self.plan(query)
        open_breakers = self.executor.scheduler.open_breaker_wrappers()
        if format == "json":
            payload: dict = {
                "estimated_total_ms": optimized.estimated_total_ms,
                "candidates_considered": optimized.stats.candidates_considered,
                "candidates_pruned": optimized.stats.candidates_pruned,
            }
            if self.executor.cache is not None:
                stats = self.executor.cache.stats
                payload["subanswer_cache_lifetime"] = {
                    "hits": stats.hits,
                    "misses": stats.misses,
                }
            if self.executor.options.resilience is not None:
                payload["degraded"] = bool(open_breakers)
                payload["degraded_wrappers"] = open_breakers
            payload.update(optimized.estimate.to_dict())
            return json.dumps(payload, indent=2, sort_keys=True)
        header = (
            f"estimated TotalTime: {optimized.estimated_total_ms:.1f} ms "
            f"({optimized.stats.candidates_considered} candidates, "
            f"{optimized.stats.candidates_pruned} pruned)"
        )
        if self.executor.cache is not None:
            # Lifetime counters of this executor's cache — explain does
            # not execute, so there is no per-run activity to report.
            header += f"\nsubanswer cache (lifetime): {self.executor.cache.stats}"
        if open_breakers:
            # Degraded mode: these wrappers' breakers are open (or half
            # open) right now — submits to them will fast-fail or probe.
            header += (
                "\nDEGRADED: circuit breakers not closed for wrappers "
                + ", ".join(open_breakers)
            )
        text = header + "\n" + optimized.estimate.explain()
        if tracer.enabled and len(tracer.roots) > roots_before:
            rendered = "\n".join(
                span.render() for span in tracer.roots[roots_before:]
            )
            text += "\n\noptimization trace:\n" + rendered
        return text
