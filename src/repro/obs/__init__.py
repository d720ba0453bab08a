"""Query telemetry: spans, metrics, and cost-model drift tracking.

The subsystem has three independent layers, all optional and all off by
default (:class:`ObservabilityOptions` on :class:`~repro.mediator.
mediator.Mediator`):

* :mod:`repro.obs.trace` — span trees over the simulated clock (one root
  per query, children for parse/optimize/estimate/execute/submit/wave);
* :mod:`repro.obs.metrics` — a Prometheus-style metrics registry fed by
  the pipeline's existing counters;
* :mod:`repro.obs.accuracy` — per-(scope, rule) q-error between
  estimates and measured executions, the paper-specific payoff.

:class:`QueryTelemetry` bundles the three and owns the per-query feeding
logic, so the mediator's only obligations are (a) handing its components
the tracer and (b) calling :meth:`QueryTelemetry.record_query` once per
answered query.  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.obs.accuracy import DriftObservation, DriftTracker, RuleDrift, q_error
from repro.obs.export import chrome_trace, chrome_trace_json
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)
from repro.obs.profile import OperatorRow, QueryProfile, build_query_profile
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.mediator import QueryResult
    from repro.mediator.resilience import CircuitBreaker
    from repro.wrappers.base import ExecutionResult

#: Breaker states exported by the ``repro_breaker_state`` gauge.
_BREAKER_STATES = ("closed", "half_open", "open")


@dataclass
class ObservabilityOptions:
    """Telemetry knobs of the mediator.  Everything defaults off; with
    ``enabled=False`` no telemetry object is even constructed and every
    instrumentation site short-circuits on the shared null tracer."""

    enabled: bool = False
    #: Record span trees (attached to ``QueryResult.trace``).
    trace: bool = True
    #: Per-composition-operator spans during execution (the chattiest
    #: layer; disable to trace only submits/waves/phases).
    trace_compose: bool = True
    #: Maintain the metrics registry.
    metrics: bool = True
    #: Track per-(scope, rule) estimate-vs-actual drift.
    drift: bool = True
    #: Build a :class:`~repro.obs.profile.QueryProfile` per answered
    #: query (requires ``trace``; attached to ``QueryResult.profile``).
    profile: bool = True

    @classmethod
    def all_on(cls) -> "ObservabilityOptions":
        return cls(enabled=True)


class QueryTelemetry:
    """The per-mediator telemetry state: tracer + registry + drift."""

    def __init__(self, options: ObservabilityOptions, clock=None) -> None:
        self.options = options
        self.tracer: SpanTracer = (
            SpanTracer(clock) if options.trace else NULL_TRACER
        )
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if options.metrics else None
        )
        self.drift: DriftTracker | None = DriftTracker() if options.drift else None

    # -- per-query feeding -----------------------------------------------------

    def record_query(
        self,
        result: "QueryResult",
        execution: "ExecutionResult",
        breakers: "Mapping[str, CircuitBreaker] | None" = None,
    ) -> None:
        """Fold one answered query into the registry and drift tracker,
        refresh breaker-state gauges, and attach the query's profile."""
        if self.metrics is not None:
            self._record_metrics(result, execution)
            if breakers:
                self._record_breaker_states(breakers)
        if self.drift is not None:
            self.drift.observe_plan(result.estimate, execution.submit_log)
        if self.options.profile and result.trace is not None:
            result.profile = build_query_profile(result, execution)

    def _record_metrics(
        self, result: "QueryResult", execution: "ExecutionResult"
    ) -> None:
        metrics = self.metrics
        assert metrics is not None
        metrics.counter("repro_queries_total", "Queries answered").inc()
        metrics.histogram(
            "repro_query_elapsed_ms", "Simulated query latency"
        ).observe(result.elapsed_ms)
        submits = metrics.counter(
            "repro_submits_total", "Wrapper subqueries dispatched", ("wrapper",)
        )
        rows_shipped = metrics.counter(
            "repro_rows_shipped_total", "Rows returned by wrappers", ("wrapper",)
        )
        shard_submits = metrics.counter(
            "repro_shard_submits_total",
            "Scatter-branch subqueries dispatched per shard",
            ("wrapper", "shard"),
        )
        for submit, submit_result in execution.submit_log:
            submits.inc(wrapper=submit.wrapper)
            rows_shipped.inc(len(submit_result.rows), wrapper=submit.wrapper)
            if submit.shard is not None:
                shard_submits.inc(wrapper=submit.wrapper, shard=str(submit.shard))
        metrics.counter("repro_rows_returned_total", "Rows answered to clients").inc(
            len(execution.rows)
        )
        cache_hits = metrics.counter(
            "repro_cache_hits_total", "Subanswer-cache hits"
        )
        cache_misses = metrics.counter(
            "repro_cache_misses_total", "Subanswer-cache misses"
        )
        # inc(0) still materializes the series, so the exposition shows
        # an explicit zero instead of omitting the sample.
        cache_hits.inc(result.cache_hits)
        cache_misses.inc(result.cache_misses)
        requests = cache_hits.total() + cache_misses.total()
        metrics.gauge(
            "repro_cache_hit_ratio", "Lifetime subanswer-cache hit ratio"
        ).set(cache_hits.total() / requests if requests else 0.0)
        stats = result.optimizer_stats
        metrics.counter(
            "repro_candidates_considered_total", "Optimizer candidates costed"
        ).inc(stats.candidates_considered)
        metrics.counter(
            "repro_candidates_pruned_total", "Candidates cut by the §4.3.2 bound"
        ).inc(stats.candidates_pruned)
        metrics.counter(
            "repro_formulas_evaluated_total", "Cost formulas evaluated"
        ).inc(stats.formulas_evaluated)
        metrics.counter(
            "repro_variables_computed_total", "Cost variables computed"
        ).inc(stats.variables_computed)
        metrics.counter(
            "repro_parallel_saved_ms_total",
            "Milliseconds saved by concurrent waves",
            # On the real-time backend the makespan is measured, so a
            # wave whose pool overhead beats its overlap win reports a
            # negative saving; a counter only accumulates the wins.
        ).inc(max(0.0, result.parallel_saved_ms))
        self._record_resilience_metrics(result, execution)

    def _record_resilience_metrics(
        self, result: "QueryResult", execution: "ExecutionResult"
    ) -> None:
        """Fault-handling counters: retries, timeouts, breaker activity,
        degraded answers.  Only materialized when the executor runs with
        a resilience layer, so fault-free deployments keep a clean
        exposition."""
        res = execution.resilience
        if res is None:
            return
        metrics = self.metrics
        assert metrics is not None
        # inc(0) still materializes the series: the exposition shows
        # explicit zeros once the resilience layer is on.
        metrics.counter(
            "repro_degraded_queries_total",
            "Queries answered with at least one source missing",
        ).inc(1 if result.degraded else 0)
        per_wrapper = (
            ("repro_submit_retries_total", "Submit retry attempts", res.retries),
            (
                "repro_submit_timeouts_total",
                "Submits whose wrapper wait hit the deadline",
                res.timeouts,
            ),
            (
                "repro_submit_errors_total",
                "Failed wrapper attempts (transient + unavailable)",
                res.attempt_errors,
            ),
            (
                "repro_breaker_trips_total",
                "Circuit-breaker closed/half-open to open transitions",
                res.breaker_trips,
            ),
            (
                "repro_breaker_fast_fails_total",
                "Submits short-circuited by an open breaker",
                res.breaker_fast_fails,
            ),
            (
                "repro_failed_submits_total",
                "Submits that exhausted their retry budget",
                res.failed_submits,
            ),
        )
        for name, help_text, values in per_wrapper:
            counter = metrics.counter(name, help_text, ("wrapper",))
            for wrapper, amount in values.items():
                counter.inc(amount, wrapper=wrapper)
        metrics.counter(
            "repro_backoff_ms_total", "Simulated ms slept in retry backoff"
        ).inc(res.backoff_ms)
        metrics.counter(
            "repro_cancelled_wait_ms_total",
            "Simulated wrapper-wait ms avoided by deadline cancellation",
        ).inc(res.cancelled_wait_ms)
        self._record_replication_metrics(execution)

    def _record_replication_metrics(
        self, execution: "ExecutionResult"
    ) -> None:
        """Replica-dispatch counters: which member served each submit,
        failover rescues, hedges launched/won.  Only materialized when
        the catalog has replica sets."""
        rep = execution.replication
        if rep is None:
            return
        metrics = self.metrics
        assert metrics is not None
        per_wrapper = (
            (
                "repro_replica_selected_total",
                "Submits served per replica-set member",
                rep.selected,
            ),
            (
                "repro_failover_total",
                "Submits rescued by re-dispatch to a sibling replica",
                rep.failovers,
            ),
            (
                "repro_hedge_launched_total",
                "Backup submits launched for straggling waits",
                rep.hedges_launched,
            ),
            (
                "repro_hedge_won_total",
                "Hedged submits where the backup answered first",
                rep.hedges_won,
            ),
        )
        for name, help_text, values in per_wrapper:
            counter = metrics.counter(name, help_text, ("wrapper",))
            for wrapper, amount in values.items():
                counter.inc(amount, wrapper=wrapper)
        metrics.counter(
            "repro_hedge_cancelled_ms_total",
            "Simulated wrapper-wait ms of cancelled hedge losers",
        ).inc(rep.hedge_cancelled_ms)

    def _record_breaker_states(
        self, breakers: "Mapping[str, CircuitBreaker]"
    ) -> None:
        """One-hot ``repro_breaker_state{wrapper, state}`` gauge rows.

        Every (wrapper, state) pair is materialized — 1 for the current
        state, 0 for the other two — so dashboards can plot transitions
        without join gymnastics."""
        metrics = self.metrics
        assert metrics is not None
        gauge = metrics.gauge(
            "repro_breaker_state",
            "Circuit-breaker state per wrapper (one-hot)",
            ("wrapper", "state"),
        )
        for wrapper, breaker in breakers.items():
            current = breaker.state
            for state in _BREAKER_STATES:
                gauge.set(
                    1.0 if state == current else 0.0,
                    wrapper=wrapper,
                    state=state,
                )


__all__ = [
    "Counter",
    "DriftObservation",
    "DriftTracker",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObservabilityOptions",
    "OperatorRow",
    "QueryProfile",
    "QueryTelemetry",
    "RuleDrift",
    "Span",
    "SpanTracer",
    "Summary",
    "build_query_profile",
    "chrome_trace",
    "chrome_trace_json",
    "q_error",
]
