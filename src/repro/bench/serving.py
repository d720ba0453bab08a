"""Experiment E11 — the federation serving layer under multi-tenant load.

A closed-loop workload driver (every client resubmits on completion, the
classic interactive-client model) drives :class:`~repro.service.service.
FederationService` over the shared three-branch federation of
``harness.build_federation``.  Three measurements:

* **throughput vs concurrency** — the same two-tenant workload under
  ``max_concurrent_queries`` 1, 2, 4, 8: simulated makespan shrinks and
  queries-per-simulated-second grows as the scheduler packs submit waves
  of *different* queries into shared waves (``cross_query_waves`` > 0
  and ``max_in_flight`` > 1 are the direct evidence of overlap);
* **fair-share scheduling** — two tenants with identical demand but
  quotas 3:1 on a concurrency-1 service: the high-quota tenant's queries
  wait less, while the low-quota tenant still completes everything (no
  starvation — its deficit keeps accruing until each head query fits);
* **admission backpressure** — a burst into a tight policy
  (``max_concurrent=1``, shallow queue, an outstanding-ms budget):
  excess queries are rejected with typed errors and counted, instead of
  growing an unbounded backlog.

All time is simulated, so every figure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import (
    REGION_QUERIES,
    WORKLOAD,
    TenantWorkload,
    build_federation,
    build_tenant_workloads,
    format_table,
    percentile,
)
from repro.errors import AdmissionError
from repro.mediator.executor import ExecutorOptions
from repro.service import (
    FederationService,
    ServiceOptions,
    TenantPolicy,
)

#: Concurrency ladder of the throughput scenario.
CONCURRENCY_LADDER: tuple[int, ...] = (1, 2, 4, 8)


@dataclass
class TenantOutcome:
    """Per-tenant figures of one closed-loop run."""

    tenant: str
    completed: int = 0
    mean_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    mean_queue_wait_ms: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "completed": self.completed,
            "mean_latency_ms": self.mean_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
        }


@dataclass
class ClosedLoopResult:
    """Everything measured in one closed-loop run of the service."""

    label: str
    makespan_ms: float = 0.0
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    rejected_by_reason: "dict[str, int]" = field(default_factory=dict)
    max_in_flight: int = 0
    waves: int = 0
    cross_query_waves: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    tenants: "list[TenantOutcome]" = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.completed / (self.makespan_ms / 1000.0)

    def tenant(self, name: str) -> TenantOutcome:
        for outcome in self.tenants:
            if outcome.tenant == name:
                return outcome
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "makespan_ms": self.makespan_ms,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "rejected_by_reason": self.rejected_by_reason,
            "throughput_qps": self.throughput_qps,
            "max_in_flight": self.max_in_flight,
            "waves": self.waves,
            "cross_query_waves": self.cross_query_waves,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "tenants": [outcome.to_json_dict() for outcome in self.tenants],
        }


def run_closed_loop(
    workloads: "list[TenantWorkload]",
    options: ServiceOptions,
    label: str = "",
    policies: "dict[str, TenantPolicy] | None" = None,
) -> ClosedLoopResult:
    """Drive one fresh federation with closed-loop clients until every
    client has submitted its full quota of queries."""
    mediator = build_federation(ExecutorOptions(parallel_submits=True))
    service = FederationService(mediator, options)
    for workload in workloads:
        policy = (
            policies.get(workload.tenant)
            if policies is not None and workload.tenant in policies
            else TenantPolicy(quota=workload.quota)
        )
        service.set_policy(workload.tenant, policy)
    result = ClosedLoopResult(label=label)

    def submit_next(workload: TenantWorkload, session, client: int, index: int):
        if index >= workload.queries_per_client:
            return
        _label, sql = workload.query_at(client, index)

        def resubmit(_ticket):
            submit_next(workload, session, client, index + 1)

        try:
            service.submit(session, sql, on_complete=resubmit)
        except AdmissionError:
            # Closed loop: a bounced client immediately tries its next
            # query (think: the dashboard page the user reloads).
            submit_next(workload, session, client, index + 1)

    for workload in workloads:
        for client in range(workload.clients):
            session = service.open_session(workload.tenant)
            submit_next(workload, session, client, 0)
    service.run()

    result.makespan_ms = service.clock.now_ms
    result.submitted = len(service.tickets)
    result.completed = sum(1 for t in service.tickets if t.status == "done")
    for ticket in service.tickets:
        if ticket.status == "rejected":
            result.rejected += 1
            reason = ticket.rejection_reason.split(":", 1)[0]
            result.rejected_by_reason[reason] = (
                result.rejected_by_reason.get(reason, 0) + 1
            )
    result.max_in_flight = service.scheduler.stats.max_in_flight
    result.waves = service.scheduler.stats.waves_dispatched
    result.cross_query_waves = service.scheduler.stats.cross_query_waves
    if service.plan_cache is not None:
        result.plan_cache_hits = service.plan_cache.stats.hits
        result.plan_cache_misses = service.plan_cache.stats.misses
    for workload in workloads:
        done = [
            t
            for t in service.tickets
            if t.tenant == workload.tenant and t.status == "done"
        ]
        latencies = [t.latency_ms for t in done]
        waits = [t.queue_wait_ms for t in done]
        result.tenants.append(
            TenantOutcome(
                tenant=workload.tenant,
                completed=len(done),
                mean_latency_ms=(
                    round(sum(latencies) / len(latencies), 1) if done else 0.0
                ),
                p95_latency_ms=round(percentile(latencies, 0.95), 1)
                if done
                else 0.0,
                mean_queue_wait_ms=(
                    round(sum(waits) / len(waits), 1) if done else 0.0
                ),
            )
        )
    return result


@dataclass
class ServingExperiment:
    """All E11 measurements."""

    throughput_runs: "list[ClosedLoopResult]" = field(default_factory=list)
    fairness_run: ClosedLoopResult | None = None
    fairness_quotas: "dict[str, float]" = field(default_factory=dict)
    backpressure_run: ClosedLoopResult | None = None

    def report(self) -> str:
        assert self.fairness_run is not None
        assert self.backpressure_run is not None
        throughput = format_table(
            (
                "max concurrent",
                "makespan (ms)",
                "throughput (q/s)",
                "max in flight",
                "cross-query waves",
                "plan-cache hits",
            ),
            [
                (
                    run.label,
                    round(run.makespan_ms, 1),
                    round(run.throughput_qps, 2),
                    run.max_in_flight,
                    run.cross_query_waves,
                    run.plan_cache_hits,
                )
                for run in self.throughput_runs
            ],
            title="E11a — closed-loop throughput vs admission concurrency",
        )
        fairness = format_table(
            (
                "tenant",
                "quota",
                "completed",
                "mean latency (ms)",
                "mean queue wait (ms)",
            ),
            [
                (
                    outcome.tenant,
                    self.fairness_quotas.get(outcome.tenant, 1.0),
                    outcome.completed,
                    outcome.mean_latency_ms,
                    outcome.mean_queue_wait_ms,
                )
                for outcome in self.fairness_run.tenants
            ],
            title="E11b — fair share under 3:1 quotas (concurrency 1)",
        )
        run = self.backpressure_run
        rows = [
            ("submitted", run.submitted),
            ("completed", run.completed),
            ("rejected", run.rejected),
        ]
        rows += [
            (f"rejected: {reason}", count)
            for reason, count in sorted(run.rejected_by_reason.items())
        ]
        rows.append(("max in flight", run.max_in_flight))
        backpressure = format_table(
            ("figure", "value"),
            rows,
            title="E11c — admission backpressure under a tight policy",
        )
        return f"{throughput}\n\n{fairness}\n\n{backpressure}"

    def to_json_dict(self) -> dict:
        """Machine-readable form of every table (``BENCH_E11.json``)."""
        assert self.fairness_run is not None
        assert self.backpressure_run is not None
        return {
            "experiment": "E11",
            "throughput": [run.to_json_dict() for run in self.throughput_runs],
            "fairness": {
                "quotas": self.fairness_quotas,
                "run": self.fairness_run.to_json_dict(),
            },
            "backpressure": self.backpressure_run.to_json_dict(),
        }


def run_serving_experiment(
    ladder: "tuple[int, ...]" = CONCURRENCY_LADDER,
    throughput_clients: "tuple[int, int]" = (2, 3),
    throughput_queries: int = 4,
    burst_clients: int = 5,
    burst_queries: int = 3,
) -> ServingExperiment:
    """All three scenarios.  ``throughput_clients`` is the (analytics,
    dashboards) client count of the ladder runs, each client submitting
    ``throughput_queries``; the fairness and backpressure scenarios run
    ``burst_clients`` clients per contended tenant, ``burst_queries``
    each."""
    experiment = ServingExperiment()
    for concurrency in ladder:
        experiment.throughput_runs.append(
            run_closed_loop(
                build_tenant_workloads(throughput_clients, throughput_queries),
                ServiceOptions(max_concurrent_queries=concurrency),
                label=str(concurrency),
            )
        )
    # Fairness: identical demand per tenant, unequal quotas, one slot —
    # every start is a pure scheduling decision.  Enough clients per
    # tenant that the backlog (not the client count) limits throughput,
    # so the quota ratio actually shows in the waits.
    experiment.fairness_quotas = {"analytics": 1.0, "dashboards": 3.0}
    experiment.fairness_run = run_closed_loop(
        [
            TenantWorkload(
                tenant=tenant,
                quota=quota,
                clients=burst_clients,
                queries_per_client=burst_queries,
                queries=list(REGION_QUERIES),
            )
            for tenant, quota in experiment.fairness_quotas.items()
        ],
        ServiceOptions(max_concurrent_queries=1),
        label="fairness",
    )
    # Backpressure: a burst of dashboard clients into a one-deep queue
    # (queue_full rejections) next to an analytics tenant whose
    # outstanding-ms budget no federated query fits
    # (estimate_exceeds_budget rejections).
    backpressure_workloads = [
        TenantWorkload(
            tenant="analytics",
            clients=1,
            queries_per_client=burst_queries,
            queries=list(WORKLOAD),
        ),
        TenantWorkload(
            tenant="dashboards",
            clients=burst_clients,
            queries_per_client=burst_queries,
            queries=list(REGION_QUERIES),
        ),
    ]
    experiment.backpressure_run = run_closed_loop(
        backpressure_workloads,
        ServiceOptions(max_concurrent_queries=1),
        label="backpressure",
        policies={
            "analytics": TenantPolicy(quota=1.0, max_outstanding_ms=500.0),
            "dashboards": TenantPolicy(
                quota=1.0, max_concurrent=1, max_queue_depth=1
            ),
        },
    )
    return experiment
