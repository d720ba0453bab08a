"""The federation serving layer: ``FederationService``.

``Mediator`` answers one query at a time for one anonymous caller.  The
service wraps it with the multi-tenant machinery a shared deployment
needs — sessions, plan caching, cost-based admission control, and a
fair-share scheduler that interleaves the submit waves of concurrent
queries on the shared simulated clock:

* :meth:`FederationService.open_session` — per-tenant sessions with
  prepared statements (:mod:`repro.service.session`);
* :meth:`FederationService.submit` — resolve (through the plan cache),
  estimate, and run the query through admission: admitted queries start,
  queued ones wait in their tenant's lane, rejected ones raise a
  backpressure error from :mod:`repro.errors`;
* :meth:`FederationService.run` — drive every in-flight and queued query
  to completion under the fair-share scheduler;
* :meth:`FederationService.query` — the one-call convenience (submit +
  drain + return the result), used by tests and simple clients.

Everything is deterministic: time is the mediator's simulated clock,
admission charges *estimated* cost, and the scheduler stages every
query on the caller's own thread.  Metrics go to the mediator's
registry when observability is on (so ``expose_text`` shows serving and
engine metrics side by side) and to a private registry otherwise.

Attribution: every per-query dispatch number — ``cache_hits`` /
``cache_misses``, ``parallel_saved_ms``, ``resilience`` and
``replication`` — is exact at any concurrency.  Each execution folds
the dispatch outcomes it received itself, so the tickets' numbers add
up to the shared scheduler's and cache's lifetime counters.
Service-level metrics (latency, queue wait, admission counters) are
exact too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AdmissionRejectedError,
    QueueOverflowError,
    ServiceDegradedError,
    SessionError,
)
from repro.mediator.executor import MediatorExecutor
from repro.mediator.mediator import Mediator, QueryResult
from repro.mediator.optimizer import OptimizationResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.service.admission import DEFAULT_POLICY, AdmissionController, TenantPolicy
from repro.service.calibration import CalibrationManager, CalibrationOptions
from repro.service.plancache import PlanCache
from repro.service.scheduler import FairShareScheduler, QueryTask
from repro.service.session import PlanResolution, Session, SessionManager

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

#: Help text of every per-tenant service counter.
_COUNTER_HELP = {
    "repro_service_submitted_total": "Queries submitted to the service",
    "repro_service_admitted_total": "Queries that started executing",
    "repro_service_queued_total": "Queries parked in a tenant lane",
    "repro_service_completed_total": "Queries answered",
    "repro_service_failed_total": "Queries that raised during execution",
    "repro_service_plan_cache_hits_total": "Plan-cache hits at resolve",
    "repro_service_plan_cache_misses_total": "Plan-cache misses at resolve",
}


@dataclass
class ServiceOptions:
    """Knobs of the serving layer (see ``docs/serving.md``)."""

    #: Global cap on concurrently running queries (None = unbounded).
    max_concurrent_queries: int | None = 8
    #: Global cap on summed estimated TotalTime of running queries.
    max_outstanding_ms: float | None = None
    #: Memoize optimized plans by normalized-query fingerprint.
    plan_cache: bool = True
    plan_cache_entries: int = 256
    #: Online cost recalibration on a query-count cadence (§4.3 feedback
    #: loop; see ``docs/calibration.md``).  None = off, the seed path.
    calibration: CalibrationOptions | None = None

    def __post_init__(self) -> None:
        if (
            self.max_concurrent_queries is not None
            and self.max_concurrent_queries < 1
        ):
            raise ValueError(
                "max_concurrent_queries must be >= 1 or None, got "
                f"{self.max_concurrent_queries}"
            )


@dataclass
class Ticket:
    """One submitted query's lifecycle record."""

    ticket_id: str
    tenant: str
    session_id: str
    status: str
    estimated_ms: float
    #: Simulated-clock timestamps (ms).
    submitted_ms: float
    started_ms: float | None = None
    finished_ms: float | None = None
    plan_cached: bool = False
    rejection_reason: str = ""
    result: QueryResult | None = None
    error: BaseException | None = None
    #: Admission/lifecycle events (submit, queue, reject, start, finish)
    #: on the simulated clock; copied into ``QueryResult.profile
    #: .timeline`` when profiling is on.
    events: list[dict] = field(default_factory=list)

    def record_event(self, event: str, at_ms: float, **details) -> None:
        self.events.append(
            {"event": event, "at_ms": at_ms, "tenant": self.tenant, **details}
        )

    @property
    def queue_wait_ms(self) -> float | None:
        """Simulated ms between submit and start (None until started)."""
        if self.started_ms is None:
            return None
        return self.started_ms - self.submitted_ms

    @property
    def latency_ms(self) -> float | None:
        """End-to-end simulated ms: submit to finish (includes queueing)."""
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.submitted_ms


class FederationService:
    """Multi-tenant serving layer over one :class:`Mediator`."""

    def __init__(
        self, mediator: Mediator, options: ServiceOptions | None = None
    ) -> None:
        self.mediator = mediator
        self.options = options if options is not None else ServiceOptions()
        self.clock = mediator.executor.clock
        self.plan_cache: PlanCache | None = (
            PlanCache(max_entries=self.options.plan_cache_entries)
            if self.options.plan_cache
            else None
        )
        self.sessions = SessionManager(mediator, self.plan_cache)
        self.admission = AdmissionController(
            max_concurrent_queries=self.options.max_concurrent_queries,
            max_outstanding_ms=self.options.max_outstanding_ms,
        )
        self.scheduler = FairShareScheduler(
            mediator.executor.scheduler,
            self.admission,
            on_start=self._on_task_start,
            on_complete=self._on_task_complete,
        )
        self.policies: dict[str, TenantPolicy] = {}
        self.tickets: list[Ticket] = []
        self._ticket_counter = 0
        self._completion_callbacks: dict[str, object] = {}
        # Serving metrics join the mediator's registry when observability
        # is on; otherwise they live in a private registry, so the
        # serving counters always exist.
        telemetry = mediator.telemetry
        self.metrics: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        self._tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
        #: Online recalibration loop; None when the option is off.
        self.calibration: CalibrationManager | None = (
            CalibrationManager(mediator, self.options.calibration, self.metrics)
            if self.options.calibration is not None
            else None
        )

    # -- sessions --------------------------------------------------------------

    def open_session(self, tenant: str, session_id: str | None = None) -> Session:
        session = self.sessions.open_session(tenant, session_id)
        if self._tracer.enabled:
            self._tracer.event(
                "session.open",
                kind="session",
                tenant=tenant,
                session=session.session_id,
            )
        return session

    def close_session(self, session: Session) -> None:
        self.sessions.close_session(session)
        if self._tracer.enabled:
            self._tracer.event(
                "session.close",
                kind="session",
                tenant=session.tenant,
                session=session.session_id,
            )

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        self.policies[tenant] = policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, DEFAULT_POLICY)

    # -- submission ------------------------------------------------------------

    def submit(self, session: Session, query, on_complete=None) -> Ticket:
        """Resolve, estimate, and admit one query.

        Returns the ticket (``running`` or ``queued``); raises an
        :class:`~repro.errors.AdmissionError` subclass when admission
        bounces the query (the rejected ticket is still recorded in
        :attr:`tickets` for inspection).
        """
        if session.manager is not self.sessions:
            raise SessionError(
                f"session {session.session_id!r} belongs to another service"
            )
        resolution = session.resolve(query)
        estimated = resolution.optimized.estimate.total_time
        tenant = session.tenant
        policy = self.policy_for(tenant)
        ticket = self._new_ticket(session, resolution, estimated)
        ticket.record_event(
            "submit",
            ticket.submitted_ms,
            estimated_ms=estimated,
            plan_cached=resolution.plan_cached,
        )
        self._count("repro_service_submitted_total", tenant)
        if resolution.plan_cached:
            self._count("repro_service_plan_cache_hits_total", tenant)
        else:
            self._count("repro_service_plan_cache_misses_total", tenant)
        decision = self.admission.decide(
            tenant,
            policy,
            estimated,
            plan=resolution.optimized.plan,
            scheduler=self.mediator.executor.scheduler,
        )
        if self._tracer.enabled:
            self._tracer.event(
                "admit",
                kind="admit",
                tenant=tenant,
                ticket=ticket.ticket_id,
                decision=decision.status,
                reason=decision.reason,
                estimated_ms=estimated,
            )
        if decision.rejected:
            return self._reject(ticket, decision.reason)
        task = self._build_task(ticket, resolution)
        if on_complete is not None:
            self._completion_callbacks[ticket.ticket_id] = on_complete
        if decision.admitted:
            self.scheduler.start_now(task, policy)
        else:
            ticket.status = QUEUED
            ticket.record_event(
                "queue",
                self.clock.now_ms,
                depth=self.admission.usage(tenant).queued + 1,
            )
            self._count("repro_service_queued_total", tenant)
            if self._tracer.enabled:
                self._tracer.event(
                    "queue",
                    kind="queue",
                    tenant=tenant,
                    ticket=ticket.ticket_id,
                    depth=self.admission.usage(tenant).queued + 1,
                )
            self.scheduler.enqueue(task, policy)
        return ticket

    def run(self) -> None:
        """Drive every in-flight and queued query to completion."""
        self.scheduler.run()

    def query(self, session: Session, query) -> QueryResult:
        """Submit one query, drain the service, and return its answer."""
        ticket = self.submit(session, query)
        self.run()
        if ticket.error is not None:
            raise ticket.error
        assert ticket.result is not None
        return ticket.result

    # -- internals -------------------------------------------------------------

    def _new_ticket(
        self, session: Session, resolution: PlanResolution, estimated: float
    ) -> Ticket:
        self._ticket_counter += 1
        ticket = Ticket(
            ticket_id=f"t{self._ticket_counter}",
            tenant=session.tenant,
            session_id=session.session_id,
            status=RUNNING,
            estimated_ms=estimated,
            submitted_ms=self.clock.now_ms,
            plan_cached=resolution.plan_cached,
        )
        self.tickets.append(ticket)
        return ticket

    def _reject(self, ticket: Ticket, reason: str) -> Ticket:
        ticket.status = REJECTED
        ticket.rejection_reason = reason
        ticket.record_event("reject", self.clock.now_ms, reason=reason)
        kind = reason.split(":", 1)[0]
        counter = self.metrics.counter(
            "repro_service_rejected_total",
            "Queries bounced by admission control",
            ("tenant", "reason"),
        )
        counter.inc(tenant=ticket.tenant, reason=kind)
        message = (
            f"query of tenant {ticket.tenant!r} rejected: {reason} "
            f"(estimated {ticket.estimated_ms:.0f} ms)"
        )
        if kind == "degraded":
            error = ServiceDegradedError(message, tenant=ticket.tenant, reason=reason)
        elif kind == "queue_full":
            error = QueueOverflowError(message, tenant=ticket.tenant, reason=reason)
        else:
            error = AdmissionRejectedError(
                message, tenant=ticket.tenant, reason=reason
            )
        ticket.error = error
        raise error

    def _build_task(
        self, ticket: Ticket, resolution: PlanResolution
    ) -> QueryTask:
        mediator = self.mediator
        # A private executor per task — own submit log and prefetch
        # state — on the shared scheduler itself, so all accounting
        # lands on the one timeline, cache and catalog.
        executor = MediatorExecutor(
            mediator.catalog,
            options=mediator.executor.options,
            cache=mediator.executor.cache,
            scheduler=self.scheduler.shared,
        )
        tracer = None
        if mediator.observability:
            tracer = SpanTracer(self.clock)
            executor.set_tracer(tracer)
        task = QueryTask(
            ticket=ticket,
            tenant=ticket.tenant,
            estimated_ms=ticket.estimated_ms,
            plan=resolution.optimized.plan,
            executor=executor,
            tracer=tracer,
        )
        task.optimized = resolution.optimized
        task.sql = resolution.sql
        return task

    def _on_task_start(self, task: QueryTask) -> None:
        ticket: Ticket = task.ticket
        ticket.status = RUNNING
        ticket.started_ms = self.clock.now_ms
        ticket.record_event(
            "start", ticket.started_ms, queue_wait_ms=ticket.queue_wait_ms or 0.0
        )
        self._count("repro_service_admitted_total", ticket.tenant)
        self.metrics.summary(
            "repro_service_queue_wait_ms",
            "Simulated ms between submit and start",
            ("tenant",),
        ).observe(ticket.queue_wait_ms or 0.0, tenant=ticket.tenant)
        self._set_in_flight()

    def _on_task_complete(self, task: QueryTask) -> None:
        ticket: Ticket = task.ticket
        ticket.finished_ms = self.clock.now_ms
        self._set_in_flight()
        if task.error is not None:
            ticket.status = FAILED
            ticket.error = task.error
            ticket.record_event(
                "fail", ticket.finished_ms, error=type(task.error).__name__
            )
            self._count("repro_service_failed_total", ticket.tenant)
        else:
            ticket.record_event(
                "finish", ticket.finished_ms, latency_ms=ticket.latency_ms or 0.0
            )
            ticket.result = self._finalize(task)
            ticket.status = DONE
            self._count("repro_service_completed_total", ticket.tenant)
            self.metrics.summary(
                "repro_service_latency_ms",
                "End-to-end simulated latency (submit to finish)",
                ("tenant",),
            ).observe(ticket.latency_ms or 0.0, tenant=ticket.tenant)
        callback = self._completion_callbacks.pop(ticket.ticket_id, None)
        if callback is not None:
            callback(ticket)

    def _finalize(self, task: QueryTask) -> QueryResult:
        """The shared answer tail (:meth:`Mediator.answer`) plus what only
        the service knows: the ticket timeline and the calibration feed."""
        optimized: OptimizationResult = task.optimized
        execution = task.execution
        assert execution is not None
        trace = None
        if task.tracer is not None and task.tracer.roots:
            trace = task.tracer.roots[0]
        result = self.mediator.answer(
            execution,
            optimized.plan,
            optimized.estimate,
            optimized.stats,
            sql=task.sql,
            trace=trace,
        )
        profile = result.profile
        if profile is not None:
            # The ticket's admission lifecycle (submit/queue/start/
            # finish) becomes the profile's timeline — queueing is
            # part of the latency story the flight recorder tells.
            profile.timeline.extend(dict(event) for event in task.ticket.events)
        if self.calibration is not None:
            # Feed the measured query into the calibration window; on
            # cadence this fits and (via the catalog-version bump)
            # invalidates stale plan-cache entries.
            self.calibration.record(result, execution)
        return result

    def _count(self, name: str, tenant: str) -> None:
        self.metrics.counter(name, _COUNTER_HELP[name], ("tenant",)).inc(
            tenant=tenant
        )

    def _set_in_flight(self) -> None:
        self.metrics.gauge(
            "repro_service_in_flight", "Queries currently executing"
        ).set(len(self.scheduler.running))
