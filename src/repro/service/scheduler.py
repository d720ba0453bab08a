"""The fair-share inter-query scheduler.

The mediator's executor is a synchronous, single-query engine.  Under
``parallel_submits`` it sends every Submit of a plan as one prefetch
wave before it does any row work (§2.2: subqueries go out, subanswers
come back, then the mediator composes), so a query is one dispatch
request that its plan alone determines, followed by a walk that never
waits on another query.  The serving layer runs *many* queries over one
shared simulated clock, so each admitted query becomes a
:class:`QueryTask` that runs in two steps on the coordinator's own
thread: the first stages the plan and parks its wave as a request, the
second hands the wave's outcomes back and walks the plan to the end.
The coordinating :class:`FairShareScheduler` repeatedly

1. **starts** queued queries when admission headroom frees, picking
   tenants by deficit round-robin weighted by their quota;
2. **advances** every running task by one step;
3. **packs** the parked requests of the round into combined submit
   waves — interleaved across tenants, honoring a per-wrapper cap — and
   dispatches them on the shared :class:`SubmitScheduler`, so wrapper
   waits of *different queries* overlap on the
   :class:`~repro.sources.clock.ParallelClock`.

Each task's executor is built on the shared scheduler itself, so the
dispatches of a walk — a BindJoin's probe waves, every submit of the
sequential executor (whose prefetch wave is empty, so its whole walk is
one step) — go straight to it, unpacked.  Everything runs on one
thread, so execution is fully deterministic.

Equivalence guarantee (tested in ``tests/service/test_equivalence.py``):
when exactly one task is in the round, its wave passes through 1:1 as
one ``dispatch_wave``, so a service at concurrency 1 produces
byte-identical results, submit logs, and clock totals to calling
``Mediator.query`` directly.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import zip_longest
from typing import TYPE_CHECKING, Any, Callable

from repro.algebra.logical import Submit
from repro.mediator.scheduler import DispatchOutcome, SubmitScheduler
from repro.service.admission import AdmissionController, TenantPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.executor import MediatorExecutor
    from repro.obs.trace import SpanTracer


class QueryTask:
    """One admitted query, run in two steps on the coordinator's thread."""

    def __init__(
        self,
        ticket: Any,
        tenant: str,
        estimated_ms: float,
        plan,
        executor: "MediatorExecutor",
        tracer: "SpanTracer | None" = None,
    ) -> None:
        self.ticket = ticket
        self.tenant = tenant
        self.estimated_ms = estimated_ms
        self.plan = plan
        self.executor = executor
        self.tracer = tracer
        self.execution = None
        self.error: Exception | None = None
        self.finished = False
        #: Set by the service: the plan's OptimizationResult and the
        #: original SQL text (for the final QueryResult).
        self.optimized = None
        self.sql: str | None = None
        #: The staged prefetch wave, parked until the coordinator has
        #: filled :attr:`outcomes` (in wave order).
        self.request: list[Submit] | None = None
        self.outcomes: list[DispatchOutcome | None] = []
        #: The task's open ``query``/``execute`` spans.
        self._spans = ExitStack()

    def advance(self) -> None:
        """Stage the plan and park its wave; once the coordinator has
        filled the outcomes, deliver them and walk the plan to the end.
        A plan with an empty wave is walked in its first step."""
        try:
            if self.request is None:
                if self.tracer is not None and self.tracer.enabled:
                    self._spans.enter_context(self.tracer.span("query", kind="query"))
                    self._spans.enter_context(self.tracer.span("execute", kind="phase"))
                self.request = self.executor.stage(self.plan) or None
                if self.request is not None:
                    return
            else:
                self.request = None
                self.executor.deliver(self.outcomes)
            self.execution = self.executor.execute(self.plan)
        except Exception as exc:  # noqa: BLE001 - reported via the ticket
            self.error = exc
        self._spans.close()
        self.finished = True


@dataclass
class SchedulerStats:
    """Coordinator-level accounting, surfaced by the E11 benchmark."""

    started: int = 0
    completed: int = 0
    rounds: int = 0
    #: Waves the coordinator packed from parked prefetch waves; a walk's
    #: own dispatches go straight to the shared scheduler, uncounted.
    waves_dispatched: int = 0
    #: Waves that combined submits of two or more distinct queries — the
    #: direct evidence of cross-query overlap.
    cross_query_waves: int = 0
    #: Submits in the coordinator's packed waves.
    submits_dispatched: int = 0
    #: High-water mark of concurrently running queries.
    max_in_flight: int = 0
    #: Credit passes of the deficit round-robin (each pass grants every
    #: backlogged tenant ``quantum * quota`` ms of start credit).
    deficit_credit_passes: int = 0


class _TenantLane:
    """One tenant's wait queue plus its DRR deficit counter."""

    def __init__(self, name: str, policy: TenantPolicy) -> None:
        self.name = name
        self.policy = policy
        self.queue: deque[QueryTask] = deque()
        self.deficit = 0.0


#: Deficit round-robin credit per scheduling round (ms of estimated work),
#: multiplied by each tenant's quota.  Only the granularity of the credit:
#: passes fast-forward arithmetically, so the value costs nothing.
DRR_QUANTUM_MS = 1000.0


class FairShareScheduler:
    """Deficit round-robin between tenants over one shared clock.

    Each scheduling round credits every backlogged tenant
    ``DRR_QUANTUM_MS * quota`` of deficit; a tenant's head query starts
    once admission has headroom for it *and* its estimated TotalTime
    fits the accumulated deficit (which is then debited).  Tenants with
    a larger quota accrue deficit faster and therefore win
    proportionally more starts — without ever starving a quota-1 tenant,
    whose deficit keeps growing until its turn affords its head query.
    """

    def __init__(
        self,
        shared: SubmitScheduler,
        admission: AdmissionController,
        *,
        on_start: Callable[[QueryTask], None] | None = None,
        on_complete: Callable[[QueryTask], None] | None = None,
    ) -> None:
        self.shared = shared
        self.admission = admission
        self.on_start = on_start
        self.on_complete = on_complete
        self.stats = SchedulerStats()
        self.running: list[QueryTask] = []
        self._lanes: dict[str, _TenantLane] = {}
        #: Rotating tenant visit order — the "round" of round-robin.
        self._rr_order: list[str] = []

    # -- intake ---------------------------------------------------------------

    def lane(self, tenant: str, policy: TenantPolicy) -> _TenantLane:
        existing = self._lanes.get(tenant)
        if existing is None:
            existing = self._lanes[tenant] = _TenantLane(tenant, policy)
            self._rr_order.append(tenant)
        return existing

    def enqueue(self, task: QueryTask, policy: TenantPolicy) -> None:
        """Park an admission-queued task in its tenant's lane."""
        self.lane(task.tenant, policy).queue.append(task)
        self.admission.on_queue(task.tenant)

    def start_now(self, task: QueryTask, policy: TenantPolicy) -> None:
        """Put a directly-admitted task in the running set."""
        self.lane(task.tenant, policy)  # materialize the lane for DRR order
        self._start(task)

    def queued_count(self) -> int:
        return sum(len(lane.queue) for lane in self._lanes.values())

    # -- the drive loop --------------------------------------------------------

    def run(self) -> None:
        """Drive every running and queued query to completion."""
        while self.running or self.queued_count():
            self.stats.rounds += 1
            self._start_eligible()
            for task in list(self.running):
                task.advance()
                if task.finished:
                    self._complete(task)
            waiting = [task for task in self.running if task.request is not None]
            if waiting:
                self._dispatch_round(waiting)

    # -- starting queries (DRR) ------------------------------------------------

    def _start(self, task: QueryTask) -> None:
        self.admission.on_start(task.tenant, task.estimated_ms)
        self.running.append(task)
        self.stats.started += 1
        self.stats.max_in_flight = max(
            self.stats.max_in_flight, len(self.running)
        )
        if self.on_start is not None:
            self.on_start(task)

    def _complete(self, task: QueryTask) -> None:
        self.running.remove(task)
        self.admission.on_finish(task.tenant, task.estimated_ms)
        self.stats.completed += 1
        if self.on_complete is not None:
            self.on_complete(task)

    def _backlogged(self) -> "list[_TenantLane]":
        return [
            self._lanes[name] for name in self._rr_order if self._lanes[name].queue
        ]

    def _head_has_headroom(self, lane: _TenantLane) -> bool:
        return self.admission._has_headroom(
            lane.name, lane.policy, lane.queue[0].estimated_ms
        )

    def _start_eligible(self) -> None:
        """Fill free admission headroom in weighted DRR order.

        Deficit is only credited when no backlogged tenant can afford
        its head query — one credit pass grants every candidate
        ``quantum * quota`` ms — so, over time, starts are proportional
        to quota: a tenant with quota 3 reaches a given estimated cost
        in a third of the credit passes a quota-1 tenant needs.  Ties
        break in round-robin order (the rotation advances past every
        started tenant).  A low-quota or expensive head can never
        starve: its lane's deficit is never reset while backlogged, so
        enough passes always accumulate.
        """
        while True:
            candidates = [
                lane
                for lane in self._backlogged()
                if self._head_has_headroom(lane)
            ]
            if not candidates:
                break
            affordable = [
                lane
                for lane in candidates
                if lane.deficit >= lane.queue[0].estimated_ms
            ]
            if affordable:
                lane = affordable[0]
                head = lane.queue.popleft()
                lane.deficit -= head.estimated_ms
                self.admission.on_dequeue(lane.name)
                self._start(head)
                self._rr_order.remove(lane.name)
                self._rr_order.append(lane.name)
                continue
            # Nobody affords a start: fast-forward whole credit passes
            # until the closest lane does (equivalent to iterating
            # single-quantum passes, without the iterations).
            passes_needed = min(
                max(
                    1,
                    -int(
                        -(lane.queue[0].estimated_ms - lane.deficit)
                        // (DRR_QUANTUM_MS * lane.policy.quota)
                    ),
                )
                for lane in candidates
            )
            self.stats.deficit_credit_passes += passes_needed
            for lane in candidates:
                lane.deficit += (
                    passes_needed * DRR_QUANTUM_MS * lane.policy.quota
                )
        for lane in self._lanes.values():
            if not lane.queue:
                # Standard DRR anti-burst rule: an idle lane must not
                # bank credit for later.
                lane.deficit = 0.0

    # -- dispatching requests --------------------------------------------------

    def _dispatch_round(self, waiting: "list[QueryTask]") -> None:
        if len(waiting) == 1:
            self._dispatch_passthrough(waiting[0])
            return
        self._dispatch_combined(waiting)

    def _dispatch_passthrough(self, task: QueryTask) -> None:
        """Single-task round: forward the wave 1:1 to the shared
        scheduler.  This is the code path the byte-identical equivalence
        guarantee rests on."""
        wave = task.request
        assert wave is not None
        task.outcomes = self.shared.dispatch_wave(wave)
        self.stats.waves_dispatched += 1
        self.stats.submits_dispatched += len(wave)

    def _dispatch_combined(self, waiting: "list[QueryTask]") -> None:
        """Pack every parked wave of the round into shared waves.

        Submits are interleaved across tasks in tenant round-robin order
        (one submit per task per turn), so no single chatty query can
        monopolize the front of a wave; the round goes out as one wave.
        """
        order = [
            task
            for name in self._rr_order
            for task in waiting
            if task.tenant == name
        ]
        for task in order:
            task.outcomes = [None] * len(task.request)  # type: ignore[arg-type]
        turns = zip_longest(
            *([(task, index) for index in range(len(task.outcomes))] for task in order)
        )
        interleaved = [pair for turn in turns for pair in turn if pair is not None]
        if not interleaved:
            return
        submits = [task.request[index] for task, index in interleaved]  # type: ignore[index]
        outcomes = self.shared.dispatch_wave(submits)
        self.stats.waves_dispatched += 1
        self.stats.submits_dispatched += len(submits)
        if len({id(task) for task, _ in interleaved}) > 1:
            self.stats.cross_query_waves += 1
        for (task, index), outcome in zip(interleaved, outcomes):
            task.outcomes[index] = outcome
