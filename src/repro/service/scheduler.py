"""The fair-share inter-query scheduler.

The mediator's executor is a synchronous, single-query engine: it walks
one plan and blocks on its :class:`~repro.mediator.scheduler.
SubmitScheduler` for every dispatch.  The serving layer runs *many*
queries over one shared simulated clock, so each admitted query becomes
a :class:`QueryTask` — an unmodified ``MediatorExecutor`` run as a
coroutine — whose dispatch calls are intercepted by a
:class:`TaskDispatchProxy` and handed to the coordinating
:class:`FairShareScheduler` instead of hitting a wrapper directly.

A task runs on a parked runner thread taken from a process-wide free
list at its first step and handed back when it finishes, so a query
costs no thread start.  The handoff is a pair of locks and is *strict*:
exactly one thread (a task or the coordinator) runs at any instant,
SimPy-style, so execution is fully deterministic — the threads are a
coroutine mechanism, not a source of parallelism.  The free list is
unbounded because a suspended task keeps its runner: a fixed-size pool
would deadlock once every runner held a suspended task and the
coordinator started one more.  The coordinator repeatedly

1. **starts** queued queries when admission headroom frees, picking
   tenants by deficit round-robin weighted by their quota;
2. **advances** every runnable task until it blocks on a dispatch
   request (or finishes);
3. **packs** the pending requests of the round into combined submit
   waves — interleaved across tenants, honoring a per-wrapper cap — and
   dispatches them on the shared :class:`SubmitScheduler`, so wrapper
   waits of *different queries* overlap on the
   :class:`~repro.sources.clock.ParallelClock`.

Equivalence guarantee (tested in ``tests/service/test_equivalence.py``):
when exactly one task is in the round, its requests pass through 1:1 —
``dispatch_one`` for single sequential submits, ``dispatch_wave`` for
the executor's own waves — so a service at concurrency 1 produces
byte-identical results, submit logs, and clock totals to calling
``Mediator.query`` directly.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.algebra.logical import Submit
from repro.mediator.scheduler import DispatchOutcome, SubmitScheduler
from repro.service.admission import AdmissionController, TenantPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.executor import MediatorExecutor
    from repro.obs.trace import SpanTracer


@dataclass
class _DispatchRequest:
    """One blocked dispatch call of one task, awaiting the coordinator."""

    submits: list[Submit]
    #: ``"one"`` for a sequential ``dispatch_one`` call, ``"wave"`` for
    #: an executor-issued ``dispatch_wave`` — the distinction matters
    #: only in single-task rounds, where it is preserved exactly.
    mode: str
    outcomes: list[DispatchOutcome | None] = field(default_factory=list)


class TaskDispatchProxy:
    """Stands in for the executor's ``SubmitScheduler`` inside a task.

    Dispatch methods block the task thread and yield to the coordinator,
    which runs the request on the shared scheduler and hands back its
    outcomes — failed ones included, so a wrapper fault surfaces in the
    task that owns the submit, never in the coordinator.  The outcomes
    carry every per-query dispatch number the executor folds (cache hit,
    fault and replica events, wave share), so the only other state it
    reads from its dispatcher is the shared clock.
    """

    def __init__(self, task: "QueryTask", shared: SubmitScheduler) -> None:
        self._task = task
        self.clock = shared.clock
        #: ``MediatorExecutor.set_tracer`` assigns this; the per-task
        #: tracer is used by the executor's compose spans, while submit
        #: and wave spans stay on the shared scheduler's own tracer.
        self.tracer = shared.tracer

    def dispatch_one(self, submit: Submit) -> DispatchOutcome:
        outcomes = self._task.await_dispatch(
            _DispatchRequest(submits=[submit], mode="one")
        )
        return outcomes[0]

    def dispatch_wave(self, submits: "list[Submit]") -> "list[DispatchOutcome]":
        if not submits:
            return []
        return self._task.await_dispatch(
            _DispatchRequest(submits=list(submits), mode="wave")
        )


class _Runner:
    """One parked daemon thread that runs query tasks, one after another.

    ``go`` and ``back`` are plain locks used as binary semaphores, both
    held while the runner is parked: the coordinator resumes the task
    with ``go.release(); back.acquire()`` and the task yields with
    ``back.release(); go.acquire()``, so exactly one side runs at any
    instant.  The coordinator hands a finished task's runner back to
    ``_FREE_RUNNERS``; the task thread itself never touches the list.
    """

    def __init__(self) -> None:
        self.go = threading.Lock()
        self.back = threading.Lock()
        self.go.acquire()
        self.back.acquire()
        self.task: "QueryTask | None" = None
        threading.Thread(
            target=self._loop, name="query-task-runner", daemon=True
        ).start()

    def _loop(self) -> None:
        while True:
            self.go.acquire()
            self.task._run()  # type: ignore[union-attr]


#: Process-wide parked runners; unbounded on purpose (see the module
#: docstring), it grows to the peak number of tasks in flight at once.
_FREE_RUNNERS: "list[_Runner]" = []
if hasattr(os, "register_at_fork"):
    # A forked child inherits the list but none of the parked threads.
    os.register_at_fork(after_in_child=_FREE_RUNNERS.clear)


class QueryTask:
    """One admitted query, run as a strict-handoff coroutine on a runner."""

    def __init__(
        self,
        ticket: Any,
        tenant: str,
        estimated_ms: float,
        plan,
        tracer: "SpanTracer | None" = None,
    ) -> None:
        self.ticket = ticket
        self.tenant = tenant
        self.estimated_ms = estimated_ms
        #: Set by the service once built: the executor dispatches through
        #: a proxy that needs this task first.
        self.executor: "MediatorExecutor | None" = None
        self.plan = plan
        self.tracer = tracer
        self.execution = None
        self.error: BaseException | None = None
        self.finished = False
        #: Set by the service: the plan's OptimizationResult and the
        #: original SQL text (for the final QueryResult).
        self.optimized = None
        self.sql: str | None = None
        self.request: _DispatchRequest | None = None
        #: Taken at the first ``advance()``, returned once finished.
        self._runner: _Runner | None = None

    # -- task-thread side ------------------------------------------------------

    def _run(self) -> None:
        try:
            if self.tracer is not None and self.tracer.enabled:
                with self.tracer.span("query", kind="query"):
                    with self.tracer.span("execute", kind="phase"):
                        self.execution = self.executor.execute(self.plan)
            else:
                self.execution = self.executor.execute(self.plan)
        except BaseException as exc:  # noqa: BLE001 - reported via the ticket
            self.error = exc
        finally:
            self.finished = True
            self._runner.back.release()  # type: ignore[union-attr]

    def await_dispatch(
        self, request: _DispatchRequest
    ) -> "list[DispatchOutcome]":
        """Park the task until the coordinator delivers outcomes."""
        self.request = request
        runner = self._runner
        assert runner is not None
        runner.back.release()
        runner.go.acquire()
        assert all(outcome is not None for outcome in request.outcomes)
        return request.outcomes  # type: ignore[return-value]

    # -- coordinator side ------------------------------------------------------

    def advance(self) -> None:
        """Run the task until its next dispatch request or finish."""
        runner = self._runner
        if runner is None:
            # pop() itself, not a length check first: another
            # coordinator thread may take the last runner in between.
            try:
                runner = _FREE_RUNNERS.pop()
            except IndexError:
                runner = _Runner()
            runner.task = self
            self._runner = runner
        self.request = None
        runner.go.release()
        runner.back.acquire()
        if self.finished:
            self._runner = None
            runner.task = None
            _FREE_RUNNERS.append(runner)


@dataclass
class SchedulerStats:
    """Coordinator-level accounting, surfaced by the E11 benchmark."""

    started: int = 0
    completed: int = 0
    rounds: int = 0
    waves_dispatched: int = 0
    #: Waves that combined submits of two or more distinct queries — the
    #: direct evidence of cross-query overlap.
    cross_query_waves: int = 0
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
        wrapper_wave_cap: int | None = None,
        on_start: Callable[[QueryTask], None] | None = None,
        on_complete: Callable[[QueryTask], None] | None = None,
    ) -> None:
        if wrapper_wave_cap is not None and wrapper_wave_cap < 1:
            raise ValueError(
                f"wrapper_wave_cap must be >= 1, got {wrapper_wave_cap}"
            )
        self.shared = shared
        self.admission = admission
        self.wrapper_wave_cap = wrapper_wave_cap
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
        """Single-task round: forward the request 1:1 to the shared
        scheduler, preserving one-vs-wave mode exactly.  This is the
        code path the byte-identical equivalence guarantee rests on."""
        request = task.request
        assert request is not None
        if request.mode == "one":
            outcomes = [self.shared.dispatch_one(request.submits[0])]
        else:
            outcomes = list(self.shared.dispatch_wave(request.submits))
        self.stats.waves_dispatched += 1
        self.stats.submits_dispatched += len(request.submits)
        request.outcomes = outcomes

    def _dispatch_combined(self, waiting: "list[QueryTask]") -> None:
        """Pack every pending request of the round into shared waves.

        Submits are interleaved across tasks in tenant round-robin order
        (one submit per task per turn), so no single chatty query can
        monopolize the front of a wave; a per-wrapper cap splits the
        round into successive waves when one wrapper would be asked for
        too many concurrent subqueries.
        """
        for task in waiting:
            request = task.request
            assert request is not None
            request.outcomes = [None] * len(request.submits)
        order = [
            task
            for name in self._rr_order
            for task in waiting
            if task.tenant == name
        ]
        # Tasks of tenants not in the rotation (cannot happen via the
        # public API, but keep the packing total regardless).
        order += [task for task in waiting if task not in order]
        cursors = {id(task): 0 for task in order}
        interleaved: list[tuple[_DispatchRequest, int]] = []
        remaining = len(order)
        while remaining:
            remaining = 0
            for task in order:
                request = task.request
                assert request is not None
                cursor = cursors[id(task)]
                if cursor >= len(request.submits):
                    continue
                interleaved.append((request, cursor))
                cursors[id(task)] = cursor + 1
                if cursor + 1 < len(request.submits):
                    remaining += 1
        for chunk in self._chunk_by_wrapper_cap(interleaved):
            sources = {id(request) for request, _ in chunk}
            submits = [request.submits[index] for request, index in chunk]
            outcomes = self.shared.dispatch_wave(submits)
            self.stats.waves_dispatched += 1
            self.stats.submits_dispatched += len(submits)
            if len(sources) > 1:
                self.stats.cross_query_waves += 1
            for (request, index), outcome in zip(chunk, outcomes):
                request.outcomes[index] = outcome

    def _chunk_by_wrapper_cap(
        self, interleaved: "list[tuple[_DispatchRequest, int]]"
    ) -> "list[list[tuple[_DispatchRequest, int]]]":
        cap = self.wrapper_wave_cap
        if cap is None:
            return [interleaved] if interleaved else []
        chunks: list[list[tuple[_DispatchRequest, int]]] = []
        current: list[tuple[_DispatchRequest, int]] = []
        counts: dict[str, int] = {}
        for request, index in interleaved:
            wrapper = request.submits[index].wrapper
            if counts.get(wrapper, 0) >= cap:
                chunks.append(current)
                current, counts = [], {}
            current.append((request, index))
            counts[wrapper] = counts.get(wrapper, 0) + 1
        if current:
            chunks.append(current)
        return chunks
