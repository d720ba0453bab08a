"""The execution-backend seam: where time and dispatch actually happen.

Everything the executor/scheduler stack does with *time* — waiting for a
wrapper, sleeping out a retry backoff, overlapping a wave of submits,
enforcing a per-submit deadline — funnels through one small interface,
:class:`ExecutionBackend`:

* :attr:`ExecutionBackend.clock` — the accounting clock all elapsed
  times are read from;
* :meth:`ExecutionBackend.measured_execute` — run one wrapper subquery
  and report how long it took (with an optional wait budget — the
  deadline primitive);
* :meth:`ExecutionBackend.run_wave` — execute a wave of independent
  dispatch branches;
* :meth:`ExecutionBackend.sleep` — an idle wait (retry backoff).

Two implementations exist.  :class:`SimBackend` (here) is the seed
stack: a :class:`~repro.sources.clock.SimClock` that components charge
explicitly, waves executed sequentially with their overlap *accounted*
as a list-scheduled makespan through :class:`~repro.sources.clock.
ParallelClock`.  It is the default everywhere and is byte-identical to
the pre-seam code path (``tests/rt/test_backend_equivalence.py`` proves
this against captured seed transcripts).  :class:`~repro.rt.backend.
RealTimeBackend` (``repro.rt``) replaces simulated charging with wall
clocks, thread pools and genuine sleeps — see ``docs/backends.md``.

The charge strategies (:class:`SequentialCharges` / :class:`WaveCharges`)
say where one submit's costs land — on the clock at once, or in a wave
branch's duration.  They are the same on every backend except for how
an idle wait passes, which is the backend's own primitive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import SourceFaultError, SourceUnavailableError
from repro.sources.clock import CostProfile, ParallelClock, SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.logical import PlanNode
    from repro.wrappers.base import ExecutionResult, Wrapper

#: Mediator device: pure in-memory processing plus the uniform
#: communication cost of §2.3 (150 ms per message, 0.002 ms per byte —
#: matching the generic model's MEDIATOR_COEFFICIENTS).
MEDIATOR_PROFILE = CostProfile(
    io_ms=0.0,
    cpu_ms_per_object=0.02,
    cpu_ms_per_eval=0.02,
    net_ms_per_message=150.0,
    net_ms_per_byte=0.002,
)


@dataclass
class MeasuredAttempt:
    """One wrapper execution as observed by a backend.

    ``duration_ms`` is the backend's notion of how long the attempt
    took: the wrapper-reported simulated response time on the sim
    backend, measured wall-clock time on the real one.  A faulted
    attempt carries its classification in ``error`` (``"unavailable"``
    or ``"transient"``) and the original exception in ``fault`` so
    non-resilient dispatch paths can re-raise it unchanged.  A
    deadline-cancelled attempt (real backend only) has ``result`` and
    ``error`` both ``None`` with ``duration_ms`` at least the budget —
    the retry loop's deadline arithmetic then cancels it exactly like a
    sim wait that overran.
    """

    result: "ExecutionResult | None"
    duration_ms: float
    error: str | None = None
    fault: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class SequentialCharges:
    """Charge strategy of sequential dispatch: every cost lands on the
    backend's clock immediately.  Stateless, so one serves a scheduler
    for life."""

    __slots__ = ("clock", "idle_wait")

    def __init__(self, clock: SimClock, idle_wait: Callable[[float], None]) -> None:
        self.clock = clock
        #: Backoff sleeps and cancelled waits: the backend's ``sleep``
        #: (sim: ``charge_wait``, so the clock's ``wait_ms`` counter
        #: separates them from device time; real: slept).
        self.idle_wait = idle_wait

    def message(self, payload_bytes: int = 0) -> None:
        self.clock.charge_message(payload_bytes=payload_bytes)

    def wrapper_wait(self, ms: float) -> None:
        self.clock.advance(ms)  # a no-op on a wall clock: it already passed

    def finish(self, response_bytes: int | None) -> None:
        """The submit is over; a subanswer ships its response message."""
        if response_bytes is not None:
            self.clock.charge_message(payload_bytes=response_bytes)


class WaveCharges:
    """Charge strategy of one wave branch: messages stay serialized,
    waits (wrapper time, backoff, cancelled remainders) accumulate into
    the branch duration the wave's makespan is committed from."""

    __slots__ = ("parallel", "sleep", "branch_ms", "response_bytes")

    def __init__(
        self,
        parallel: ParallelClock,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.parallel = parallel
        #: How an idle wait passes on the branch's own timeline; ``None``
        #: when that timeline is modelled (the commit advances the clock).
        self.sleep = sleep
        self.branch_ms = 0.0
        #: Size of the subanswer the branch produced; the wave ships the
        #: response messages after its commit.  ``None``: nothing to ship.
        self.response_bytes: int | None = None

    def message(self, payload_bytes: int = 0) -> None:
        self.parallel.charge_message(payload_bytes=payload_bytes)

    def wrapper_wait(self, ms: float) -> None:
        self.branch_ms += ms

    def idle_wait(self, ms: float) -> None:
        self.branch_ms += ms
        if self.sleep is not None:
            self.sleep(ms)

    def finish(self, response_bytes: int | None) -> None:
        self.parallel.charge_branch(self.branch_ms)
        self.response_bytes = response_bytes


class ExecutionBackend(ABC):
    """Where the executor/scheduler stack's time-and-dispatch effects land.

    The scheduler calls these hooks and *only* these hooks for anything
    temporal; everything else (caching, breakers, retry bookkeeping,
    span emission) is backend-independent policy that behaves the same
    on simulated and wall-clock time.
    """

    #: Human-readable backend name (surfaced in docs/diagnostics).
    name: str = "backend"
    #: True when ``clock`` reads wall time and waves really overlap.
    real_time: bool = False
    #: The accounting clock; ``now_ms``/``elapsed_since`` semantics of
    #: :class:`~repro.sources.clock.SimClock` (wall-clock backends
    #: subclass it with real readings).
    clock: SimClock

    @abstractmethod
    def attach_waves(self, max_concurrency: int | None) -> ParallelClock:
        """A fresh wave-accounting object for one scheduler (duck-typed
        :class:`~repro.sources.clock.ParallelClock`: ``begin_wave`` /
        ``charge_branch`` / ``charge_message`` / ``commit_wave`` /
        ``stats``)."""

    def sequential_charges(self) -> SequentialCharges:
        """The charge strategy of sequential dispatches."""
        return SequentialCharges(self.clock, self.sleep)

    def wave_charges(self, parallel: ParallelClock) -> WaveCharges:
        """The charge strategy of one wave branch.  Waits inside a
        modelled wave are only accounted; a backend whose branches run
        on real threads overrides this to make them pass."""
        return WaveCharges(parallel)

    @abstractmethod
    def measured_execute(
        self,
        wrapper: "Wrapper",
        plan: "PlanNode",
        budget_ms: float | None = None,
    ) -> MeasuredAttempt:
        """Run one wrapper subquery; report its duration and outcome.

        ``budget_ms`` is the deadline primitive: the remaining wait
        budget of the dispatching submit.  The sim backend ignores it
        (the retry loop cancels overruns arithmetically, after the
        fact); the real backend bounds the actual wait with it.
        """

    @abstractmethod
    def run_wave(
        self, branches: "Sequence[Callable[[], Any]]"
    ) -> "list[Any]":
        """Execute a wave of independent branch thunks; results in
        input order."""

    @abstractmethod
    def sleep(self, ms: float) -> None:
        """An idle wait outside any dispatch (sim: charged; real: slept)."""


class SimBackend(ExecutionBackend):
    """The seed stack behind the seam: simulated clock, sequential
    branch execution with makespan accounting.  Byte-identical to the
    pre-seam code path."""

    name = "sim"
    real_time = False

    def __init__(self) -> None:
        self.clock = SimClock(MEDIATOR_PROFILE)

    def attach_waves(self, max_concurrency: int | None) -> ParallelClock:
        return ParallelClock(self.clock, max_concurrency)

    def measured_execute(
        self,
        wrapper: "Wrapper",
        plan: "PlanNode",
        budget_ms: float | None = None,
    ) -> MeasuredAttempt:
        # The deadline budget is ignored by design: the sim retry loop
        # lets the (simulated) wait complete, then cancels the overrun
        # arithmetically — charging only the remaining budget.
        try:
            result = wrapper.execute(plan)
        except SourceUnavailableError as fault:
            return MeasuredAttempt(None, fault.elapsed_ms, "unavailable", fault)
        except SourceFaultError as fault:
            return MeasuredAttempt(None, fault.elapsed_ms, "transient", fault)
        return MeasuredAttempt(result, result.total_time_ms)

    def run_wave(
        self, branches: "Sequence[Callable[[], Any]]"
    ) -> "list[Any]":
        # Branches execute one after another, in input order, so results
        # — and the wrapper engines' own clocks — stay deterministic;
        # only the accounting treats them as overlapping.
        return [branch() for branch in branches]

    def sleep(self, ms: float) -> None:
        self.clock.charge_wait(ms)
