"""The wall-clock execution backend.

:class:`RealTimeBackend` implements the
:class:`~repro.mediator.backend.ExecutionBackend` seam with real time:

* :class:`WallClock` — a :class:`~repro.sources.clock.SimClock` whose
  ``now_ms`` reads ``time.perf_counter``.  ``advance``/``charge_*`` no
  longer move time (wall time passes by itself); they only keep the
  counters, under a lock, so the executor's existing accounting reads
  (messages, bytes, waits) stay meaningful;
* :meth:`RealTimeBackend.run_wave` — wave branches fan out on a shared
  ``ThreadPoolExecutor`` and genuinely overlap; outcomes return in
  input order;
* :meth:`RealTimeBackend.measured_execute` — one wrapper execution
  timed with ``perf_counter``; with a ``budget_ms`` the wait is bounded
  for real (the deadline primitive): an overrunning wrapper is
  abandoned on its worker thread and reported as a wait of at least the
  budget, which makes the scheduler's existing deadline arithmetic
  cancel the attempt exactly as it does in simulation;
* :meth:`RealTimeBackend.sleep` — retry backoff actually sleeps.

Wave accounting (:class:`WallWaveAccounting`) mirrors the sim
:class:`~repro.sources.clock.ParallelClock` interface, but the makespan
is *measured* — wall time from ``begin_wave`` to ``commit_wave`` — not
list-scheduled.  ``saved_ms`` (sequential sum minus measured makespan)
can therefore come out negative on a wave whose dispatch overhead
exceeds its overlap win; that is an honest measurement, not a bug.

Hedged submits are the one resilience feature that stays simulation
only: the sim scheduler models "first response wins" by charging the
winner's timeline, but on a wall clock the primary wait has already
been *spent* by the time its duration is known, so a real hedge needs
true speculative dual dispatch (future work).  The scheduler therefore
installs no hedge step on a backend whose ``real_time`` is true.
Retries, deadlines, failover and breaker cooldowns all run for real.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import SourceFaultError, SourceUnavailableError
from repro.mediator.backend import ExecutionBackend, MeasuredAttempt, WaveCharges
from repro.sources.clock import ClockStats, ParallelStats, SimClock, WaveStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.logical import PlanNode
    from repro.wrappers.base import ExecutionResult, Wrapper

#: Reported on top of the budget when a deadline abandons an attempt, so
#: ``waited + wait > deadline`` is strict even at a zero remaining budget.
_OVERRUN_EPSILON_MS = 1e-3


class WallClock(SimClock):
    """A clock whose time is the wall's.

    ``now_ms`` measures milliseconds since construction (or the last
    :meth:`reset`) via ``perf_counter``; ``advance`` is a validated
    no-op — components may keep charging simulated durations, but real
    time is what elapses.  Counter updates are lock-guarded: on the
    real backend they arrive from pool threads.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    @property
    def now_ms(self) -> float:
        return (time.perf_counter() - self._origin) * 1000.0

    def elapsed_since(self, mark_ms: float) -> float:
        return self.now_ms - mark_ms

    def advance(self, ms: float) -> None:
        if ms < 0:
            raise ValueError(f"cannot advance clock by negative time: {ms}")
        # Wall time passes by itself; simulated charges are dropped.

    def charge_wait(self, ms: float) -> None:
        with self._lock:
            self.stats.wait_ms += ms

    def charge_message(self, payload_bytes: int = 0) -> None:
        with self._lock:
            self.stats.messages += 1
            self.stats.bytes_shipped += payload_bytes

    def charge_page_read(self, count: int = 1) -> None:
        with self._lock:
            self.stats.page_reads += count

    def charge_page_write(self, count: int = 1) -> None:
        with self._lock:
            self.stats.page_writes += count

    def charge_objects(self, count: int = 1) -> None:
        with self._lock:
            self.stats.objects_processed += count

    def charge_seek(self) -> None:
        pass

    def sleep(self, ms: float) -> None:
        """A genuine idle wait, counted like a simulated one."""
        if ms <= 0:
            return
        time.sleep(ms / 1000.0)
        self.charge_wait(ms)

    def reset(self) -> None:
        with self._lock:
            self._origin = time.perf_counter()
            self.stats = ClockStats()


class WallWaveAccounting:
    """Wave accounting against the wall: the sequential sum is recorded
    per branch (thread-safely), the makespan is *measured* as the wall
    time between ``begin_wave`` and ``commit_wave``."""

    def __init__(self, clock: WallClock, max_concurrency: int | None) -> None:
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.clock = clock
        self.max_concurrency = max_concurrency
        self.stats = ParallelStats()
        self._lock = threading.Lock()
        self._wave: list[float] | None = None
        self._wave_start_ms = 0.0

    @property
    def in_wave(self) -> bool:
        return self._wave is not None

    def begin_wave(self) -> None:
        if self._wave is not None:
            raise RuntimeError("a wave is already open (waves do not nest)")
        self._wave = []
        self._wave_start_ms = self.clock.now_ms

    def charge_branch(self, duration_ms: float) -> None:
        if self._wave is None:
            raise RuntimeError("charge_branch outside begin_wave/commit_wave")
        if duration_ms < 0:
            raise ValueError(f"negative branch duration: {duration_ms}")
        with self._lock:
            self._wave.append(duration_ms)

    def charge_message(self, payload_bytes: int = 0) -> None:
        self.clock.charge_message(payload_bytes=payload_bytes)

    def commit_wave(self) -> WaveStats:
        if self._wave is None:
            raise RuntimeError("commit_wave without begin_wave")
        durations, self._wave = self._wave, None
        wave = WaveStats(
            branches=len(durations),
            sequential_ms=sum(durations),
            # Measured, not modeled: saved_ms goes negative when the
            # dispatch overhead beats the overlap win.
            makespan_ms=self.clock.now_ms - self._wave_start_ms,
        )
        self.stats.waves += 1
        self.stats.branches += wave.branches
        self.stats.sequential_ms += wave.sequential_ms
        self.stats.makespan_ms += wave.makespan_ms
        return wave


class RealTimeBackend(ExecutionBackend):
    """Wall-clock dispatch on a thread pool.

    One backend owns one pool (created lazily, sized by
    ``max_workers``, shut down by :meth:`close` or context exit) and
    one :class:`WallClock`.  The scheduler's wave of branch thunks runs
    genuinely concurrently; everything else the scheduler does —
    retries, breakers, failover, caching — is unchanged policy running
    against real time.
    """

    name = "real"
    real_time = True

    def __init__(self, max_workers: int = 8) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.clock = WallClock()
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- seam hooks ----------------------------------------------------------

    def attach_waves(self, max_concurrency: int | None) -> Any:
        if max_concurrency is not None:
            # The executor's concurrency cap bounds true parallelism too.
            self.max_workers = min(self.max_workers, max_concurrency)
        return WallWaveAccounting(self.clock, max_concurrency)

    def wave_charges(self, parallel: Any) -> WaveCharges:
        # Backoffs sleep on the branch's own pool thread.
        return WaveCharges(parallel, self.clock.sleep)

    def measured_execute(
        self,
        wrapper: "Wrapper",
        plan: "PlanNode",
        budget_ms: float | None = None,
    ) -> MeasuredAttempt:
        if budget_ms is None:
            return self._timed_attempt(wrapper, plan)
        return self._budgeted_attempt(wrapper, plan, budget_ms)

    def run_wave(
        self, branches: "Sequence[Callable[[], Any]]"
    ) -> "list[Any]":
        if len(branches) <= 1:
            return [branch() for branch in branches]
        return list(self._ensure_pool().map(lambda branch: branch(), branches))

    def sleep(self, ms: float) -> None:
        self.clock.sleep(ms)

    # -- internals -----------------------------------------------------------

    def _timed_attempt(
        self, wrapper: "Wrapper", plan: "PlanNode"
    ) -> MeasuredAttempt:
        start = time.perf_counter()
        try:
            result: "ExecutionResult" = wrapper.execute(plan)
        except SourceUnavailableError as fault:
            return MeasuredAttempt(
                None, self._elapsed_ms(start), "unavailable", fault
            )
        except SourceFaultError as fault:
            return MeasuredAttempt(
                None, self._elapsed_ms(start), "transient", fault
            )
        except Exception as fault:  # a real source can fail in real ways
            return MeasuredAttempt(
                None, self._elapsed_ms(start), "transient", fault
            )
        return MeasuredAttempt(result, self._elapsed_ms(start))

    def _budgeted_attempt(
        self, wrapper: "Wrapper", plan: "PlanNode", budget_ms: float
    ) -> MeasuredAttempt:
        """One attempt whose wait is bounded by the remaining deadline
        budget.  The worker thread cannot be killed mid-execute, so an
        overrunning attempt is *abandoned*: it finishes (and is
        discarded) on its own daemon thread while the dispatcher moves
        on — mirroring a client that hangs up on a slow source."""
        box: dict[str, Any] = {}

        def target() -> None:
            box["attempt"] = self._timed_attempt(wrapper, plan)

        start = time.perf_counter()
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout=budget_ms / 1000.0)
        if worker.is_alive():
            return MeasuredAttempt(
                None,
                max(self._elapsed_ms(start), budget_ms) + _OVERRUN_EPSILON_MS,
            )
        return box["attempt"]

    @staticmethod
    def _elapsed_ms(start: float) -> float:
        return (time.perf_counter() - start) * 1000.0

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-rt",
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "RealTimeBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
