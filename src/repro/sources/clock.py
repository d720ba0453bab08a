"""Deterministic simulated time for data sources and the mediator.

The paper measures wrapper operations in *milliseconds of response time*
(``TimeFirst``, ``TimeNext``, ``TotalTime``).  The original experiments ran
against a real ObjectStore installation; this reproduction replaces wall
time with a :class:`SimClock` that each simulated component charges
explicitly: page reads charge an I/O cost, per-object processing charges a
CPU cost, and network hops charge a latency.  This keeps the experiments
deterministic and laptop-scale while preserving the cost *structure* the
paper relies on (``IO * pages + Output * objects`` for the Figure 12
experiment).

Times are floats in **milliseconds** throughout, matching §2.3 of the
paper ("The time is measured in milliseconds").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generic import makespan


@dataclass
class CostProfile:
    """Per-operation simulated charges of a device, in milliseconds.

    The defaults model the disk of the paper's §5 experiment: the paper
    uses ``IO = 0.025 s`` per page and ``Output = 0.009 s`` per object,
    i.e. 25 ms and 9 ms.

    Attributes:
        io_ms: time to read or write one page from storage.
        cpu_ms_per_object: time to produce (fetch/copy) one object.
        cpu_ms_per_eval: time to run one operator step (filter, projection,
            comparison) over one row — charged by plan interpreters above
            the access paths.
        seek_ms: fixed per-operation startup overhead.
        net_ms_per_message: round-trip latency charged per network message.
        net_ms_per_byte: transfer time charged per byte shipped.
    """

    io_ms: float = 25.0
    cpu_ms_per_object: float = 9.0
    cpu_ms_per_eval: float = 0.5
    seek_ms: float = 0.0
    net_ms_per_message: float = 0.0
    net_ms_per_byte: float = 0.0


@dataclass
class ClockStats:
    """Accumulated counters, useful for asserting *why* time was charged."""

    page_reads: int = 0
    page_writes: int = 0
    objects_processed: int = 0
    messages: int = 0
    bytes_shipped: int = 0
    #: Idle waits the mediator charged outside device work: retry
    #: backoff sleeps and cancelled (timed-out) wrapper waits.  Zero on
    #: any component that never dispatches with a retry policy.
    wait_ms: float = 0.0


class SimClock:
    """A monotonically advancing simulated clock.

    Components call the ``charge_*`` methods; tests and the benchmark
    harness read :attr:`now_ms` (or take deltas) as the "measured" response
    time.  The clock also keeps counters so tests can assert on page-read
    counts — the quantity Yao's formula predicts — not just on time.
    """

    def __init__(self, profile: CostProfile | None = None) -> None:
        self.profile = profile if profile is not None else CostProfile()
        self._now_ms = 0.0
        self.stats = ClockStats()

    # -- reading the clock -------------------------------------------------

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds since construction."""
        return self._now_ms

    def elapsed_since(self, mark_ms: float) -> float:
        """Milliseconds elapsed since a previously saved ``now_ms`` mark."""
        return self._now_ms - mark_ms

    # -- charging time ------------------------------------------------------

    def advance(self, ms: float) -> None:
        """Advance the clock by an arbitrary non-negative duration."""
        if ms < 0:
            raise ValueError(f"cannot advance clock by negative time: {ms}")
        self._now_ms += ms

    def charge_page_read(self, count: int = 1) -> None:
        """Charge ``count`` page reads at the profile's I/O cost."""
        self.stats.page_reads += count
        self.advance(self.profile.io_ms * count)

    def charge_page_write(self, count: int = 1) -> None:
        """Charge ``count`` page writes at the profile's I/O cost."""
        self.stats.page_writes += count
        self.advance(self.profile.io_ms * count)

    def charge_objects(self, count: int = 1) -> None:
        """Charge per-object CPU for ``count`` objects."""
        self.stats.objects_processed += count
        self.advance(self.profile.cpu_ms_per_object * count)

    def charge_seek(self) -> None:
        """Charge one fixed startup/seek overhead."""
        self.advance(self.profile.seek_ms)

    def charge_wait(self, ms: float) -> None:
        """Charge an idle wait (retry backoff, a cancelled wrapper wait).

        Advances the clock like :meth:`advance` but also accumulates the
        :attr:`ClockStats.wait_ms` counter, so tests can distinguish
        fault-handling time from device time.
        """
        self.stats.wait_ms += ms
        self.advance(ms)

    def charge_message(self, payload_bytes: int = 0) -> None:
        """Charge one network message carrying ``payload_bytes`` bytes."""
        self.stats.messages += 1
        self.stats.bytes_shipped += payload_bytes
        self.advance(
            self.profile.net_ms_per_message
            + self.profile.net_ms_per_byte * payload_bytes
        )

    # -- scoping -------------------------------------------------------------

    def reset(self) -> None:
        """Zero the clock and all counters."""
        self._now_ms = 0.0
        self.stats = ClockStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now_ms:.3f}ms, {self.stats})"


@dataclass
class WaveStats:
    """Accounting of one committed wave of concurrent branches."""

    branches: int = 0
    #: Sum of the branch durations — what a sequential executor would pay.
    sequential_ms: float = 0.0
    #: List-scheduled completion time actually charged to the clock.
    makespan_ms: float = 0.0

    @property
    def saved_ms(self) -> float:
        """Simulated time the overlap saved versus sequential dispatch."""
        return self.sequential_ms - self.makespan_ms


@dataclass
class ParallelStats:
    """Cumulative counters across all waves of one :class:`ParallelClock`."""

    waves: int = 0
    branches: int = 0
    sequential_ms: float = 0.0
    makespan_ms: float = 0.0

    @property
    def saved_ms(self) -> float:
        return self.sequential_ms - self.makespan_ms


class ParallelClock:
    """Wave accounting over a :class:`SimClock`.

    The sequential execution model advances the clock by the *sum* of the
    wrapper response times it waits for.  A mediator that dispatches
    independent subqueries concurrently only waits for the *slowest* one
    (per concurrency slot).  This class models that: branch durations are
    recorded with :meth:`charge_branch` between :meth:`begin_wave` and
    :meth:`commit_wave`, and the commit advances the underlying clock by
    the wave's list-scheduled makespan instead of the branch-duration sum.

    Everything stays deterministic: branches are *executed* one after
    another by the caller (no threads); only the time accounting treats
    them as overlapping.  Serialized charges (the mediator's single
    network interface shipping request/response messages) keep going
    through the underlying clock directly.
    """

    def __init__(
        self, clock: SimClock, max_concurrency: int | None = None
    ) -> None:
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.clock = clock
        self.max_concurrency = max_concurrency
        self.stats = ParallelStats()
        self._wave: list[float] | None = None

    # -- wave lifecycle -----------------------------------------------------

    @property
    def in_wave(self) -> bool:
        return self._wave is not None

    def begin_wave(self) -> None:
        if self._wave is not None:
            raise RuntimeError("a wave is already open (waves do not nest)")
        self._wave = []

    def charge_branch(self, duration_ms: float) -> None:
        """Record one concurrent branch duration for the open wave."""
        if self._wave is None:
            raise RuntimeError("charge_branch outside begin_wave/commit_wave")
        if duration_ms < 0:
            raise ValueError(f"negative branch duration: {duration_ms}")
        self._wave.append(duration_ms)

    def charge_message(self, payload_bytes: int = 0) -> None:
        """Serialized communication: passes straight through to the clock."""
        self.clock.charge_message(payload_bytes=payload_bytes)

    def commit_wave(self) -> WaveStats:
        """Advance the clock by the wave's makespan; return its accounting."""
        if self._wave is None:
            raise RuntimeError("commit_wave without begin_wave")
        durations, self._wave = self._wave, None
        wave = WaveStats(
            branches=len(durations),
            sequential_ms=sum(durations),
            makespan_ms=makespan(durations, self.max_concurrency),
        )
        self.clock.advance(wave.makespan_ms)
        self.stats.waves += 1
        self.stats.branches += wave.branches
        self.stats.sequential_ms += wave.sequential_ms
        self.stats.makespan_ms += wave.makespan_ms
        return wave

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelClock(max_concurrency={self.max_concurrency}, "
            f"{self.stats})"
        )


@dataclass
class Stopwatch:
    """Convenience for measuring a span of simulated time.

    Example:
        >>> clock = SimClock()
        >>> watch = Stopwatch(clock)
        >>> clock.charge_page_read(4)
        >>> watch.elapsed_ms
        100.0
    """

    clock: SimClock
    start_ms: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.start_ms = self.clock.now_ms

    @property
    def elapsed_ms(self) -> float:
        return self.clock.elapsed_since(self.start_ms)

    def restart(self) -> None:
        self.start_ms = self.clock.now_ms
