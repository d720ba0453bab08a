"""The armed attempt loop on the wall clock.

Retries, deadlines, breakers and failover are backend-independent policy;
these drills run them on :class:`RealTimeBackend` — stub wrappers,
millisecond-scale policies — where backoffs genuinely sleep, deadlines
genuinely abandon, and wave branches race on pool threads.  Hedging is
the one policy the real backend does not get.
"""

from __future__ import annotations

import threading
import time

from repro.algebra.logical import Scan, Submit
from repro.errors import SourceUnavailableError, TransientSourceError
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.resilience import (
    PARTIAL,
    ResilienceOptions,
    RetryPolicy,
)
from repro.mediator.scheduler import SubmitScheduler
from repro.rt import RealTimeBackend
from repro.wrappers.base import ExecutionResult


class _Stub:
    """A named duck-typed wrapper; ``behavior(call_index)`` answers."""

    def __init__(self, name, behavior):
        self.name = name
        self.behavior = behavior
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, plan):
        with self._lock:
            self.calls += 1
            call = self.calls
        return self.behavior(call)


def _rows(n=3):
    return ExecutionResult(rows=[{"Id": i} for i in range(n)], total_time_ms=1.0)


def _catalog(*wrappers, replica_of=None):
    catalog = MediatorCatalog()
    for wrapper in wrappers:
        catalog.add_wrapper(wrapper)
    if replica_of is not None:
        primary, replica = replica_of
        catalog.add_replica(primary, replica)
    return catalog


def _submit(wrapper="w"):
    return Submit(Scan("T"), wrapper)


class TestRetriesOnTheWall:
    def test_a_wave_retries_each_flaky_branch_and_really_backs_off(self):
        barrier = threading.Barrier(2)

        def fail_each_first_attempt(call):
            if call <= 2:
                # Both branches' first attempts are in flight together,
                # so each branch fails exactly once.
                barrier.wait(timeout=5)
                raise TransientSourceError("flaky", elapsed_ms=0.0)
            return _rows()

        flaky = _Stub("w", fail_each_first_attempt)
        options = ResilienceOptions(
            retry=RetryPolicy(max_attempts=3, backoff_base_ms=20.0), breaker=None
        )
        with RealTimeBackend(max_workers=2) as backend:
            scheduler = SubmitScheduler(
                _catalog(flaky), resilience=options, backend=backend
            )
            start = time.perf_counter()
            outcomes = scheduler.dispatch_wave([_submit(), _submit()])
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert [o.attempts for o in outcomes] == [2, 2]
        assert not any(o.failed for o in outcomes)
        assert all(o.result.fault_tainted for o in outcomes)
        stats = scheduler.resilience_stats
        assert stats.retries == {"w": 2}
        assert stats.attempt_errors == {"w": 2}
        assert stats.backoff_ms == 40.0
        assert elapsed_ms >= 18.0  # the backoffs overlapped, and were slept
        assert backend.clock.stats.wait_ms == 40.0
        assert scheduler.last_wave.branches == 2

    def test_a_deadline_abandons_a_sleeping_wrapper(self):
        slow = _Stub("w", lambda call: (time.sleep(0.3), _rows())[1])
        options = ResilienceOptions(
            retry=RetryPolicy(max_attempts=2, deadline_ms=25.0),
            breaker=None,
            mode=PARTIAL,
        )
        with RealTimeBackend() as backend:
            executor = MediatorExecutor(
                _catalog(slow),
                options=ExecutorOptions(resilience=options, backend=backend),
            )
            start = time.perf_counter()
            execution = executor.execute(_submit())
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert elapsed_ms < 250.0  # did not wait the wrapper out
        assert execution.rows == []
        assert execution.degraded
        (failure,) = execution.partial.failures
        assert failure.reason == "timeout"
        assert failure.attempts == 1
        assert execution.resilience.timeouts == {"w": 1}

    def test_a_dead_primary_is_rescued_by_its_replica(self):
        def down(call):
            raise SourceUnavailableError("down", elapsed_ms=0.0)

        primary = _Stub("w", down)
        replica = _Stub("w2", lambda call: _rows(4))
        options = ResilienceOptions(
            retry=RetryPolicy(max_attempts=2, backoff_base_ms=1.0), breaker=None
        )
        with RealTimeBackend() as backend:
            scheduler = SubmitScheduler(
                _catalog(primary, replica, replica_of=("w", "w2")),
                resilience=options,
                backend=backend,
            )
            outcome = scheduler.dispatch_one(_submit())
        assert not outcome.failed
        assert outcome.submit.wrapper == "w2"
        assert len(outcome.result.rows) == 4
        assert outcome.attempts == 3  # two on the primary, one on the replica
        assert outcome.result.fault_tainted
        assert scheduler.replica_stats.failovers == {"w2": 1}
        assert scheduler.replica_stats.selected == {"w2": 1}
        assert scheduler.resilience_stats.failed_submits == {"w": 1}


class TestHedgingStaysSimulationOnly:
    def test_a_hair_trigger_hedge_never_fires_on_the_wall(self):
        primary = _Stub("w", lambda call: (time.sleep(0.005), _rows())[1])
        backup = _Stub("w2", lambda call: _rows())
        options = ResilienceOptions(hedge_delay_ms=0.001)
        catalog = _catalog(primary, backup, replica_of=("w", "w2"))
        with RealTimeBackend() as backend:
            scheduler = SubmitScheduler(catalog, resilience=options, backend=backend)
            outcome = scheduler.dispatch_one(_submit())
        assert outcome.submit.wrapper == "w"
        assert backup.calls == 0
        assert scheduler.replica_stats.hedges_launched == {}
        assert scheduler.replica_stats.selected == {"w": 1}

    def test_the_same_setup_hedges_on_the_simulated_backend(self):
        primary = _Stub(
            "w", lambda call: ExecutionResult(rows=[{"Id": 0}], total_time_ms=50.0)
        )
        backup = _Stub("w2", lambda call: _rows())
        options = ResilienceOptions(hedge_delay_ms=0.001)
        catalog = _catalog(primary, backup, replica_of=("w", "w2"))
        scheduler = SubmitScheduler(catalog, resilience=options)
        outcome = scheduler.dispatch_one(_submit())
        assert backup.calls == 1
        assert outcome.submit.wrapper == "w2"
        assert scheduler.replica_stats.hedges_won == {"w2": 1}
