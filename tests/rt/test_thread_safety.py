"""Concurrency stress tests for the shared mutable state the real-time
backend hammers from pool threads.

The simulated backend executes branches in order on one thread, so the
breaker, the drift tracker and the subanswer cache never saw concurrent
callers before the `repro.rt` backend existed.  Each test here drives
one of them from a thread pool and asserts *exact* counters — a lost
update under a data race shows up as an off-by-N, not a flake.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.algebra.logical import Scan, Submit
from repro.errors import TransientSourceError
from repro.mediator.cache import SubanswerCache
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResilienceOptions,
    RetryPolicy,
)
from repro.mediator.scheduler import SubmitScheduler
from repro.rt import RealTimeBackend
from repro.obs.accuracy import DriftTracker
from repro.wrappers.base import ExecutionResult

THREADS = 8
ROUNDS = 200


def _hammer(worker, threads: int = THREADS) -> None:
    """Run ``worker(index)`` on every thread, all released at once,
    switching threads far more often than the interpreter's default so
    an unguarded read-modify-write loses updates reliably."""
    barrier = threading.Barrier(threads)

    def _run(index: int) -> None:
        barrier.wait(timeout=30)
        worker(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(_run, i) for i in range(threads)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)


class TestCircuitBreakerConcurrency:
    def test_concurrent_failures_count_exactly(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=10**9))
        _hammer(lambda i: [breaker.record_failure(0.0) for _ in range(ROUNDS)])
        assert breaker.consecutive_failures == THREADS * ROUNDS

    def test_exactly_one_trip_at_threshold(self):
        # Every failure past the threshold re-checks `state == CLOSED`
        # under the lock, so exactly one concurrent failure may trip it.
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        _hammer(lambda i: breaker.record_failure(0.0))
        assert breaker.trips == 1

    def test_half_open_admits_exactly_one_probe(self):
        # The single-probe guarantee of the half-open state is the
        # check-and-set the lock exists for: N threads race `allow`
        # after the cooldown and exactly one may flow.
        policy = BreakerPolicy(failure_threshold=1, cooldown_ms=5.0)
        for _ in range(50):
            breaker = CircuitBreaker(policy)
            breaker.record_failure(0.0)
            assert breaker.state == "open"
            admitted = []
            admitted_lock = threading.Lock()

            def _try(index: int) -> None:
                if breaker.allow(10.0):
                    with admitted_lock:
                        admitted.append(index)

            _hammer(_try)
            assert len(admitted) == 1
            breaker.record_success()


    def test_blocked_is_a_locked_read_that_claims_no_probe(self):
        policy = BreakerPolicy(failure_threshold=1, cooldown_ms=5.0)
        breaker = CircuitBreaker(policy)
        breaker.record_failure(0.0)
        blocked = []
        _hammer(lambda i: blocked.append((breaker.blocked(1.0), breaker.blocked(10.0))))
        # Inside the cooldown: blocked; past it: a probe may flow — and
        # asking, however often, did not take the single probe slot.
        assert blocked == [(True, False)] * THREADS
        assert breaker.state == "open"
        assert breaker.allow(10.0)
        assert breaker.blocked(10.0)  # the probe is out now


class TestDispatchStatsConcurrency:
    def test_wave_branches_draw_distinct_dispatch_numbers(self):
        """Branches of a real wave retry against one wrapper: the
        counters are exact, each is the fold of the outcomes' own
        events, and every submit drew its own jitter number."""

        class _FailsOddCalls:
            name = "w"

            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def execute(self, plan):
                with self.lock:
                    self.calls += 1
                    odd = self.calls % 2 == 1
                if odd:
                    raise TransientSourceError("flaky", elapsed_ms=0.0)
                return ExecutionResult(rows=[], total_time_ms=0.0)

        catalog = MediatorCatalog()
        catalog.add_wrapper(_FailsOddCalls())
        options = ResilienceOptions(
            retry=RetryPolicy(max_attempts=64, backoff_base_ms=0.0), breaker=None
        )
        branches = THREADS * 8
        with RealTimeBackend(max_workers=THREADS) as backend:
            scheduler = SubmitScheduler(catalog, resilience=options, backend=backend)
            outcomes = scheduler.dispatch_wave(
                [Submit(Scan("T"), "w") for _ in range(branches)]
            )
        assert not any(outcome.failed for outcome in outcomes)
        stats = scheduler.resilience_stats
        retries = sum(outcome.attempts - 1 for outcome in outcomes)
        assert stats.retries == {"w": retries}
        assert stats.attempt_errors == {"w": retries}
        assert retries == branches  # one failed odd call per even success
        own = [o.resilience for o in outcomes if o.resilience is not None]
        assert sum(r.retries["w"] for r in own) == stats.retries["w"]
        assert sum(r.attempt_errors["w"] for r in own) == stats.attempt_errors["w"]
        assert next(scheduler._dispatch_seq) == branches + 1  # none lost


class TestDriftTrackerConcurrency:
    def test_concurrent_observations_count_exactly(self):
        tracker = DriftTracker()
        child = Scan("AtomicParts")
        submit = Submit(child, "oo7")

        class _Node:
            values = {"TotalTime": 10.0, "CountObject": 5.0}
            provenance = {
                "TotalTime": "wrapper[oo7]: scan(AtomicParts)",
                "CountObject": "wrapper[oo7]: scan(AtomicParts)",
            }

        class _Estimate:
            nodes = {child.node_id: _Node()}

        result = ExecutionResult(
            rows=[{"Id": i} for i in range(5)], total_time_ms=12.0
        )
        _hammer(
            lambda i: [
                tracker.observe_submit(_Estimate(), submit, result)
                for _ in range(ROUNDS)
            ]
        )
        # Two variables per submit, all folded into the same aggregates.
        assert tracker.observations == THREADS * ROUNDS * 2
        assert len(tracker) == 2
        for aggregate in tracker.aggregates():
            assert aggregate.count == THREADS * ROUNDS

    def test_concurrent_unmatched_submits_count_exactly(self):
        tracker = DriftTracker()
        submit = Submit(Scan("AtomicParts"), "oo7")

        class _Empty:
            nodes: dict = {}

        result = ExecutionResult(rows=[], total_time_ms=1.0)
        _hammer(
            lambda i: [
                tracker.observe_submit(_Empty(), submit, result)
                for _ in range(ROUNDS)
            ]
        )
        assert tracker.unmatched_submits == THREADS * ROUNDS


class TestSubanswerCacheConcurrency:
    def test_concurrent_hits_and_misses_count_exactly(self):
        cache = SubanswerCache()
        hot = Scan("Hot")
        cache.store("w", hot, [{"Id": 1}])
        cold = Scan("Cold")
        _hammer(
            lambda i: [
                (cache.lookup("w", hot), cache.lookup("w", cold))
                for _ in range(ROUNDS)
            ]
        )
        assert cache.stats.hits == THREADS * ROUNDS
        assert cache.stats.misses == THREADS * ROUNDS
        assert cache.stats_by_wrapper["w"].hits == THREADS * ROUNDS

    def test_concurrent_stores_never_exceed_capacity(self):
        cache = SubanswerCache(max_entries=16)
        scans = [Scan(f"T{i}") for i in range(THREADS * 8)]

        def _store(index: int) -> None:
            for scan in scans[index::THREADS]:
                cache.store("w", scan, [{"Id": index}])

        _hammer(_store)
        assert len(cache) <= 16
