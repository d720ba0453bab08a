"""Tests for retry/timeout/backoff dispatch and circuit breakers."""

import random

import pytest

from repro.algebra.builders import scan
from repro.errors import SubmitFailedError, TransientSourceError
from repro.mediator.backend import MEDIATOR_PROFILE
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    ResilienceOptions,
    ResilienceStats,
    RetryPolicy,
)
from repro.wrappers.base import Wrapper
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_sales_wrapper


class FlakyWrapper(Wrapper):
    """Fails the first ``failures`` executions transiently, then delegates."""

    def __init__(self, inner, failures=1, latency_ms=40.0):
        super().__init__(inner.name, inner.capabilities)
        self.inner = inner
        self.remaining_failures = failures
        self.latency_ms = latency_ms

    def export_cost_info(self):
        return self.inner.export_cost_info()

    def execute(self, plan):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise TransientSourceError(
                "flaky source", elapsed_ms=self.latency_ms
            )
        return self.inner.execute(plan)


def build_mediator(wrapper, resilience, cache=False):
    options = ExecutorOptions(resilience=resilience, cache_subanswers=cache)
    mediator = Mediator(executor_options=options)
    mediator.register(wrapper)
    return mediator


def suppliers_plan():
    return scan("Suppliers").submit_to("sales").build()


NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base_ms=0.0)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_multiplier=2.0, backoff_max_ms=350.0
        )
        rng = random.Random(0)
        assert policy.backoff_ms(1, rng) == 100.0
        assert policy.backoff_ms(2, rng) == 200.0
        assert policy.backoff_ms(3, rng) == 350.0  # capped, not 400

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter_ratio=0.5)
        delays = [policy.backoff_ms(1, random.Random(7)) for _ in range(5)]
        assert delays == [delays[0]] * 5  # same seed, same delay
        for _ in range(50):
            delay = policy.backoff_ms(1, random.Random())
            assert 50.0 <= delay <= 150.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_ratio=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_ms=0.0)
        with pytest.raises(ValueError):
            ResilienceOptions(mode="lenient")


class TestCircuitBreakerStateMachine:
    """Satellite (d): trip, cooldown, half-open probe, on simulated time."""

    def build(self, threshold=2, cooldown=1_000.0):
        return CircuitBreaker(
            BreakerPolicy(failure_threshold=threshold, cooldown_ms=cooldown)
        )

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = self.build(threshold=3)
        assert not breaker.record_failure(now_ms=10.0)
        assert not breaker.record_failure(now_ms=20.0)
        assert breaker.state == CLOSED
        assert breaker.record_failure(now_ms=30.0)  # third one trips
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self.build(threshold=2)
        breaker.record_failure(now_ms=1.0)
        breaker.record_success()
        breaker.record_failure(now_ms=2.0)
        assert breaker.state == CLOSED  # streak restarted, no trip

    def test_open_blocks_until_cooldown_elapses(self):
        breaker = self.build(threshold=1, cooldown=1_000.0)
        breaker.record_failure(now_ms=100.0)
        assert breaker.state == OPEN
        assert not breaker.allow(now_ms=100.0)
        assert not breaker.allow(now_ms=1_099.0)
        assert breaker.allow(now_ms=1_100.0)  # cooldown over: probe allowed
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        breaker = self.build(threshold=1, cooldown=100.0)
        breaker.record_failure(now_ms=0.0)
        assert breaker.allow(now_ms=200.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow(now_ms=200.0)

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = self.build(threshold=3, cooldown=100.0)
        for now in (0.0, 1.0, 2.0):
            breaker.record_failure(now_ms=now)
        assert breaker.allow(now_ms=150.0)  # half-open probe
        assert breaker.record_failure(now_ms=150.0)  # one failure re-opens
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow(now_ms=200.0)  # new cooldown from 150
        assert breaker.allow(now_ms=250.0)


class TestRetryDispatch:
    def test_retry_after_transient_failure_succeeds(self):
        mediator = build_mediator(
            FlakyWrapper(build_sales_wrapper(), failures=1),
            ResilienceOptions(retry=RetryPolicy(max_attempts=3)),
        )
        result = mediator.executor.execute(suppliers_plan())
        assert result.count == 50
        assert result.resilience.retries == {"sales": 1}
        assert result.resilience.attempt_errors == {"sales": 1}
        assert result.resilience.failed_submits == {}

    def test_retry_message_accounting_not_double_charged(self):
        """Satellite (b): each attempt ships one request message; the
        response message is charged once, for the successful attempt."""
        latency = 40.0
        backoff = 100.0
        mediator = build_mediator(
            FlakyWrapper(build_sales_wrapper(), failures=1, latency_ms=latency),
            ResilienceOptions(
                retry=RetryPolicy(max_attempts=3, backoff_base_ms=backoff)
            ),
        )
        clock = mediator.executor.clock
        messages_before = clock.stats.messages
        result = mediator.executor.execute(suppliers_plan())
        # 2 requests (one per attempt) + 1 response = 3, not 4.
        assert clock.stats.messages - messages_before == 3
        assert clock.stats.wait_ms == backoff  # the backoff sleep, only
        wrapper_ms = result.submit_log[0][1].total_time_ms
        payload_ms = clock.stats.bytes_shipped * MEDIATOR_PROFILE.net_ms_per_byte
        expected = (
            3 * MEDIATOR_PROFILE.net_ms_per_message
            + payload_ms
            + latency  # the failed attempt's wait is charged once
            + backoff
            + wrapper_ms
        )
        assert result.total_time_ms == pytest.approx(expected)

    def test_failed_attempts_never_enter_submit_log(self):
        mediator = build_mediator(
            FlakyWrapper(build_sales_wrapper(), failures=1),
            ResilienceOptions(retry=NO_BACKOFF),
        )
        result = mediator.executor.execute(suppliers_plan())
        assert len(result.submit_log) == 1  # only the successful execution
        assert result.submit_log[0][1].count == 50

    def test_exhausted_retries_raise_in_strict_mode(self):
        mediator = build_mediator(
            FlakyWrapper(build_sales_wrapper(), failures=10),
            ResilienceOptions(retry=NO_BACKOFF, breaker=None),
        )
        with pytest.raises(SubmitFailedError) as exc:
            mediator.executor.execute(suppliers_plan())
        assert exc.value.failure.wrapper == "sales"
        assert exc.value.failure.reason == "transient"
        assert exc.value.failure.attempts == 3

    def test_empty_wrapper_answer_keeps_count_and_device_stats(self):
        """Satellite (b): a zero-row subanswer is a *successful* submit —
        count 0, device stats present, no failure recorded."""
        mediator = build_mediator(
            build_sales_wrapper(),
            ResilienceOptions(retry=NO_BACKOFF),
        )
        plan = (
            scan("Suppliers").where_eq("sid", 9_999).submit_to("sales").build()
        )
        result = mediator.executor.execute(plan)
        assert result.count == 0
        assert result.partial is None
        assert result.resilience == ResilienceStats()
        logged = result.submit_log[0][1]
        assert logged.count == 0
        assert logged.device_stats is not None
        assert set(logged.device_stats) == {"page_reads", "objects_processed"}
        # Discovering emptiness costs the full execution (TimeFirst rule).
        assert logged.time_first_ms == logged.total_time_ms


class TestDeadline:
    def test_deadline_cancels_wrapper_wait_mid_flight(self):
        raw = build_sales_wrapper().execute(scan("Suppliers").build())
        deadline = raw.total_time_ms / 2
        mediator = build_mediator(
            build_sales_wrapper(),
            ResilienceOptions(
                retry=RetryPolicy(max_attempts=3, deadline_ms=deadline),
                breaker=None,
            ),
        )
        scheduler = mediator.executor.scheduler
        clock = mediator.executor.clock
        before = clock.now_ms
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.failed
        assert outcome.failure.reason == "timeout"
        assert outcome.attempts == 1  # the budget is gone: no retry fits
        # Only the request message plus the remaining budget is charged.
        assert clock.now_ms - before == pytest.approx(
            MEDIATOR_PROFILE.net_ms_per_message + deadline
        )
        assert scheduler.resilience_stats.cancelled_wait_ms == pytest.approx(
            raw.total_time_ms - deadline
        )
        assert scheduler.resilience_stats.timeouts == {"sales": 1}

    def test_timed_out_submit_is_never_cached(self):
        """Satellite (a): a cancelled wait's rows are an unusable prefix."""
        raw = build_sales_wrapper().execute(scan("Suppliers").build())
        mediator = build_mediator(
            build_sales_wrapper(),
            ResilienceOptions(
                retry=RetryPolicy(
                    max_attempts=1, deadline_ms=raw.total_time_ms / 2
                ),
                breaker=None,
            ),
            cache=True,
        )
        outcome = mediator.executor.scheduler.dispatch_one(suppliers_plan())
        assert outcome.failed
        assert len(mediator.executor.cache) == 0

    def test_backoff_is_capped_by_remaining_deadline(self):
        latency = 40.0
        deadline = 100.0
        mediator = build_mediator(
            FlakyWrapper(
                build_sales_wrapper(), failures=10, latency_ms=latency
            ),
            ResilienceOptions(
                retry=RetryPolicy(
                    max_attempts=2,
                    backoff_base_ms=10_000.0,
                    deadline_ms=deadline,
                ),
                breaker=None,
            ),
        )
        scheduler = mediator.executor.scheduler
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.failed
        # The first backoff was clipped to deadline - latency, so the
        # total waited time never exceeds the budget.
        assert scheduler.resilience_stats.backoff_ms == pytest.approx(
            deadline - latency
        )


class TestBreakerDispatch:
    def breaker_options(self, threshold=2, cooldown=1_000.0, attempts=1):
        return ResilienceOptions(
            retry=RetryPolicy(max_attempts=attempts, backoff_base_ms=0.0),
            breaker=BreakerPolicy(
                failure_threshold=threshold, cooldown_ms=cooldown
            ),
        )

    def dead_sales_wrapper(self):
        return FaultInjector(
            build_sales_wrapper(), FaultProfile(unavailable=True)
        )

    def test_open_breaker_fast_fails_without_attempts(self):
        mediator = build_mediator(
            self.dead_sales_wrapper(), self.breaker_options(threshold=2)
        )
        scheduler = mediator.executor.scheduler
        for _ in range(2):  # trip it
            assert scheduler.dispatch_one(suppliers_plan()).failed
        clock_before = mediator.executor.clock.now_ms
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.failed
        assert outcome.failure.reason == "circuit_open"
        assert outcome.attempts == 0
        assert mediator.executor.clock.now_ms == clock_before  # zero charge
        assert scheduler.resilience_stats.breaker_fast_fails == {"sales": 1}
        assert scheduler.resilience_stats.breaker_trips == {"sales": 1}
        assert scheduler.open_breaker_wrappers() == ["sales"]

    def test_tripped_breaker_stops_the_retry_loop(self):
        """A dead source must not burn the remaining retry budget."""
        mediator = build_mediator(
            self.dead_sales_wrapper(),
            self.breaker_options(threshold=2, attempts=5),
        )
        outcome = mediator.executor.scheduler.dispatch_one(suppliers_plan())
        assert outcome.failed
        assert outcome.attempts == 2  # trip at 2, not 5

    def test_half_open_probe_recovers_through_scheduler(self):
        injector = self.dead_sales_wrapper()
        mediator = build_mediator(
            injector, self.breaker_options(threshold=1, cooldown=500.0)
        )
        scheduler = mediator.executor.scheduler
        assert scheduler.dispatch_one(suppliers_plan()).failed  # trips
        assert scheduler.dispatch_one(suppliers_plan()).failure.reason == (
            "circuit_open"
        )
        injector.set_profile(FaultProfile())  # the source comes back
        mediator.executor.clock.advance(500.0)  # cooldown on the sim clock
        outcome = scheduler.dispatch_one(suppliers_plan())  # half-open probe
        assert not outcome.failed
        assert outcome.result.count == 50
        assert scheduler.breakers["sales"].state == CLOSED
        assert scheduler.open_breaker_wrappers() == []

    def test_cache_hit_bypasses_open_breaker(self):
        """Satellite (a): memoized rows answer even while the source is
        down — the hit is served before the breaker is consulted."""
        injector = FaultInjector(build_sales_wrapper())
        mediator = build_mediator(
            injector, self.breaker_options(threshold=1), cache=True
        )
        scheduler = mediator.executor.scheduler
        healthy = scheduler.dispatch_one(suppliers_plan())
        assert not healthy.failed  # populated the cache
        injector.set_profile(FaultProfile(unavailable=True))
        other_plan = (
            scan("Suppliers").where_eq("sid", 1).submit_to("sales").build()
        )
        assert scheduler.dispatch_one(other_plan).failed  # trips the breaker
        assert scheduler.breakers["sales"].state == OPEN
        fast_fails_before = dict(scheduler.resilience_stats.breaker_fast_fails)
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.cached and not outcome.failed
        assert outcome.result.rows == healthy.result.rows
        # The breaker saw nothing: no fast-fail was recorded.
        assert scheduler.resilience_stats.breaker_fast_fails == fast_fails_before


class TestHalfOpenProbeGating:
    """Satellite: only one half-open probe may be in flight; a failed
    probe re-opens with a fresh cooldown."""

    def build(self, cooldown=100.0):
        return CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_ms=cooldown)
        )

    def test_second_caller_is_blocked_while_probe_is_out(self):
        breaker = self.build()
        breaker.record_failure(now_ms=0.0)
        assert breaker.allow(now_ms=150.0)  # the probe
        assert breaker.state == HALF_OPEN
        # Siblings arriving while the probe is in flight fast-fail, even
        # arbitrarily later — HALF_OPEN admits exactly one request.
        assert not breaker.allow(now_ms=150.0)
        assert not breaker.allow(now_ms=9_999.0)

    def test_probe_success_reopens_the_gate(self):
        breaker = self.build()
        breaker.record_failure(now_ms=0.0)
        assert breaker.allow(now_ms=150.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow(now_ms=150.0)
        assert breaker.allow(now_ms=150.0)  # no single-probe gate when closed

    def test_failed_probe_restarts_cooldown_and_clears_the_gate(self):
        breaker = self.build(cooldown=100.0)
        breaker.record_failure(now_ms=0.0)
        assert breaker.allow(now_ms=150.0)
        assert breaker.record_failure(now_ms=150.0)  # probe failed: re-trip
        assert breaker.state == OPEN
        assert not breaker.allow(now_ms=200.0)  # fresh cooldown from 150
        assert breaker.allow(now_ms=250.0)  # ...and the next probe may fly

    def test_parallel_wave_sends_exactly_one_probe(self):
        injector = FaultInjector(
            build_sales_wrapper(), FaultProfile(unavailable=True)
        )
        mediator = Mediator(
            executor_options=ExecutorOptions(
                resilience=ResilienceOptions(
                    retry=RetryPolicy(max_attempts=1, backoff_base_ms=0.0),
                    breaker=BreakerPolicy(
                        failure_threshold=1, cooldown_ms=500.0
                    ),
                    mode="partial",
                ),
                parallel_submits=True,
            )
        )
        mediator.register(injector)
        scheduler = mediator.executor.scheduler
        assert scheduler.dispatch_one(suppliers_plan()).failed  # trips
        mediator.executor.clock.advance(500.0)
        executions_before = injector.log.executions
        fast_fails_before = scheduler.resilience_stats.breaker_fast_fails.get(
            "sales", 0
        )
        outcomes = scheduler.dispatch_wave([suppliers_plan() for _ in range(3)])
        assert all(outcome.failed for outcome in outcomes)
        # The still-dead source saw exactly one probe; its wave siblings
        # fast-failed on the in-flight gate.
        assert injector.log.executions == executions_before + 1
        assert scheduler.resilience_stats.breaker_fast_fails["sales"] == (
            fast_fails_before + 2
        )
        # The failed probe re-opened with a fresh cooldown.
        probe_failed_at = mediator.executor.clock.now_ms
        assert scheduler.breakers["sales"].state == OPEN
        assert not scheduler.breakers["sales"].allow(probe_failed_at + 499.0)
        assert scheduler.breakers["sales"].allow(probe_failed_at + 500.0)


class TestBackoffDesynchronization:
    """Satellite: jitter is seeded per (wrapper, dispatch, attempt), so
    concurrent retries against one wrapper draw distinct backoffs."""

    JITTERED = ResilienceOptions(
        retry=RetryPolicy(
            max_attempts=2, backoff_base_ms=100.0, jitter_ratio=0.5
        )
    )

    def test_rng_is_deterministic_per_draw_and_distinct_across_draws(self):
        mediator = build_mediator(build_sales_wrapper(), self.JITTERED)
        scheduler = mediator.executor.scheduler
        draws = {
            (wrapper, seq, attempt): scheduler._jitter_rng(
                wrapper, seq, attempt
            ).random()
            for wrapper in ("sales", "oo7")
            for seq in (1, 2)
            for attempt in (1, 2)
        }
        # Same coordinates, same draw — replayable.
        for (wrapper, seq, attempt), value in draws.items():
            assert (
                scheduler._jitter_rng(wrapper, seq, attempt).random() == value
            )
        # Distinct coordinates, distinct draws — no thundering herd.
        assert len(set(draws.values())) == len(draws)

    def test_consecutive_dispatches_draw_distinct_backoffs(self):
        flaky = FlakyWrapper(build_sales_wrapper(), failures=0)
        mediator = build_mediator(flaky, self.JITTERED)
        scheduler = mediator.executor.scheduler
        stats = scheduler.resilience_stats
        backoffs = []
        for _ in range(4):
            flaky.remaining_failures = 1  # each dispatch retries once
            before = stats.backoff_ms
            assert not scheduler.dispatch_one(suppliers_plan()).failed
            backoffs.append(stats.backoff_ms - before)
        assert all(50.0 <= backoff <= 150.0 for backoff in backoffs)
        assert len(set(backoffs)) == len(backoffs)


class TestResilienceStats:
    def test_add_folds_per_wrapper_counts_and_ms(self):
        stats = ResilienceStats(retries={"a": 1}, backoff_ms=100.0)
        stats.add(ResilienceStats(retries={"a": 1}, timeouts={"b": 1}, backoff_ms=150.0))
        assert stats == ResilienceStats(
            retries={"a": 2}, timeouts={"b": 1}, backoff_ms=250.0
        )

    def test_totals(self):
        stats = ResilienceStats(retries={"a": 2, "b": 1})
        assert stats.total("retries") == 3
        assert stats.total("timeouts") == 0
