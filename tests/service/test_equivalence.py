"""The serving layer's equivalence guarantee.

At concurrency 1 with default (unbounded) tenant quotas, the service is
a pass-through: every dispatch request of the single running task is
forwarded 1:1 to the shared ``SubmitScheduler``, preserving the
one-vs-wave distinction.  So running a workload through
``FederationService.query`` must produce byte-identical answers,
latencies, and *simulated clock totals* to calling ``Mediator.query``
directly — for the sequential executor, the concurrent-wave executor,
and a fully armed (but never-firing) resilience configuration.
"""

import pytest

from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    BreakerPolicy,
    ResilienceOptions,
    RetryPolicy,
)
from repro.oo7 import TINY
from repro.oo7.workload import build_workload
from repro.service import FederationService, ServiceOptions
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SEED = 7

ARMED = ResilienceOptions(
    retry=RetryPolicy(
        max_attempts=5,
        backoff_base_ms=100.0,
        jitter_ratio=0.3,
        deadline_ms=1e9,
    ),
    breaker=BreakerPolicy(failure_threshold=1, cooldown_ms=10.0),
    mode="partial",
)


def build_mediator(resilience=None, inject=False, parallel=False, cache=False):
    mediator = Mediator(
        executor_options=ExecutorOptions(
            resilience=resilience, parallel_submits=parallel, cache_subanswers=cache
        )
    )
    for wrapper in (build_oo7_wrapper(), build_sales_wrapper()):
        if inject:
            wrapper = FaultInjector(wrapper, FaultProfile(error_probability=0.0))
        mediator.register(wrapper)
    return mediator


def transcript_entry(label, result):
    return {
        "label": label,
        "rows": result.rows,
        "elapsed_ms": result.elapsed_ms,
        "time_first_ms": result.time_first_ms,
        "plan": result.plan.describe(),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "parallel_saved_ms": result.parallel_saved_ms,
    }


def clock_totals(mediator):
    clock = mediator.executor.clock
    return {
        "clock_total": clock.now_ms,
        "wait_ms": clock.stats.wait_ms,
        "messages": clock.stats.messages,
        "bytes": clock.stats.bytes_shipped,
    }


def run_direct(mediator):
    transcript = [
        transcript_entry(q.label, mediator.query(q.sql))
        for q in build_workload(TINY, SEED)
    ]
    transcript.append(clock_totals(mediator))
    return transcript


def run_through_service(mediator, plan_cache=False):
    service = FederationService(
        mediator,
        ServiceOptions(max_concurrent_queries=1, plan_cache=plan_cache),
    )
    session = service.open_session("tenant")
    transcript = [
        transcript_entry(q.label, service.query(session, q.sql))
        for q in build_workload(TINY, SEED)
    ]
    transcript.append(clock_totals(mediator))
    return transcript


class TestByteIdenticalAtConcurrencyOne:
    def test_sequential_executor(self):
        assert run_through_service(build_mediator()) == run_direct(
            build_mediator()
        )

    def test_parallel_wave_executor(self):
        assert run_through_service(
            build_mediator(parallel=True)
        ) == run_direct(build_mediator(parallel=True))

    def test_armed_resilience_executor(self):
        assert run_through_service(
            build_mediator(resilience=ARMED, inject=True, parallel=True)
        ) == run_direct(
            build_mediator(resilience=ARMED, inject=True, parallel=True)
        )

    def test_plan_cache_does_not_change_execution(self):
        # The cache skips parse + optimize, never execution: the repeated
        # workload (each TINY query appears once, but labels repeat the
        # mix) still produces an identical transcript.
        assert run_through_service(
            build_mediator(), plan_cache=True
        ) == run_direct(build_mediator())


class TestServiceBookkeepingAtConcurrencyOne:
    def test_tickets_record_execution_window(self):
        mediator = build_mediator()
        service = FederationService(
            mediator, ServiceOptions(max_concurrent_queries=1, plan_cache=False)
        )
        session = service.open_session("tenant")
        result = service.query(
            session, "SELECT * FROM Suppliers WHERE city = 'city0'"
        )
        (ticket,) = service.tickets
        assert ticket.status == "done"
        assert ticket.queue_wait_ms == 0.0
        assert ticket.latency_ms == result.elapsed_ms
        assert ticket.result is result

    def test_history_feeds_like_direct_path(self):
        def with_history():
            mediator = Mediator(record_history=True)
            mediator.register(build_sales_wrapper())
            return mediator

        direct = with_history()
        direct.query("SELECT * FROM Suppliers WHERE city = 'city0'")
        via_service = with_history()
        service = FederationService(
            via_service,
            ServiceOptions(max_concurrent_queries=1, plan_cache=False),
        )
        service.query(
            service.open_session("tenant"),
            "SELECT * FROM Suppliers WHERE city = 'city0'",
        )
        assert len(via_service.history) == len(direct.history)
        assert len(via_service.history) > 0


class TestPerQueryCacheCounters:
    """``cache_hits`` / ``cache_misses`` are the query's own lookups, however
    many other queries share the subanswer cache while it runs."""

    #: Three subqueries, each asked twice: the repeats are cache hits.
    QUERIES = [
        "SELECT * FROM Suppliers WHERE city = 'city0'",
        "SELECT * FROM Suppliers WHERE city = 'city1'",
        "SELECT * FROM AtomicParts, Suppliers WHERE AtomicParts.type = "
        "Suppliers.partType AND Suppliers.city = 'city1'",
    ] * 2

    def through_service(self, concurrency):
        mediator = build_mediator(parallel=True, cache=True)
        service = FederationService(
            mediator,
            ServiceOptions(max_concurrent_queries=concurrency, plan_cache=False),
        )
        session = service.open_session("tenant")
        tickets = [service.submit(session, sql) for sql in self.QUERIES]
        service.run()
        counters = [(t.result.cache_hits, t.result.cache_misses) for t in tickets]
        return counters, mediator.executor.cache.stats

    def test_tickets_partition_the_lifetime_lookups_at_concurrency_eight(self):
        counters, lifetime = self.through_service(concurrency=8)
        assert lifetime.hits > 0 and lifetime.misses > 0
        assert sum(hits for hits, _ in counters) == lifetime.hits
        assert sum(misses for _, misses in counters) == lifetime.misses

    def test_equal_to_direct_queries_at_concurrency_one(self):
        direct = build_mediator(parallel=True, cache=True)
        expected = [
            (result.cache_hits, result.cache_misses)
            for result in map(direct.query, self.QUERIES)
        ]
        counters, lifetime = self.through_service(concurrency=1)
        assert counters == expected
        assert lifetime == direct.executor.cache.stats


class TestPerQueryDispatchEvents:
    """``parallel_saved_ms``, ``resilience`` and ``replication`` are the
    query's own too — folds of the outcomes it received — so the exported
    per-query counters add up to the shared scheduler's lifetime stats
    however many queries interleave, under transient faults, retries and
    a replicated source."""

    QUERIES = [
        sql
        for city in ("city0", "city1", "city2", "city3")
        for sql in (
            f"SELECT * FROM Suppliers WHERE city = '{city}'",
            "SELECT * FROM AtomicParts, Suppliers WHERE AtomicParts.type = "
            f"Suppliers.partType AND Suppliers.city = '{city}'",
            f"SELECT oid, qty FROM Orders WHERE qty > {60 + len(city)}",
        )
    ]

    @staticmethod
    def build():
        mediator = Mediator(
            executor_options=ExecutorOptions(
                parallel_submits=True,
                resilience=ResilienceOptions(
                    retry=RetryPolicy(max_attempts=4, backoff_base_ms=10.0),
                    mode="partial",
                ),
            ),
            observability=True,
        )
        mediator.register(
            FaultInjector(
                build_oo7_wrapper(), FaultProfile(error_probability=0.3, seed=3)
            )
        )
        mediator.register(
            FaultInjector(
                build_sales_wrapper(), FaultProfile(error_probability=0.4, seed=4)
            )
        )
        mediator.register_replica(build_sales_wrapper("sales_b"), of="sales")
        return mediator

    def service(self, concurrency):
        service = FederationService(
            self.build(),
            ServiceOptions(max_concurrent_queries=concurrency, plan_cache=False),
        )
        return service, service.open_session("tenant")

    def test_exported_counters_equal_the_lifetime_stats_at_concurrency_eight(self):
        service, session = self.service(concurrency=8)
        tickets = [service.submit(session, sql) for sql in self.QUERIES]
        service.run()
        assert [t.status for t in tickets] == ["done"] * len(self.QUERIES)
        mediator = service.mediator
        scheduler = mediator.executor.scheduler
        resilience, replication = scheduler.resilience_stats, scheduler.replica_stats
        metrics = mediator.telemetry.metrics
        for name, lifetime in (
            ("repro_submit_retries_total", resilience.total("retries")),
            ("repro_submit_errors_total", resilience.total("attempt_errors")),
            ("repro_replica_selected_total", replication.total("selected")),
            ("repro_backoff_ms_total", resilience.backoff_ms),
            ("repro_parallel_saved_ms_total", scheduler.parallel.stats.saved_ms),
        ):
            assert lifetime > 0, name
            assert metrics[name].total() == pytest.approx(lifetime, rel=1e-9), name

    def test_registry_equals_direct_queries_at_concurrency_one(self):
        direct = self.build()
        service, session = self.service(concurrency=1)
        for sql in self.QUERIES:
            direct.query(sql)
            service.query(session, sql)
        expected = direct.telemetry.metrics.snapshot()
        served = service.mediator.telemetry.metrics.snapshot()
        assert {name: served[name] for name in expected} == expected
