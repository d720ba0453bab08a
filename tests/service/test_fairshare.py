"""Deficit round-robin fairness, cross-query wave packing, and query tasks
that run on the caller's thread."""

import os
import signal
import threading
import time

import pytest

from repro.bench.harness import build_federation
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.mediator import Mediator
from repro.oo7 import TINY
from repro.oo7.workload import build_workload
from repro.service import FederationService, ServiceOptions, TenantPolicy
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SQL = "SELECT sid FROM Suppliers WHERE city = 'city1'"
UNION = (
    "SELECT oid, qty FROM OrdersEast "
    "UNION ALL SELECT oid, qty FROM OrdersWest "
    "UNION ALL SELECT oid, qty FROM OrdersNorth"
)
JOIN = (
    "SELECT * FROM Suppliers, OrdersWest "
    "WHERE OrdersWest.supplier = Suppliers.sid AND Suppliers.city = 'city1'"
)


def build_simple_service(**option_kwargs):
    mediator = Mediator()
    mediator.register(build_sales_wrapper())
    return FederationService(mediator, ServiceOptions(**option_kwargs))


def start_order(service):
    started = [t for t in service.tickets if t.started_ms is not None]
    started.sort(key=lambda t: (t.started_ms, t.ticket_id))
    return [t.tenant for t in started]


def submit_batch(service, tenant, count):
    session = service.open_session(tenant)
    for _ in range(count):
        service.submit(session, SQL)


class TestDeficitRoundRobin:
    def test_equal_quotas_alternate(self):
        service = build_simple_service(max_concurrent_queries=1)
        submit_batch(service, "a", 4)
        submit_batch(service, "b", 4)
        service.run()
        order = start_order(service)
        # The first query starts on submit; after that, equal quotas and
        # equal costs alternate strictly.
        assert order == ["a", "a", "b", "a", "b", "a", "b", "b"]

    def test_quota_three_to_one(self):
        service = build_simple_service(max_concurrent_queries=1)
        service.set_policy("a", TenantPolicy(quota=3.0))
        service.set_policy("b", TenantPolicy(quota=1.0))
        submit_batch(service, "a", 9)
        submit_batch(service, "b", 3)
        service.run()
        order = start_order(service)
        assert all(t.status == "done" for t in service.tickets)
        # Quota 3 earns three starts per quota-1 start; in every prefix
        # the weighted shares stay close (the DRR fairness bound).
        for prefix in range(4, len(order) + 1):
            a_starts = order[:prefix].count("a")
            b_starts = order[:prefix].count("b")
            assert a_starts / 3 - b_starts / 1 <= 2.01
        assert order.count("a") == 9
        assert order[:4].count("a") == 3  # A A B A cycle

    def test_no_starvation_under_extreme_quota(self):
        service = build_simple_service(max_concurrent_queries=1)
        service.set_policy("whale", TenantPolicy(quota=1000.0))
        service.set_policy("minnow", TenantPolicy(quota=1.0))
        submit_batch(service, "whale", 6)
        submit_batch(service, "minnow", 2)
        service.run()
        assert all(t.status == "done" for t in service.tickets)
        minnow = [t for t in service.tickets if t.tenant == "minnow"]
        assert all(t.latency_ms is not None for t in minnow)

    def test_idle_lane_does_not_bank_credit(self):
        service = build_simple_service(max_concurrent_queries=1)
        # Tenant a's lane drains completely, then refills: its deficit
        # must reset in between (no burst from banked credit).
        submit_batch(service, "a", 2)
        service.run()
        scheduler = service.scheduler
        assert all(lane.deficit == 0.0 for lane in scheduler._lanes.values())

    def test_credit_passes_counted(self):
        service = build_simple_service(max_concurrent_queries=1)
        submit_batch(service, "a", 3)
        service.run()
        assert service.scheduler.stats.deficit_credit_passes > 0


class TestWavePacking:
    def build_parallel_service(self, **option_kwargs):
        mediator = build_federation(ExecutorOptions(parallel_submits=True))
        return FederationService(mediator, ServiceOptions(**option_kwargs))

    def test_cross_query_waves_overlap(self):
        service = self.build_parallel_service(max_concurrent_queries=4)
        for tenant in ("a", "b"):
            session = service.open_session(tenant)
            service.submit(session, UNION)
        service.run()
        stats = service.scheduler.stats
        assert stats.max_in_flight == 2
        assert stats.cross_query_waves >= 1
        first, second = service.tickets
        assert first.result.rows == second.result.rows

    def test_concurrent_matches_sequential_rows(self):
        solo = self.build_parallel_service(max_concurrent_queries=1)
        session = solo.open_session("a")
        expected = solo.query(session, UNION).rows

        service = self.build_parallel_service(max_concurrent_queries=4)
        for tenant in ("a", "b", "c"):
            service.submit(service.open_session(tenant), UNION)
        service.run()
        for ticket in service.tickets:
            assert ticket.status == "done"
            assert ticket.result.rows == expected

    def test_single_task_rounds_never_count_cross_query(self):
        service = self.build_parallel_service(max_concurrent_queries=1)
        for tenant in ("a", "b"):
            service.submit(service.open_session(tenant), UNION)
        service.run()
        assert service.scheduler.stats.cross_query_waves == 0
        assert service.scheduler.stats.max_in_flight == 1


class TestCoordinatorThread:
    """Query tasks are staged on the thread that drives the service."""

    TENANTS = ("a", "b", "c", "d")
    ROUNDS = 10

    def run_closed_loop(self):
        """Four closed-loop clients, ten queries each: every client
        submits its next query only once its previous one is answered."""
        service = FederationService(
            build_federation(ExecutorOptions(parallel_submits=True)),
            ServiceOptions(max_concurrent_queries=4),
        )
        sessions = [service.open_session(tenant) for tenant in self.TENANTS]
        for round_index in range(self.ROUNDS):
            for offset, session in enumerate(sessions):
                sql = UNION if (round_index + offset) % 2 else JOIN
                service.submit(session, sql)
            service.run()
        return service

    def transcript(self, service):
        return (
            [
                (t.ticket_id, t.status, t.result.rows, t.events)
                for t in service.tickets
            ],
            service.clock.now_ms,
            service.clock.stats,
        )

    def test_forty_queries_start_no_thread(self, thread_starts):
        cold = self.run_closed_loop()
        assert len(cold.tickets) == 40
        assert all(t.status == "done" for t in cold.tickets)
        assert cold.scheduler.stats.max_in_flight == 4
        assert thread_starts == []
        # The same workload again reproduces the first run exactly.
        warm = self.run_closed_loop()
        assert thread_starts == []
        assert self.transcript(warm) == self.transcript(cold)

    def test_every_walk_runs_on_the_callers_thread(self, monkeypatch):
        walkers = []
        execute = MediatorExecutor.execute

        def recording_execute(executor, plan):
            walkers.append(threading.current_thread())
            return execute(executor, plan)

        monkeypatch.setattr(MediatorExecutor, "execute", recording_execute)
        service = FederationService(
            build_federation(ExecutorOptions(parallel_submits=True)),
            ServiceOptions(max_concurrent_queries=4),
        )
        for index in range(8):
            session = service.open_session(self.TENANTS[index % 4])
            service.submit(session, UNION if index % 2 else JOIN)
        service.run()
        assert all(t.status == "done" for t in service.tickets)
        assert service.scheduler.stats.max_in_flight == 4
        assert walkers == [threading.current_thread()] * 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_answers_a_query(self):
        here = build_simple_service()
        here.query(here.open_session("a"), SQL)
        pid = os.fork()
        if pid == 0:  # the child: a service of its own must answer
            try:
                service = build_simple_service()
                count = service.query(service.open_session("a"), SQL).count
                os._exit(0 if count > 0 else 1)
            except BaseException:
                os._exit(2)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSequentialWalksDoNotOverlap:
    """A sequential-executor query has an empty prefetch wave, so the
    service walks it start to finish in one step: at any concurrency it
    runs exactly as at concurrency 1 (overlap across queries comes from
    prefetch waves, i.e. ``parallel_submits``)."""

    def run_tiny_workload(self, concurrency):
        mediator = Mediator()
        mediator.register(build_oo7_wrapper())
        mediator.register(build_sales_wrapper())
        service = FederationService(
            mediator,
            ServiceOptions(max_concurrent_queries=concurrency, plan_cache=False),
        )
        sessions = [service.open_session(tenant) for tenant in "abcd"]
        queries = build_workload(TINY, 7)
        for index, query in enumerate(queries):
            service.submit(sessions[index % 4], query.sql)
        service.run()
        clock = mediator.executor.clock
        return service, (clock.now_ms, clock.stats.wait_ms, clock.stats.messages)

    def test_concurrency_four_runs_like_concurrency_one(self):
        solo, solo_clock = self.run_tiny_workload(concurrency=1)
        service, clock = self.run_tiny_workload(concurrency=4)
        assert len(service.tickets) == 9
        assert service.scheduler.stats.max_in_flight == 4
        assert service.scheduler.stats.cross_query_waves == 0
        assert clock == solo_clock
        for ticket, solo_ticket in zip(service.tickets, solo.tickets):
            assert ticket.status == solo_ticket.status == "done"
            assert ticket.result.rows == solo_ticket.result.rows
            assert ticket.result.elapsed_ms == pytest.approx(
                solo_ticket.result.elapsed_ms
            )
