"""Cost-based admission control: decisions, budgets, and backpressure."""

import pytest

from repro.errors import (
    AdmissionError,
    AdmissionRejectedError,
    QueueOverflowError,
    ServiceDegradedError,
)
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import BreakerPolicy, ResilienceOptions, RetryPolicy
from repro.service import (
    AdmissionController,
    FederationService,
    ServiceOptions,
    TenantPolicy,
)
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_sales_wrapper

SQL = "SELECT sid FROM Suppliers WHERE city = 'city1'"


class TestTenantPolicy:
    def test_quota_must_be_positive(self):
        with pytest.raises(ValueError):
            TenantPolicy(quota=0.0)

    def test_defaults_unbounded(self):
        policy = TenantPolicy()
        assert policy.max_concurrent is None
        assert policy.max_outstanding_ms is None
        assert policy.max_queue_depth is None


class TestDecisions:
    def test_admit_with_headroom(self):
        controller = AdmissionController(max_concurrent_queries=2)
        decision = controller.decide("t", TenantPolicy(), 100.0)
        assert decision.admitted

    def test_queue_when_global_slots_full(self):
        controller = AdmissionController(max_concurrent_queries=1)
        controller.on_start("t", 100.0)
        decision = controller.decide("t", TenantPolicy(), 100.0)
        assert decision.queued

    def test_queue_when_tenant_slots_full(self):
        controller = AdmissionController()
        policy = TenantPolicy(max_concurrent=1)
        controller.on_start("t", 100.0)
        assert controller.decide("t", policy, 100.0).queued
        # A different tenant is unaffected.
        assert controller.decide("u", TenantPolicy(), 100.0).admitted

    def test_queue_when_outstanding_budget_consumed(self):
        controller = AdmissionController(max_outstanding_ms=1000.0)
        controller.on_start("t", 800.0)
        assert controller.decide("t", TenantPolicy(), 300.0).queued
        assert controller.decide("t", TenantPolicy(), 200.0).admitted

    def test_reject_infeasible_estimate(self):
        controller = AdmissionController()
        policy = TenantPolicy(max_outstanding_ms=500.0)
        decision = controller.decide("t", policy, 900.0)
        assert decision.rejected
        assert decision.reason.startswith("estimate_exceeds_budget")

    def test_reject_queue_overflow(self):
        controller = AdmissionController(max_concurrent_queries=1)
        policy = TenantPolicy(max_queue_depth=1)
        controller.on_start("t", 100.0)
        controller.on_queue("t")
        decision = controller.decide("t", policy, 100.0)
        assert decision.rejected
        assert decision.reason.startswith("queue_full")

    def test_finish_releases_budget(self):
        controller = AdmissionController(max_concurrent_queries=1)
        controller.on_start("t", 100.0)
        controller.on_finish("t", 100.0)
        assert controller.decide("t", TenantPolicy(), 100.0).admitted
        assert controller.global_usage.running == 0
        assert controller.global_usage.outstanding_ms == 0.0


def build_service(options=None, resilience=None, fault_profile=None):
    executor_options = (
        ExecutorOptions(resilience=resilience) if resilience is not None else None
    )
    mediator = Mediator(executor_options=executor_options)
    wrapper = build_sales_wrapper()
    if fault_profile is not None:
        wrapper = FaultInjector(wrapper, fault_profile)
    mediator.register(wrapper)
    return FederationService(mediator, options)


class TestServiceBackpressure:
    def test_rejected_submit_raises_and_records_ticket(self):
        service = build_service()
        service.set_policy("t", TenantPolicy(max_outstanding_ms=1.0))
        session = service.open_session("t")
        with pytest.raises(AdmissionRejectedError) as excinfo:
            service.submit(session, SQL)
        assert excinfo.value.tenant == "t"
        (ticket,) = service.tickets
        assert ticket.status == "rejected"
        assert ticket.rejection_reason.startswith("estimate_exceeds_budget")

    def test_queue_overflow_error_type(self):
        service = build_service(ServiceOptions(max_concurrent_queries=1))
        service.set_policy("t", TenantPolicy(max_queue_depth=1))
        session = service.open_session("t")
        service.submit(session, SQL)  # running
        service.submit(session, SQL)  # queued
        with pytest.raises(QueueOverflowError):
            service.submit(session, SQL)
        service.run()
        statuses = sorted(t.status for t in service.tickets)
        assert statuses == ["done", "done", "rejected"]

    def test_errors_are_admission_errors(self):
        service = build_service(ServiceOptions(max_concurrent_queries=1))
        service.set_policy("t", TenantPolicy(max_queue_depth=0))
        session = service.open_session("t")
        service.submit(session, SQL)
        with pytest.raises(AdmissionError):
            service.submit(session, SQL)
        service.run()

    def test_fast_reject_when_all_plan_wrappers_broken(self):
        resilience = ResilienceOptions(
            retry=RetryPolicy(max_attempts=1),
            breaker=BreakerPolicy(failure_threshold=1, cooldown_ms=1e9),
        )
        service = build_service(
            resilience=resilience,
            fault_profile=FaultProfile(error_probability=1.0, seed=3),
        )
        session = service.open_session("t")
        # First query trips the breaker (every attempt faults).
        try:
            service.query(session, SQL)
        except Exception:
            pass
        assert service.mediator.executor.scheduler.open_breaker_wrappers()
        with pytest.raises(ServiceDegradedError):
            service.submit(session, SQL)
        reject = service.tickets[-1]
        assert reject.rejection_reason.startswith("degraded")
