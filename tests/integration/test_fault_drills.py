"""Fault drills on the dispatch path with *no* resilience options.

The golden transcripts and equivalence suites contain no faults, so the
no-options fault path is pinned here: a wrapper fault becomes a failed
outcome that the consumer re-raises unchanged — the wave it happened in
still commits, every span still closes, and through the service only the
query that owns the submit fails.
"""

from __future__ import annotations

import pytest

from repro.errors import TransientSourceError
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.obs import ObservabilityOptions
from repro.rt import RealTimeBackend
from repro.service import FederationService, ServiceOptions
from repro.wrappers.base import Wrapper
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

ORDERS = "SELECT * FROM Orders WHERE qty > 90"
PARTS = "SELECT * FROM AtomicParts WHERE Id < 10"
BROKEN = FaultProfile(error_probability=1.0)


@pytest.fixture(params=["sim", "real"])
def backend(request):
    """``None`` selects the default simulated stack."""
    if request.param == "sim":
        yield None
        return
    with RealTimeBackend(max_workers=2) as real:
        yield real


def build_mediator(sales, backend=None, parallel=True, observability=None):
    mediator = Mediator(
        executor_options=ExecutorOptions(
            parallel_submits=parallel, backend=backend
        ),
        observability=observability,
    )
    mediator.register(build_oo7_wrapper())
    mediator.register(sales)
    return mediator


class TestPoisonedWave:
    def test_a_faulted_wave_commits_and_the_next_one_runs(self, backend):
        sales = FaultInjector(build_sales_wrapper(), BROKEN)
        mediator = build_mediator(sales, backend)
        with pytest.raises(TransientSourceError) as raised:
            mediator.query(ORDERS)
        assert type(raised.value) is TransientSourceError
        assert str(raised.value) == "source 'sales' failed transiently"
        assert not mediator.executor.scheduler.parallel.in_wave
        sales.set_profile(FaultProfile())
        assert mediator.query(ORDERS).count == 36
        assert mediator.query(PARTS).count == 10

    def test_siblings_of_a_faulted_branch_finish_first(self, backend):
        sales = FaultInjector(build_sales_wrapper(), BROKEN)
        oo7 = FaultInjector(build_oo7_wrapper())
        mediator = Mediator(
            executor_options=ExecutorOptions(parallel_submits=True, backend=backend)
        )
        mediator.register(oo7)
        mediator.register(sales)
        with pytest.raises(TransientSourceError):
            mediator.query(
                "SELECT * FROM AtomicParts, Suppliers "
                "WHERE AtomicParts.type = Suppliers.partType"
            )
        assert oo7.log.executions == 1
        assert mediator.executor.scheduler.last_wave.branches == 2


class _Raising(Wrapper):
    """Serves the inner wrapper's collections but raises one given
    exception object from every execution."""

    def __init__(self, inner, fault):
        super().__init__(inner.name, inner.capabilities)
        self.inner = inner
        self.fault = fault

    def export_cost_info(self):
        return self.inner.export_cost_info()

    def execute(self, plan):
        raise self.fault


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "wave"])
def test_the_original_exception_object_is_reraised(backend, parallel):
    fault = TransientSourceError("the one and only", elapsed_ms=1.0)
    mediator = build_mediator(
        _Raising(build_sales_wrapper(), fault),
        backend,
        parallel=parallel,
        observability=ObservabilityOptions.all_on(),
    )
    with pytest.raises(TransientSourceError) as raised:
        mediator.query(ORDERS)
    assert raised.value is fault
    assert mediator.telemetry.tracer.current is None
    # No policy was ever built for the submit.
    assert mediator.executor.scheduler.breakers == {}


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "wave"])
def test_the_service_fails_only_the_owning_ticket(parallel, thread_starts):
    sales = FaultInjector(build_sales_wrapper(), BROKEN)
    service = FederationService(
        build_mediator(sales, parallel=parallel), ServiceOptions()
    )
    tenant_a = service.open_session("a")
    tenant_b = service.open_session("b")
    ticket_a = service.submit(tenant_a, ORDERS)
    ticket_b = service.submit(tenant_b, PARTS)
    service.run()
    assert ticket_a.status == "failed"
    assert type(ticket_a.error) is TransientSourceError
    assert str(ticket_a.error) == "source 'sales' failed transiently"
    assert ticket_b.status == "done"
    assert ticket_b.result.count == 10
    # The follow-up query runs on the caller's thread: it starts none.
    del thread_starts[:]
    sales.set_profile(FaultProfile())
    assert service.query(tenant_a, ORDERS).count == 36
    assert thread_starts == []
    assert [t.status for t in service.tickets] == ["failed", "done", "done"]
