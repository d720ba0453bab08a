"""The replication layer's no-replica guarantee.

With no replica sets registered, every executor path must stay
byte-identical to the seed: ``catalog.has_replicas()`` gates the
optimizer's binding pass, the scheduler's failover loop, and the hedging
hook, so a replica-free federation pays nothing and changes nothing —
answers, submit logs, simulated latencies, and estimates all match,
across the sequential executor, the concurrent-wave executor, a fully
armed (never-firing) resilience configuration, and a hedge-armed policy
with nobody to hedge to.  A replica set on an *untouched* wrapper must
likewise leave queries against other sources unchanged.  Mirrors
``tests/service/test_sharding_equivalence.py`` (whose workload and
transcript helpers it reuses — every query there reads the ``sales``
wrapper only).
"""

from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    BreakerPolicy,
    ReplicaStats,
    ResilienceOptions,
    RetryPolicy,
)
from repro.oo7 import TINY, load_database
from repro.wrappers import ObjectStoreWrapper
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper
from tests.service.test_sharding_equivalence import run_workload

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

#: The same armed options plus a hair-trigger hedge policy.  Without a
#: replica set there is no backup member, so the hedge hook must never
#: launch anything or touch the clock.
HEDGED = ResilienceOptions(
    retry=ARMED.retry,
    breaker=ARMED.breaker,
    mode="partial",
    hedge_delay_ms=0.001,
)


def build_mediator(
    resilience=None, inject=False, parallel=False, idle_replica=False
):
    mediator = Mediator(
        executor_options=ExecutorOptions(
            resilience=resilience, parallel_submits=parallel
        )
    )
    for wrapper in (build_oo7_wrapper(), build_sales_wrapper()):
        if inject:
            wrapper = FaultInjector(wrapper, FaultProfile(error_probability=0.0))
        mediator.register(wrapper)
    if idle_replica:
        # A replica of the OO7 wrapper: the workload only queries the
        # sales wrapper, so this set must never influence its dispatch —
        # but its presence flips ``has_replicas()`` on, arming every
        # replica code path for the whole federation.
        mediator.register_replica(
            ObjectStoreWrapper("oo7_b", load_database(TINY)), of="oo7"
        )
    return mediator


class TestNoReplicasIsByteIdentical:
    def test_sequential_executor(self):
        assert run_workload(build_mediator(idle_replica=True)) == run_workload(
            build_mediator()
        )

    def test_parallel_wave_executor(self):
        assert run_workload(
            build_mediator(idle_replica=True, parallel=True)
        ) == run_workload(build_mediator(parallel=True))

    def test_armed_resilience_executor(self):
        assert run_workload(
            build_mediator(
                idle_replica=True, resilience=ARMED, inject=True, parallel=True
            )
        ) == run_workload(
            build_mediator(resilience=ARMED, inject=True, parallel=True)
        )

    def test_hedge_armed_without_replicas_never_fires(self):
        hedged = build_mediator(resilience=HEDGED, inject=True, parallel=True)
        plain = build_mediator(resilience=ARMED, inject=True, parallel=True)
        assert run_workload(hedged) == run_workload(plain)
        assert hedged.executor.scheduler.replica_stats == ReplicaStats()

    def test_answers_are_complete(self):
        # Sanity: "byte-identical" must not mean "identically empty".
        transcript = run_workload(build_mediator(idle_replica=True))
        assert all(len(entry["rows"]) > 0 for entry in transcript[:-1])
        assert all(entry["partial"] is None for entry in transcript[:-1])
