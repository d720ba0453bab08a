"""Property test: with fault probability 0 the resilient path is
byte-identical to the seed path.

The fault-tolerance layer must be pay-for-what-you-use twice over: the
executor default (``resilience=None``) leaves the original code path
untouched, and a configured layer whose injectors never fire must
produce the same rows, the same submit log, and the *same simulated
clock totals* — retries, breakers and deadlines only act on failures.
"""

import pytest

from repro.algebra.builders import scan
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    BreakerPolicy,
    ResilienceOptions,
    ResilienceStats,
    RetryPolicy,
)
from repro.oo7 import TINY
from repro.oo7.workload import build_workload
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SEED = 7

#: A fully armed layer (retries, jitter, deadline, breakers) that never
#: fires because no fault ever occurs.
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


def build_mediator(resilience=None, inject=False, parallel=False):
    mediator = Mediator(
        executor_options=ExecutorOptions(
            resilience=resilience, parallel_submits=parallel
        )
    )
    for wrapper in (build_oo7_wrapper(), build_sales_wrapper()):
        if inject:
            # Zero-probability profile: the injector must be transparent.
            wrapper = FaultInjector(wrapper, FaultProfile(error_probability=0.0))
        mediator.register(wrapper)
    return mediator


def run_workload(mediator):
    """Row/clock/submit-log transcript of the OO7 workload."""
    transcript = []
    for query in build_workload(TINY, SEED):
        plan = mediator.plan(query.sql).plan
        execution = mediator.executor.execute(plan)
        transcript.append(
            {
                "label": query.label,
                "rows": execution.rows,
                "elapsed_ms": execution.total_time_ms,
                "time_first_ms": execution.time_first_ms,
                "submit_log": [
                    (node.wrapper, node.child.describe(), res.total_time_ms)
                    for node, res in execution.submit_log
                ],
            }
        )
    transcript.append(("clock_total", mediator.executor.clock.now_ms))
    transcript.append(("wait_ms", mediator.executor.clock.stats.wait_ms))
    transcript.append(("messages", mediator.executor.clock.stats.messages))
    transcript.append(("bytes", mediator.executor.clock.stats.bytes_shipped))
    return transcript


class TestZeroProbabilityEquivalence:
    def test_armed_layer_with_benign_injectors_matches_seed(self):
        """Satellite (c): p=0 ⇒ identical results, clock, submit_log."""
        seed_transcript = run_workload(build_mediator())
        resilient_transcript = run_workload(
            build_mediator(resilience=ARMED, inject=True)
        )
        assert resilient_transcript == seed_transcript

    def test_armed_layer_without_injectors_matches_seed(self):
        assert run_workload(build_mediator(resilience=ARMED)) == run_workload(
            build_mediator()
        )

    def test_wave_dispatch_equivalence(self):
        """The concurrent (wave) charge path is preserved too."""
        plan = (
            scan("Orders")
            .submit_to("sales")
            .union(scan("AtomicParts").submit_to("oo7"))
            .build()
        )
        seed = build_mediator(parallel=True).execute_plan(plan)
        resilient = build_mediator(
            resilience=ARMED, inject=True, parallel=True
        ).execute_plan(plan)
        assert resilient.rows == seed.rows
        assert resilient.elapsed_ms == pytest.approx(seed.elapsed_ms, abs=1e-9)
        assert resilient.parallel_saved_ms == pytest.approx(
            seed.parallel_saved_ms, abs=1e-9
        )

    def test_no_resilience_stats_attached_on_seed_path(self):
        mediator = build_mediator()
        plan = mediator.plan("SELECT * FROM Suppliers WHERE city = 'city0'").plan
        execution = mediator.executor.execute(plan)
        assert execution.partial is None
        assert execution.resilience is None

    def test_empty_resilience_stats_attached_on_armed_path(self):
        mediator = build_mediator(resilience=ARMED, inject=True)
        plan = mediator.plan("SELECT * FROM Suppliers WHERE city = 'city0'").plan
        execution = mediator.executor.execute(plan)
        assert execution.partial is None
        assert execution.resilience == ResilienceStats()
