"""History recording × subanswer cache interaction.

§4.3.1 history rules must be built from *measured* executions only: a
cache hit answers in (near) zero simulated time, and recording that as
the subquery's cost would poison the query-scope rule exactly as it
would poison the drift tracker.  The executor guarantees this by
construction — cache hits never enter ``submit_log`` — and these tests
pin the guarantee at the mediator surface.
"""

from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SQL = (
    "SELECT * FROM AtomicParts, Suppliers "
    "WHERE AtomicParts.type = Suppliers.partType "
    "AND Suppliers.city = 'city1'"
)


def build_mediator(cache: bool, observability=False):
    mediator = Mediator(
        record_history=True,
        executor_options=ExecutorOptions(cache_subanswers=cache),
        observability=observability,
    )
    mediator.register(build_oo7_wrapper())
    mediator.register(build_sales_wrapper())
    return mediator


class TestHistoryWithCache:
    def test_first_run_records_each_submit_once(self):
        mediator = build_mediator(cache=True)
        first = mediator.query(SQL)
        assert first.cache_misses == 2
        assert len(mediator.history) == 2
        assert all(
            entry.executions == 1
            for entry in mediator.history._entries.values()
        )

    def test_cached_rerun_does_not_touch_history(self):
        mediator = build_mediator(cache=True)
        mediator.query(SQL)
        second = mediator.query(SQL)
        assert second.cache_hits == 2 and second.cache_misses == 0
        # No new entries, and — the crux — no execution-count bump: a
        # hit is not a measurement.
        assert len(mediator.history) == 2
        assert all(
            entry.executions == 1
            for entry in mediator.history._entries.values()
        )

    def test_uncached_rerun_does_update_history(self):
        mediator = build_mediator(cache=False)
        mediator.query(SQL)
        mediator.query(SQL)
        assert len(mediator.history) == 2
        assert all(
            entry.executions == 2
            for entry in mediator.history._entries.values()
        )

    def test_recorded_costs_are_the_measured_ones(self):
        mediator = build_mediator(cache=True)
        first = mediator.query(SQL)
        mediator.query(SQL)  # cached — must not zero the recorded costs
        total_recorded = sum(
            entry.last_total_ms for entry in mediator.history._entries.values()
        )
        assert 0 < total_recorded <= first.elapsed_ms

    def test_drift_tracker_follows_the_same_rule(self):
        mediator = build_mediator(
            cache=True, observability=True
        )
        mediator.query(SQL)
        drift = mediator.telemetry.drift
        recorded = drift.observations
        assert recorded > 0
        mediator.query(SQL)  # all hits
        assert drift.observations == recorded
