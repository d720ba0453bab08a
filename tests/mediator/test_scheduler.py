"""Tests for concurrent submit dispatch and the subanswer cache."""

import pytest

from repro.algebra.builders import scan
from repro.mediator.backend import MEDIATOR_PROFILE
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from tests.federation_fixtures import (
    build_files_wrapper,
    build_oo7_wrapper,
    build_sales_wrapper,
)

PARALLEL = ExecutorOptions(parallel_submits=True)
CACHED = ExecutorOptions(cache_subanswers=True)
PARALLEL_CACHED = ExecutorOptions(parallel_submits=True, cache_subanswers=True)


def build_mediator(options=None):
    """A fresh federation per call — wrapper-side buffer caches mean a
    shared instance would not give comparable timings across modes."""
    mediator = Mediator(executor_options=options)
    mediator.register(build_oo7_wrapper())
    mediator.register(build_sales_wrapper())
    mediator.register(build_files_wrapper())
    return mediator


def union_two_wrappers():
    return (
        scan("AtomicParts")
        .submit_to("oo7")
        .union(scan("Orders").submit_to("sales"))
        .build()
    )


def cross_wrapper_join():
    return (
        scan("AtomicParts")
        .where_eq("Id", 3)
        .submit_to("oo7")
        .join(scan("Suppliers").submit_to("sales"), "type", "partType")
        .build()
    )


class TestParallelWaveAccounting:
    def test_wave_total_is_messages_plus_makespan(self):
        """Parallel total = serialized messages + max of wrapper times."""
        mediator = build_mediator(PARALLEL)
        executor = mediator.executor
        bytes_before = executor.clock.stats.bytes_shipped
        result = executor.execute(union_two_wrappers())
        shipped = executor.clock.stats.bytes_shipped - bytes_before
        wrapper_times = [res.total_time_ms for _node, res in result.submit_log]
        assert len(wrapper_times) == 2
        expected = (
            4 * MEDIATOR_PROFILE.net_ms_per_message
            + shipped * MEDIATOR_PROFILE.net_ms_per_byte
            + max(wrapper_times)
        )
        assert result.total_time_ms == pytest.approx(expected)
        # The overlap saved exactly the smaller branch's wait.
        assert result.parallel_saved_ms == pytest.approx(min(wrapper_times))

    def test_sequential_total_is_additive(self):
        mediator = build_mediator()
        executor = mediator.executor
        bytes_before = executor.clock.stats.bytes_shipped
        result = executor.execute(union_two_wrappers())
        shipped = executor.clock.stats.bytes_shipped - bytes_before
        wrapper_times = [res.total_time_ms for _node, res in result.submit_log]
        expected = (
            4 * MEDIATOR_PROFILE.net_ms_per_message
            + shipped * MEDIATOR_PROFILE.net_ms_per_byte
            + sum(wrapper_times)
        )
        assert result.total_time_ms == pytest.approx(expected)
        assert result.parallel_saved_ms == 0.0

    def test_parallel_beats_sequential(self):
        sequential = build_mediator().executor.execute(union_two_wrappers())
        parallel = build_mediator(PARALLEL).executor.execute(union_two_wrappers())
        assert parallel.total_time_ms < sequential.total_time_ms

    def test_concurrency_one_matches_sequential(self):
        """A single slot serializes the wave: same clock as the seed model."""
        capped = ExecutorOptions(parallel_submits=True, max_concurrency=1)
        sequential = build_mediator().executor.execute(union_two_wrappers())
        serialized = build_mediator(capped).executor.execute(union_two_wrappers())
        assert serialized.total_time_ms == pytest.approx(sequential.total_time_ms)
        assert serialized.parallel_saved_ms == 0.0


class TestParallelResultEquivalence:
    @pytest.mark.parametrize("plan_builder", [union_two_wrappers, cross_wrapper_join])
    def test_rows_identical_to_sequential(self, plan_builder):
        sequential = build_mediator().executor.execute(plan_builder())
        parallel = build_mediator(PARALLEL).executor.execute(plan_builder())
        assert parallel.rows == sequential.rows

    def test_parallel_order_is_deterministic(self):
        first = build_mediator(PARALLEL).executor.execute(cross_wrapper_join())
        second = build_mediator(PARALLEL).executor.execute(cross_wrapper_join())
        assert first.rows == second.rows

    def test_submit_log_order_matches_sequential(self):
        """Prefetch must not reorder the log the §4.3.1 history sees."""
        sequential = build_mediator().executor.execute(cross_wrapper_join())
        parallel = build_mediator(PARALLEL).executor.execute(cross_wrapper_join())
        assert [node.wrapper for node, _res in parallel.submit_log] == [
            node.wrapper for node, _res in sequential.submit_log
        ]


class TestSubanswerCache:
    def test_repeat_query_hits_cache(self):
        mediator = build_mediator(CACHED)
        plan = scan("Suppliers").submit_to("sales").build()
        first = mediator.executor.execute(plan)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = mediator.executor.execute(plan)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.rows == first.rows

    def test_hit_skips_wrapper_and_charges_zero(self):
        mediator = build_mediator(CACHED)
        plan = scan("Suppliers").submit_to("sales").build()
        mediator.executor.execute(plan)
        wrapper_clock = mediator.catalog.wrapper("sales").engine.clock
        wrapper_before = wrapper_clock.now_ms
        mediator_before = mediator.executor.clock.now_ms
        second = mediator.executor.execute(plan)
        assert wrapper_clock.now_ms == wrapper_before  # no wrapper execution
        assert mediator.executor.clock.now_ms == mediator_before  # zero time
        assert second.total_time_ms == 0.0
        assert second.submit_log == []  # history must not learn from hits

    def test_within_wave_duplicates_hit(self):
        mediator = build_mediator(PARALLEL_CACHED)
        plan = (
            scan("Suppliers")
            .submit_to("sales")
            .union(scan("Suppliers").submit_to("sales"))
            .build()
        )
        result = mediator.executor.execute(plan)
        assert result.count == 100
        assert (result.cache_hits, result.cache_misses) == (1, 1)
        assert len(result.submit_log) == 1

    def test_cached_rows_are_isolated(self):
        mediator = build_mediator(CACHED)
        plan = scan("Suppliers").submit_to("sales").build()
        first = mediator.executor.execute(plan)
        first.rows[0]["city"] = "mutated"
        second = mediator.executor.execute(plan)
        assert second.rows[0]["city"] != "mutated"

    def test_reregistration_invalidates(self):
        mediator = build_mediator(CACHED)
        plan = scan("Suppliers").submit_to("sales").build()
        mediator.executor.execute(plan)
        mediator.register(build_sales_wrapper())
        result = mediator.executor.execute(plan)
        assert (result.cache_hits, result.cache_misses) == (0, 1)


class TestMediatorSurface:
    def test_query_result_reports_counters(self):
        mediator = build_mediator(PARALLEL_CACHED)
        sql = "SELECT * FROM Suppliers WHERE city = 'city0'"
        first = mediator.query(sql)
        assert first.cache_misses >= 1
        second = mediator.query(sql)
        assert second.cache_hits >= 1
        assert second.rows == first.rows

    def test_explain_shows_cache_stats(self):
        mediator = build_mediator(CACHED)
        sql = "SELECT * FROM Suppliers WHERE city = 'city0'"
        mediator.query(sql)
        mediator.query(sql)
        text = mediator.explain(sql)
        # The counters are cumulative executor state (explain itself
        # executes nothing), so the label must say so.
        assert "subanswer cache (lifetime): 1 hits / 1 misses" in text

    def test_query_result_reports_parallel_savings(self):
        mediator = build_mediator(PARALLEL)
        result = mediator.execute_plan(union_two_wrappers())
        assert result.parallel_saved_ms > 0.0
