"""The real-time backend: wall clock, wave accounting, deadlines, and
the end-to-end real federation (SQLite + webish) through the mediator.
"""

from __future__ import annotations

import time

import pytest

from repro.algebra.expressions import And, AttributeRef, Comparison, attr, lit
from repro.algebra.logical import Project, Scan, Select
from repro.bench.realtime import run_realtime, spearman_rank_correlation
from repro.errors import SourceFaultError, SourceUnavailableError
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.oo7 import schema
from repro.rt import (
    RealTimeBackend,
    SQLiteWrapper,
    WallClock,
    WallWaveAccounting,
    WebLatencyWrapper,
)
from repro.wrappers.base import ExecutionResult


class _StubWrapper:
    """The minimal duck-typed wrapper ``measured_execute`` needs."""

    def __init__(self, behavior):
        self.behavior = behavior

    def execute(self, plan):
        return self.behavior()


def _rows(n: int) -> ExecutionResult:
    return ExecutionResult(rows=[{"Id": i} for i in range(n)], total_time_ms=1.0)


class TestWallClock:
    def test_time_actually_passes(self):
        clock = WallClock()
        mark = clock.now_ms
        time.sleep(0.01)
        assert clock.elapsed_since(mark) >= 5.0

    def test_advance_is_a_validated_no_op(self):
        clock = WallClock()
        before = clock.now_ms
        clock.advance(10_000.0)
        assert clock.now_ms - before < 1_000.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_counters_still_count(self):
        clock = WallClock()
        clock.charge_message(payload_bytes=64)
        clock.charge_message()
        clock.charge_wait(5.0)
        assert clock.stats.messages == 2
        assert clock.stats.bytes_shipped == 64
        assert clock.stats.wait_ms == 5.0

    def test_sleep_really_sleeps_and_counts(self):
        clock = WallClock()
        mark = clock.now_ms
        clock.sleep(15.0)
        assert clock.elapsed_since(mark) >= 10.0
        assert clock.stats.wait_ms == 15.0


class TestWallWaveAccounting:
    def test_makespan_is_measured_not_modeled(self):
        clock = WallClock()
        waves = WallWaveAccounting(clock, None)
        waves.begin_wave()
        time.sleep(0.01)
        waves.charge_branch(100.0)
        waves.charge_branch(50.0)
        wave = waves.commit_wave()
        assert wave.branches == 2
        assert wave.sequential_ms == 150.0
        assert wave.makespan_ms >= 5.0

    def test_waves_do_not_nest(self):
        waves = WallWaveAccounting(WallClock(), None)
        waves.begin_wave()
        with pytest.raises(RuntimeError):
            waves.begin_wave()


class TestMeasuredExecute:
    def test_success_reports_wall_duration(self):
        with RealTimeBackend() as backend:
            wrapper = _StubWrapper(lambda: (time.sleep(0.01), _rows(3))[1])
            attempt = backend.measured_execute(wrapper, Scan("T"))
            assert attempt.ok
            assert len(attempt.result.rows) == 3
            assert attempt.duration_ms >= 5.0

    def test_fault_classification_and_reraise(self):
        def unavailable():
            raise SourceUnavailableError("w", elapsed_ms=1.0)

        def flaky():
            raise SourceFaultError("w", elapsed_ms=1.0)

        def broken():
            raise ValueError("a real source fails in real ways")

        with RealTimeBackend() as backend:
            scan = Scan("T")
            assert (
                backend.measured_execute(_StubWrapper(unavailable), scan).error
                == "unavailable"
            )
            assert (
                backend.measured_execute(_StubWrapper(flaky), scan).error
                == "transient"
            )
            attempt = backend.measured_execute(_StubWrapper(broken), scan)
            assert attempt.error == "transient"
            # The original exception travels with the attempt, for the
            # consumer to re-raise unchanged.
            with pytest.raises(ValueError):
                raise attempt.fault

    def test_deadline_abandons_an_overrunning_attempt(self):
        with RealTimeBackend() as backend:
            slow = _StubWrapper(lambda: (time.sleep(0.2), _rows(1))[1])
            start = time.perf_counter()
            attempt = backend.measured_execute(slow, Scan("T"), budget_ms=20.0)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert attempt.result is None
            assert attempt.error is None
            # Reported wait exceeds the budget strictly, so the
            # scheduler's `waited + wait > deadline` check fires.
            assert attempt.duration_ms > 20.0
            # The dispatcher moved on; it did not wait the full 200 ms.
            assert elapsed_ms < 150.0

    def test_within_budget_attempt_completes(self):
        with RealTimeBackend() as backend:
            quick = _StubWrapper(lambda: _rows(2))
            attempt = backend.measured_execute(quick, Scan("T"), budget_ms=5_000.0)
            assert attempt.ok
            assert len(attempt.result.rows) == 2


class TestRunWave:
    def test_results_return_in_input_order(self):
        with RealTimeBackend(max_workers=4) as backend:
            delays = [0.03, 0.0, 0.015, 0.005]
            outcomes = backend.run_wave(
                [
                    (lambda d=d, i=i: (time.sleep(d), i)[1])
                    for i, d in enumerate(delays)
                ]
            )
            assert outcomes == [0, 1, 2, 3]

    def test_branches_genuinely_overlap(self):
        with RealTimeBackend(max_workers=4) as backend:
            start = time.perf_counter()
            backend.run_wave([lambda: time.sleep(0.05) for _ in range(4)])
            elapsed = time.perf_counter() - start
            # Four 50 ms branches sequentially would take 200 ms.
            assert elapsed < 0.15


class TestWebLatencyWrapper:
    def test_latency_is_genuine(self):
        web = WebLatencyWrapper(
            "web", {"C": [{"k": i} for i in range(10)]}, latency_ms=20.0
        )
        start = time.perf_counter()
        result = web.execute(Scan("C"))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert len(result.rows) == 10
        # Request + response legs: at least two latencies on the wall.
        assert elapsed_ms >= 35.0
        assert result.total_time_ms >= 35.0

    def test_select_filters(self):
        web = WebLatencyWrapper(
            "web",
            {"C": [{"k": float(i)} for i in range(10)]},
            latency_ms=0.0,
            per_row_ms=0.0,
        )
        result = web.execute(
            Select(Scan("C"), Comparison("<", attr("k"), lit(3.0)))
        )
        assert sorted(row["k"] for row in result.rows) == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("collection", [None, "C"], ids=["bare", "qualified"])
    def test_select_and_project_read_the_row_kernel(self, monkeypatch, collection):
        """The third row interpreter: a pushed-down select → project gives
        the rows ``Predicate.evaluate`` / ``AttributeRef.evaluate`` define,
        with predicate and columns bound once per node — the
        ``AttributeRef`` constructions and ``Comparison.evaluate`` calls of
        ``execute()`` do not grow with the rows."""
        predicate = And(
            Comparison(">=", attr("k", collection), lit(2)),
            Comparison("!=", attr("tag", collection), lit("t0")),
        )
        plan = Project(Select(Scan("C"), predicate), ("key", "tag"), {"key": "k"})
        counts = {"ref": 0, "evaluate": 0}
        init, evaluate = AttributeRef.__init__, Comparison.evaluate

        def counted_init(ref, *args, **kwargs):
            counts["ref"] += 1
            init(ref, *args, **kwargs)

        def counted_evaluate(comparison, row):
            counts["evaluate"] += 1
            return evaluate(comparison, row)

        def work_at(size: int) -> dict[str, int]:
            rows = [{"k": i, "tag": f"t{i % 3}", "pad": None} for i in range(size)]
            web = WebLatencyWrapper("web", {"C": rows}, latency_ms=0.0, per_row_ms=0.0)
            expected = [
                {"key": row["k"], "tag": row["tag"]} for row in rows if predicate.evaluate(row)
            ]
            counts.update(ref=0, evaluate=0)
            with monkeypatch.context() as patch:
                patch.setattr(AttributeRef, "__init__", counted_init)
                patch.setattr(Comparison, "evaluate", counted_evaluate)
                assert web.execute(plan).rows == expected
            return dict(counts)

        assert work_at(10) == work_at(1000) == {"ref": 2, "evaluate": 0}


class TestRealFederationEndToEnd:
    def test_cross_source_join_on_wall_clock(self):
        backend = RealTimeBackend()
        sqlite = SQLiteWrapper(
            "oo7_db", config=schema.TINY, seed=7, extents=("AtomicParts",)
        )
        web = WebLatencyWrapper(
            "web",
            {"Tags": [{"partId": i, "tag": f"t{i % 3}"} for i in range(0, 200, 2)]},
            latency_ms=5.0,
        )
        try:
            mediator = Mediator(
                executor_options=ExecutorOptions(
                    parallel_submits=True, backend=backend
                )
            )
            mediator.register(sqlite)
            mediator.register(web)
            answer = mediator.query(
                "SELECT * FROM AtomicParts, Tags "
                "WHERE AtomicParts.Id = Tags.partId AND AtomicParts.Id <= 50"
            )
            # Ids 0..50, even ones have a tag.
            assert len(answer.rows) == 26
            # Elapsed is wall time and includes the web source's two
            # genuine 5 ms latency legs.
            assert answer.elapsed_ms >= 5.0
        finally:
            sqlite.close()
            backend.close()


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rank_correlation(
            [1, 2, 3, 4], [10, 20, 30, 40]
        ) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        assert spearman_rank_correlation(
            [1, 2, 3, 4], [40, 30, 20, 10]
        ) == pytest.approx(-1.0)

    def test_ties_average(self):
        # x has a tie; monotone y still correlates strongly but not 1.0.
        value = spearman_rank_correlation([1, 2, 2, 4], [1, 2, 3, 4])
        assert 0.9 < value < 1.0

    def test_degenerate_inputs(self):
        assert spearman_rank_correlation([1.0], [1.0]) == 0.0
        assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0


class TestE16Smoke:
    def test_fast_run_correlates(self):
        result = run_realtime(
            config=schema.TINY,
            selectivities=(0.05, 0.2, 0.45, 0.7),
            repeats=1,
            latency_ms=4.0,
        )
        assert len(result.points) == 8
        assert all(p.measured_ms > 0.0 for p in result.points)
        assert all(p.estimated_ms > 0.0 for p in result.points)
        # The benchmark gate is 0.7; the smoke bar is looser because a
        # single-repeat run on a loaded test machine is noisy.
        assert result.spearman >= 0.5
        payload = result.to_json_dict()
        assert payload["experiment"] == "E16"
        # Wall-clock readings are printed, never written.
        assert all(set(p) == {"label", "source", "selectivity", "rows"}
                   for p in payload["points"])
        assert "Spearman" in result.report()
