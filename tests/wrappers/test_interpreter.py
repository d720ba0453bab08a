"""Tests for the wrapper-side plan interpreter."""

import pytest

from repro.algebra.builders import count_star, scan
from repro.algebra.expressions import And, Comparison, attr, between, eq, lit
from repro.algebra.logical import AggregateSpec, Scan, Select, Submit
from repro.errors import CapabilityError
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.interpreter import EngineExecutor
from tests.spy_clock import SpyClock, build_pin_engine


@pytest.fixture
def executor():
    engine = StorageEngine(SimClock(CostProfile(io_ms=10.0, cpu_ms_per_object=1.0)))
    engine.create_collection(
        "emp",
        [
            {"id": i, "dept": i % 3, "salary": 1000 + 10 * i}
            for i in range(30)
        ],
        object_size=60,
        indexed_attributes=["id"],
        placement="sequential",
        page_size=512,  # ~8 rows/page so access paths differ measurably
    )
    engine.create_collection(
        "dept",
        [{"dept_id": d, "dname": f"d{d}"} for d in range(3)],
        object_size=40,
    )
    return EngineExecutor(engine)


class TestScanSelectProject:
    def test_scan_all(self, executor):
        rows = executor.execute(scan("emp").build())
        assert len(rows) == 30

    def test_select_filters(self, executor):
        plan = scan("emp").where_eq("dept", 1).build()
        rows = executor.execute(plan)
        assert len(rows) == 10
        assert all(r["dept"] == 1 for r in rows)

    def test_project_keeps_attributes(self, executor):
        plan = scan("emp").keep("id").build()
        rows = executor.execute(plan)
        assert all(set(r) == {"id"} for r in rows)

    def test_select_uses_index_when_available(self, executor):
        clock = executor.clock
        before = clock.stats.page_reads
        executor.execute(scan("emp").where_eq("id", 7).build())
        index_reads = clock.stats.page_reads - before
        before = clock.stats.page_reads
        executor.execute(scan("emp").where_eq("dept", 1).build())
        seq_reads = clock.stats.page_reads - before
        assert index_reads < seq_reads

    def test_range_predicate_through_index(self, executor):
        plan = Select(Scan("emp"), Comparison("<", attr("id"), lit(5)))
        rows = executor.execute(plan)
        assert sorted(r["id"] for r in rows) == [0, 1, 2, 3, 4]

    def test_conjunction_with_residual(self, executor):
        plan = Select(Scan("emp"), And(eq("id", 7), eq("dept", 1)))
        rows = executor.execute(plan)
        assert rows == [{"id": 7, "dept": 1, "salary": 1070}]

    def test_between_uses_residual_correctly(self, executor):
        plan = Select(Scan("emp"), between("id", 3, 6))
        rows = executor.execute(plan)
        assert sorted(r["id"] for r in rows) == [3, 4, 5, 6]

    def test_not_equal_cannot_use_index(self, executor):
        plan = Select(Scan("emp"), Comparison("!=", attr("id"), lit(0)))
        rows = executor.execute(plan)
        assert len(rows) == 29


class TestSortDistinctAggregate:
    def test_sort_ascending_descending(self, executor):
        rows = executor.execute(scan("emp").order_by("salary").build())
        salaries = [r["salary"] for r in rows]
        assert salaries == sorted(salaries)
        rows = executor.execute(
            scan("emp").order_by("salary", descending=True).build()
        )
        assert [r["salary"] for r in rows] == sorted(salaries, reverse=True)

    def test_distinct(self, executor):
        plan = scan("emp").keep("dept").distinct().build()
        rows = executor.execute(plan)
        assert sorted(r["dept"] for r in rows) == [0, 1, 2]

    def test_aggregate_count_by_group(self, executor):
        plan = scan("emp").aggregate(["dept"], [count_star("n")]).build()
        rows = executor.execute(plan)
        assert sorted((r["dept"], r["n"]) for r in rows) == [(0, 10), (1, 10), (2, 10)]

    def test_aggregate_functions(self, executor):
        specs = [
            AggregateSpec("sum", "salary", "total"),
            AggregateSpec("avg", "salary", "mean"),
            AggregateSpec("min", "salary", "low"),
            AggregateSpec("max", "salary", "high"),
        ]
        plan = scan("emp").aggregate([], specs).build()
        row = executor.execute(plan)[0]
        salaries = [1000 + 10 * i for i in range(30)]
        assert row["total"] == sum(salaries)
        assert row["mean"] == pytest.approx(sum(salaries) / 30)
        assert (row["low"], row["high"]) == (1000, 1290)

    def test_aggregate_empty_input_global(self, executor):
        plan = (
            scan("emp")
            .where_eq("dept", 99)
            .aggregate([], [count_star("n")])
            .build()
        )
        assert executor.execute(plan) == [{"n": 0}]


class TestJoinUnion:
    def test_join_matches(self, executor):
        plan = (
            scan("emp")
            .join(scan("dept"), "dept", "dept_id", "emp", "dept")
            .build()
        )
        rows = executor.execute(plan)
        assert len(rows) == 30
        assert all(r["dept"] == r["dept_id"] for r in rows)
        assert all("dname" in r for r in rows)

    def test_union_concatenates(self, executor):
        plan = scan("dept").union(scan("dept")).build()
        assert len(executor.execute(plan)) == 6

    def test_join_collision_qualifies_names(self, executor):
        engine = executor.engine
        engine.create_collection(
            "other", [{"id": 1, "x": 9}], object_size=20
        )
        plan = scan("emp").join(scan("other"), "id", "id", "emp", "other").build()
        rows = executor.execute(plan)
        assert len(rows) == 1
        # id matches on both sides with equal value; no qualification needed
        assert rows[0]["x"] == 9


class TestErrors:
    def test_submit_rejected(self, executor):
        plan = Submit(Scan("emp"), "w")
        with pytest.raises(CapabilityError):
            executor.execute(plan)


#: One plan per operator over the five-employee engine of
#: ``tests/spy_clock.py`` (10 ms per page, 1 ms per object, 0.5 ms per
#: operator step) and every clock charge it makes, in order — captured
#: before the row-operator kernel existed.  ``select-index`` probes the
#: ``id`` index (0.1 ms per node visited) and charges its residual
#: conjunct per fetched row.
PINNED_PLANS = {
    "select": scan("emp").where_eq("dept", 1),
    "select-index": scan("emp").where(
        And(Comparison("<=", attr("id"), lit(3)), eq("dept", 1))
    ),
    "project": scan("emp").keep("id"),
    "sort": scan("emp").order_by("salary"),
    "distinct": scan("emp").keep("dept").distinct(),
    "aggregate": scan("emp").aggregate(["dept"], [count_star("n")]),
    "join": scan("emp").join(scan("dept"), "dept", "dept_id"),
    "union": scan("dept").union(scan("dept").where_eq("dept_id", 1)),
}
PINNED_CHARGES = {
    "select": [
        0.0, 10.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 10.0, 1.0, 0.5,
    ],
    "select-index": [
        0.1, 10.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5,
    ],
    "project": [
        0.0, 10.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 10.0, 1.0, 0.5,
    ],
    "sort": [
        0.0, 10.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0, 2.5,
    ],
    "distinct": [
        0.0, 10.0, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 10.0,
        1.0, 0.5, 0.5,
    ],
    "aggregate": [
        0.0, 10.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 10.0, 1.0, 0.5,
    ],
    "join": [
        0.0, 10.0, 1.0, 0.5, 1.0, 0.5, 0.0, 10.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0,
        0.5, 10.0, 1.0, 0.5,
    ],
    "union": [
        0.0, 10.0, 1.0, 1.0, 0.0, 10.0, 1.0, 0.5, 1.0, 0.5,
    ],
}


class TestChargeSequencePins:
    @pytest.mark.parametrize("operator", PINNED_PLANS)
    def test_every_charge_in_order(self, operator):
        clock = SpyClock(CostProfile(io_ms=10.0, cpu_ms_per_object=1.0))
        executor = EngineExecutor(build_pin_engine(clock))
        executor.execute(PINNED_PLANS[operator].build())
        assert clock.take() == PINNED_CHARGES[operator]


class TestPerNodeWorkIsBoundOnce:
    @pytest.mark.parametrize("indexed", [[], ["id"]], ids=["seq scan", "index residual"])
    def test_a_select_never_walks_its_predicate_tree_per_row(self, monkeypatch, indexed):
        """The twin of the mediator-side test: the select over a
        sequential scan and the residual conjuncts of an index scan both
        run the predicate compiled once by ``rowops.test`` — zero
        ``Comparison.evaluate`` calls at 10 and at 1 000 rows — and the
        step is still charged once per row read."""
        calls = []
        evaluate = Comparison.evaluate
        monkeypatch.setattr(
            Comparison, "evaluate", lambda self, row: calls.append(row) or evaluate(self, row)
        )
        predicate = And(Comparison(">=", attr("id"), lit(0)), eq(attr("dept", "emp"), 1))
        for rows in (10, 1000):
            clock = SpyClock(CostProfile(io_ms=0.0, cpu_ms_per_object=1.0))
            engine = StorageEngine(clock)
            engine.create_collection(
                "emp",
                [{"id": i, "dept": i % 2} for i in range(rows)],
                object_size=40,
                indexed_attributes=indexed,
            )
            result = EngineExecutor(engine).execute(scan("emp").where(predicate).build())
            assert len(result) == rows // 2
            assert clock.take().count(0.5) == rows
        assert calls == []
