"""Unit tests for the mediator-side executor."""

import pytest

from repro.algebra.builders import PlanBuilder, count_star, scan
from repro.algebra.expressions import And, AttributeRef, Comparison, attr, eq, lit
from repro.algebra.logical import BindJoin, PlanNode, Scan
from repro.errors import PlanError
from repro.mediator.backend import MEDIATOR_PROFILE, SimBackend
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.mediator import Mediator
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.base import StorageWrapper
from tests.spy_clock import SpyClock, build_pin_engine


@pytest.fixture
def executor(federation):
    return federation.executor


class TestSubmitDispatch:
    def test_submit_returns_wrapper_rows(self, federation):
        plan = scan("Suppliers").where_eq("city", "city0").submit_to("sales").build()
        result = federation.executor.execute(plan)
        assert result.count == 10
        assert all(r["city"] == "city0" for r in result.rows)

    def test_submit_log_records_each_dispatch(self, federation):
        plan = (
            scan("Orders")
            .submit_to("sales")
            .join(scan("Suppliers").submit_to("sales"), "supplier", "sid")
            .build()
        )
        result = federation.executor.execute(plan)
        assert len(result.submit_log) == 2
        wrappers = {node.wrapper for node, _res in result.submit_log}
        assert wrappers == {"sales"}

    def test_mediator_clock_includes_wrapper_time(self, federation):
        plan = scan("AtomicParts").submit_to("oo7").build()
        result = federation.executor.execute(plan)
        wrapper_time = result.submit_log[0][1].total_time_ms
        # Mediator total = wrapper time + 2 messages + transfer.
        assert result.total_time_ms > wrapper_time
        assert result.total_time_ms >= wrapper_time + 2 * MEDIATOR_PROFILE.net_ms_per_message

    def test_payload_uses_catalog_object_size(self, federation):
        plan = scan("AtomicParts").submit_to("oo7").build()
        start_bytes = federation.executor.clock.stats.bytes_shipped
        result = federation.executor.execute(plan)
        shipped = federation.executor.clock.stats.bytes_shipped - start_bytes
        assert shipped == result.count * 56  # AtomicParts object size

    def test_bare_scan_rejected(self, federation):
        with pytest.raises(PlanError, match="without a submit"):
            federation.executor.execute(Scan("Suppliers"))


class TestMediatorOperators:
    def test_select_above_submit(self, federation):
        plan = (
            scan("Suppliers").submit_to("sales").where_eq("city", "city1").build()
        )
        result = federation.executor.execute(plan)
        assert result.count == 10

    def test_project_and_sort(self, federation):
        plan = (
            scan("Suppliers")
            .submit_to("sales")
            .keep("sid")
            .order_by("sid", descending=True)
            .build()
        )
        result = federation.executor.execute(plan)
        sids = [r["sid"] for r in result.rows]
        assert sids == sorted(sids, reverse=True)
        assert all(set(r) == {"sid"} for r in result.rows)

    def test_distinct(self, federation):
        plan = (
            scan("Suppliers").submit_to("sales").keep("city").distinct().build()
        )
        result = federation.executor.execute(plan)
        assert result.count == 5

    def test_aggregate(self, federation):
        plan = (
            scan("Suppliers")
            .submit_to("sales")
            .aggregate(["city"], [count_star("n")])
            .build()
        )
        result = federation.executor.execute(plan)
        assert sorted(r["n"] for r in result.rows) == [10] * 5

    def test_union(self, federation):
        plan = (
            scan("Suppliers")
            .submit_to("sales")
            .union(scan("Suppliers").submit_to("sales"))
            .build()
        )
        result = federation.executor.execute(plan)
        assert result.count == 100

    def test_cross_wrapper_join(self, federation):
        plan = (
            scan("AtomicParts")
            .where_eq("Id", 3)
            .submit_to("oo7")
            .join(
                scan("Suppliers").submit_to("sales"),
                "type",
                "partType",
            )
            .build()
        )
        result = federation.executor.execute(plan)
        assert result.count == 5  # one part type matches 5 suppliers
        assert all("sid" in r and "Id" in r for r in result.rows)

    def test_time_first_before_total(self, federation):
        plan = scan("Suppliers").submit_to("sales").build()
        result = federation.executor.execute(plan)
        assert 0 < result.time_first_ms <= result.total_time_ms


def spied_mediator(engine: StorageEngine) -> tuple[Mediator, SpyClock]:
    """A mediator over one wrapper ``src``, its own clock a spy."""
    backend = SimBackend()
    backend.clock = clock = SpyClock(MEDIATOR_PROFILE)
    mediator = Mediator(executor_options=ExecutorOptions(backend=backend))
    mediator.register(StorageWrapper("src", engine))
    return mediator, clock


def submitted(collection: str) -> PlanBuilder:
    return scan(collection).submit_to("src")


#: One plan per composition operator over the five-employee source of
#: ``tests/spy_clock.py`` and every charge on the *mediator's* clock, in
#: order — captured before the row-operator kernel existed.  Each submit
#: charges request message, wrapper response time, response message;
#: every operator step over a row then charges 0.02 ms.
PINNED_PLANS = {
    "select": submitted("emp").where_eq("salary", 200),
    "project": submitted("emp").keep("id"),
    "sort": submitted("emp").order_by("salary"),
    "distinct": submitted("emp").keep("dept").distinct(),
    "aggregate": submitted("emp").aggregate(["dept"], [count_star("n")]),
    "join": submitted("emp").join(submitted("dept"), "dept", "dept_id"),
    "bind-join": PlanBuilder(
        BindJoin(
            outer=submitted("emp").build(),
            outer_attribute=attr("dept", "emp"),
            inner_collection="dept",
            inner_attribute=attr("dept_id", "dept"),
            wrapper="src",
        )
    ),
    "union": submitted("dept").union(submitted("dept").where_eq("dept_id", 1)),
}
PINNED_CHARGES = {
    "select": [
        150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02, 0.02,
    ],
    "project": [
        150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02, 0.02,
    ],
    "sort": [
        150.0, 25.0, 150.6, 0.1,
    ],
    "distinct": [
        150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02,
    ],
    "aggregate": [
        150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02, 0.02,
    ],
    "join": [
        150.0, 12.0, 150.16, 0.02, 0.02, 150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02,
        0.02,
    ],
    "bind-join": [
        150.0, 25.0, 150.6, 0.02, 0.02, 0.02, 0.02, 0.02, 150.0, 13.0, 150.16, 0.02,
        0.02, 0.02, 0.02, 0.02,
    ],
    "union": [
        150.0, 12.0, 150.16, 150.0, 12.0, 150.16, 0.02, 0.02,
    ],
}


class TestChargeSequencePins:
    @pytest.mark.parametrize("operator", PINNED_PLANS)
    def test_every_charge_in_order(self, operator):
        mediator, clock = spied_mediator(build_pin_engine())
        mediator.executor.execute(PINNED_PLANS[operator].build())
        assert clock.take() == PINNED_CHARGES[operator]

    def test_time_first_is_read_when_the_kth_row_passes(self):
        """Select over a submit whose first passing row is the 3rd of 5:
        ``TimeFirst`` = request + wrapper + response + 3 operator steps,
        not 5 — the charge of a streaming operator cannot be batched."""
        mediator, clock = spied_mediator(build_pin_engine())
        result = mediator.executor.execute(PINNED_PLANS["select"].build())
        charges = clock.take()
        assert [row["id"] for row in result.rows] == [2]
        assert len(charges) == 3 + 5

        def elapsed(count: int) -> float:
            now = 0.0
            for charge in charges[:count]:
                now += charge
            return now

        assert result.time_first_ms == elapsed(3 + 3)
        assert result.total_time_ms == elapsed(3 + 5)
        assert result.time_first_ms < result.total_time_ms


class TestPerNodeWorkIsBoundOnce:
    def test_plan_walks_and_attribute_refs_do_not_scale_with_rows(self, monkeypatch):
        """join → project → sort: everything that depends only on the
        node (collision labels, attribute getters) is resolved once per
        execution, so the plan walks and ``AttributeRef`` constructions
        of ``execute()`` are the same at 10 and at 1 000 input rows."""
        counts = {"walk": 0, "ref": 0}
        walk, init = PlanNode.walk, AttributeRef.__init__

        def counted_walk(node):
            counts["walk"] += 1
            return walk(node)

        def counted_init(ref, *args, **kwargs):
            counts["ref"] += 1
            init(ref, *args, **kwargs)

        def work_at(rows: int) -> dict[str, int]:
            engine = StorageEngine(SimClock(CostProfile()))
            engine.create_collection(
                "emp", [{"id": i, "dept": i % 2} for i in range(rows)], object_size=40
            )
            engine.create_collection(
                "dept", [{"dept_id": d, "dname": f"d{d}"} for d in range(2)], object_size=40
            )
            mediator, _clock = spied_mediator(engine)
            plan = (
                submitted("emp")
                .join(submitted("dept"), "dept", "dept_id")
                .keep("id", "dname")
                .order_by("id")
                .build()
            )
            counts.update(walk=0, ref=0)
            with monkeypatch.context() as patch:
                patch.setattr(PlanNode, "walk", counted_walk)
                patch.setattr(AttributeRef, "__init__", counted_init)
                assert mediator.executor.execute(plan).count == rows
            return dict(counts)

        assert work_at(10) == work_at(1000)

    def test_a_select_never_walks_its_predicate_tree_per_row(self, monkeypatch):
        """The predicate is compiled once by ``rowops.test``: executing a
        select calls ``Comparison.evaluate`` zero times, at any size."""
        calls = []
        evaluate = Comparison.evaluate
        monkeypatch.setattr(
            Comparison, "evaluate", lambda self, row: calls.append(row) or evaluate(self, row)
        )
        predicate = And(Comparison("<", attr("id"), lit(7)), eq(attr("dept", "emp"), 1))
        for rows in (10, 1000):
            engine = StorageEngine(SimClock(CostProfile()))
            engine.create_collection(
                "emp", [{"id": i, "dept": i % 2} for i in range(rows)], object_size=40
            )
            mediator, _clock = spied_mediator(engine)
            result = mediator.executor.execute(submitted("emp").where(predicate).build())
            assert [row["id"] for row in result.rows] == [1, 3, 5]
        assert calls == []


class TestSubmitIsDispatchedAtTheFirstPull:
    def test_join_dispatches_its_right_input_first(self):
        """``join(submit emp, submit dept)`` builds on its right input
        before it pulls from its left: ``dept`` is dispatched (and
        logged) first, and every charge keeps its place — the ``join``
        literal of ``PINNED_CHARGES``, captured before the kernel."""
        mediator, clock = spied_mediator(build_pin_engine())
        plan = PINNED_PLANS["join"].build()
        stream = mediator.executor._run(plan)
        assert clock.take() == []  # building the pipeline dispatches nothing
        rows = list(stream)
        assert len(rows) == 5
        assert clock.take() == PINNED_CHARGES["join"]
        result = mediator.executor.execute(plan)
        assert [submit.child.collection for submit, _ in result.submit_log] == ["dept", "emp"]
        assert result.rows == rows

    def test_an_unpulled_submit_is_never_dispatched(self):
        mediator, clock = spied_mediator(build_pin_engine())
        mediator.executor._run(submitted("emp").build())
        assert clock.take() == []
        assert mediator.executor._submit_log == []
