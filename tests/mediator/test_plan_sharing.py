"""One ``optimize()`` costs its candidates through one estimator memo.

Sharing subplans across candidates must change nothing but the work: the
plans chosen, their estimates, and how many candidates were considered
and pruned are pinned here to what the code before sharing produced.
"""

import sys
import threading

import pytest

from repro.bench.harness import build_federation
from repro.bench.sharding import build_sharded_federation
from repro.core.history import plan_fingerprint
from repro.mediator.calibration import CoefficientKey
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.oo7 import TINY, load_database
from repro.oo7.workload import build_workload
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers import ObjectStoreWrapper
from repro.wrappers.base import StorageWrapper

UNION = (
    "SELECT oid, qty FROM OrdersEast UNION ALL SELECT oid, qty FROM OrdersWest "
    "UNION ALL SELECT oid, qty FROM OrdersNorth"
)
JOIN = (
    "SELECT * FROM Suppliers, OrdersWest WHERE OrdersWest.supplier = Suppliers.sid "
    "AND Suppliers.city = 'city1'"
)
JOIN3 = (
    "SELECT * FROM Suppliers, OrdersEast, OrdersWest "
    "WHERE OrdersWest.supplier = Suppliers.sid "
    "AND OrdersEast.supplier = Suppliers.sid "
    "AND Suppliers.city = 'city1' AND OrdersEast.oid < 10"
)


def _replicated_federation() -> Mediator:
    """The three-branch federation with a faster copy of the north branch
    registered as its replica, so OrdersNorth plans go through binding."""
    mediator = build_federation(ExecutorOptions(parallel_submits=True))
    rows = mediator.catalog.wrapper("north").unwrap().engine.collection(
        "OrdersNorth"
    ).rows
    engine = StorageEngine(SimClock(CostProfile(io_ms=1.0, cpu_ms_per_object=0.1)))
    engine.create_collection(
        "OrdersNorth", rows, object_size=32, indexed_attributes=["oid"]
    )
    mediator.register_replica(StorageWrapper("north_b", engine), of="north")
    return mediator


@pytest.fixture(scope="module")
def mediators() -> dict[str, Mediator]:
    oo7 = Mediator()
    oo7.register(ObjectStoreWrapper("oo7", load_database(TINY, 7)))
    return {
        "oo7": oo7,
        "federation": build_federation(ExecutorOptions(parallel_submits=True)),
        "sharded": build_sharded_federation(4, 2000),
        "replicated": _replicated_federation(),
    }


def _oo7_statements() -> list[tuple[str, str, str]]:
    return [
        (query.label, "oo7", query.sql)
        for query in build_workload(TINY, 7, lookups=1, rng_seed=3)
    ]


STATEMENTS: list[tuple[str, str, str]] = _oo7_statements() + [
    ("union", "federation", UNION),
    ("join", "federation", JOIN),
    ("join3", "federation", JOIN3),
    ("scan", "federation", "SELECT oid, qty FROM OrdersEast WHERE qty > 60"),
    ("point", "federation", "SELECT oid, qty FROM OrdersWest WHERE oid = 231"),
    ("shard_point", "sharded", "SELECT * FROM Orders WHERE oid = 48"),
    ("shard_range", "sharded", "SELECT * FROM Orders WHERE oid < 100"),
    ("shard_scan", "sharded", "SELECT * FROM Orders WHERE qty > 66"),
    ("replica_scan", "replicated", "SELECT oid, qty FROM OrdersNorth WHERE qty > 60"),
    ("replica_union", "replicated", UNION),
]

#: label -> (candidates considered, candidates pruned), captured at the
#: commit before subplans were shared (PR 13).
CANDIDATES = {
    "Q1.0": (2, 0),
    "Q2": (2, 0),
    "Q3": (2, 0),
    "Q7": (3, 1),
    "Q4": (7, 3),
    "Q5": (8, 4),
    "Q8": (6, 0),
    "union": (10, 3),
    "join": (6, 1),
    "join3": (15, 5),
    "scan": (3, 1),
    "point": (3, 1),
    "shard_point": (2, 0),
    "shard_range": (2, 0),
    "shard_scan": (2, 0),
    "replica_scan": (3, 1),
    "replica_union": (10, 3),
}


def _untagged(provenance: str) -> str:
    return provenance.split(" | replica ")[0]


@pytest.mark.parametrize(
    "label, target, sql", STATEMENTS, ids=[label for label, _, _ in STATEMENTS]
)
def test_shared_estimate_is_the_standalone_estimate(mediators, label, target, sql):
    mediator = mediators[target]
    optimized = mediator.plan(sql)
    shared = optimized.estimate
    alone = mediator.estimator.estimate(optimized.plan)

    assert shared.total_time == alone.total_time
    # No node of a losing candidate; every node the plan alone would cost.
    in_plan = {node.node_id for node in optimized.plan.walk()}
    assert set(alone.nodes) <= set(shared.nodes) <= in_plan
    for node_id, expected in alone.nodes.items():
        got = shared.nodes[node_id]
        for variable, value in expected.values.items():
            # (extra variables another candidate demanded are allowed)
            assert got.values[variable] == value, (label, got.node, variable)
            assert _untagged(got.provenance[variable]) == expected.provenance[variable]

    stats = optimized.stats
    assert (stats.candidates_considered, stats.candidates_pruned) == CANDIDATES[label]


def test_join3_keeps_the_plan_a_losing_formulas_child_read_decides(mediators):
    # The prune trap.  Under select(OrdersEast.oid < 10) the TotalTime race
    # is won by generic-select-index (158 ms); the losing generic-select-seq
    # formula reads scan(OrdersEast).TotalTime = 6 100 ms on the way.  §4.3.2
    # fires on any TotalTime computed while a candidate is costed, so that
    # child read trips the 992.8 ms bound of the pushed submit[east](join)
    # and prunes the bind-join candidate (876 ms) that would otherwise win.
    # A memo that skipped the select's subtree without replaying the check
    # chose bindjoin here: 4 pruned, 8 780.630 ms.  The bound check is not
    # monotone-safe; sharing replays it, it does not fix it (ROADMAP 4b).
    optimized = mediators["federation"].plan(JOIN3)
    assert optimized.stats.candidates_considered == 15
    assert optimized.stats.candidates_pruned == 5
    assert optimized.estimated_total_ms == pytest.approx(8780.255396327213, rel=1e-12)
    assert plan_fingerprint(optimized.plan) == (
        "join(OrdersWest.supplier = Suppliers.sid)("
        "submit[west](scan(OrdersWest)()),"
        "submit[east](join(Suppliers.sid = OrdersEast.supplier)("
        "select(Suppliers.city = 'city1')(scan(Suppliers)()),"
        "select(OrdersEast.oid < 10)(scan(OrdersEast)()))))"
    )


def test_two_threads_plan_like_one(mediators):
    mediator = mediators["federation"]
    statements = [sql for _, target, sql in STATEMENTS if target == "federation"]
    specs = [mediator.parse(sql) for sql in statements]

    def snapshot(optimized):
        return (
            plan_fingerprint(optimized.plan),
            optimized.estimate.to_dict(),
            optimized.stats.candidates_considered,
            optimized.stats.candidates_pruned,
        )

    serial = [snapshot(mediator.plan(spec)) for spec in specs]
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            got = []
            for round_ in range(12):
                for index in range(len(specs)):
                    # The two threads walk the statements out of phase, so
                    # at any moment they plan different statements.
                    position = (index + offset + round_) % len(specs)
                    got.append((position, snapshot(mediator.plan(specs[position]))))
            results[offset] = got
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in (0, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for offset in (0, 2):
        for position, got in results[offset]:
            assert got == serial[position]


class TestNothingToInvalidate:
    """What the deleted ``invalidate_cache()`` protocol guarded: whatever
    changes the cost model between two plans shows in the second."""

    SQL = "SELECT oid, qty FROM OrdersEast WHERE qty > 60"

    def test_history_recorded_rule_prices_the_next_plan(self):
        mediator = Mediator(record_history=True)
        source = build_federation().catalog
        for name in source.wrapper_names():
            mediator.register(source.wrapper(name))
        before = mediator.plan(self.SQL)
        result = mediator.query(self.SQL)  # records a query-scope rule (§4.3.1)
        after = mediator.plan(self.SQL)
        submit = next(n for n in after.plan.walk() if n.operator_name == "submit")
        provenance = after.estimate.nodes[submit.child.node_id].provenance
        assert provenance["TotalTime"].startswith("query[east]: history[")
        assert after.estimated_total_ms != before.estimated_total_ms
        assert result.count == after.estimate.nodes[submit.child.node_id].count_object

    def test_calibration_overlay_prices_the_next_plan_and_rolls_back(self):
        mediator = build_federation()
        seed = mediator.plan(self.SQL).estimated_total_ms
        mediator.apply_calibration({CoefficientKey("east", "TotalTime"): 3.0})
        calibrated = mediator.plan(self.SQL)
        assert calibrated.estimated_total_ms > seed
        assert "calibrated x3" in calibrated.estimate.explain()
        mediator.rollback_calibration(0)
        assert mediator.plan(self.SQL).estimated_total_ms == seed
