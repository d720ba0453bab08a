"""Unit tests for the optimizer's enumeration and pushdown behaviour."""

import pytest

from repro.algebra.logical import Project, Scatter, Select, Sort, Submit
from repro.errors import QueryError
from repro.mediator import optimizer as optimizer_module
from repro.mediator.catalog import PartitionScheme, Shard
from repro.mediator.mediator import Mediator
from repro.mediator.optimizer import OptimizerOptions
from repro.mediator.queryspec import QuerySpec
from repro.sources.relationaldb import RelationalDatabase
from repro.wrappers.base import ALL_OPERATIONS, StorageWrapper

NO_SELECT = frozenset({"scan", "project"})
ORDER_ROWS = [
    {"oid": i, "supplier": i % 50, "qty": (i * 7) % 100} for i in range(200)
]


def storage_wrapper(name, tables, capabilities):
    db = RelationalDatabase()
    for table, rows in tables.items():
        db.create_table(table, rows, row_size=32, indexed_columns=["oid"])
    return StorageWrapper(name, db, capabilities=capabilities)


def mediator_over(tables, capabilities):
    mediator = Mediator()
    mediator.register(storage_wrapper("plain", tables, capabilities))
    return mediator


def sharded_orders(first_shard_capabilities):
    """Orders hash-partitioned on ``oid`` over two wrappers; only the
    first shard's capabilities vary."""
    scheme = PartitionScheme(
        collection="Orders",
        shard_key="oid",
        shards=(
            Shard(collection="Orders#0", wrapper="node0"),
            Shard(collection="Orders#1", wrapper="node1"),
        ),
    )
    mediator = Mediator()
    for index, capabilities in enumerate((first_shard_capabilities, ALL_OPERATIONS)):
        rows = [r for r in ORDER_ROWS if scheme.shard_index(r["oid"]) == index]
        mediator.register(
            storage_wrapper(f"node{index}", {f"Orders#{index}": rows}, capabilities)
        )
    mediator.register_partitioned(scheme)
    return mediator


def sorted_rows(rows):
    return sorted(rows, key=lambda row: row["oid"])


@pytest.fixture
def federation_optimizer(federation):
    return federation.optimizer


def spec_for(federation, sql):
    return federation.parse(sql)


class TestAccessPlans:
    def test_filters_pushed_into_capable_wrapper(self, federation):
        spec = spec_for(
            federation, "SELECT * FROM Suppliers WHERE city = 'city0'"
        )
        result = federation.optimizer.optimize(spec)
        submit = next(n for n in result.plan.walk() if isinstance(n, Submit))
        assert any(isinstance(n, Select) for n in submit.child.walk())

    def test_filters_stay_pushed_for_flatfile_select_capability(self, federation):
        # The flat file supports select, so filters go inside the Submit.
        spec = spec_for(federation, "SELECT * FROM AuditLog WHERE severity = 1")
        result = federation.optimizer.optimize(spec)
        submit = next(n for n in result.plan.walk() if isinstance(n, Submit))
        assert any(isinstance(n, Select) for n in submit.child.walk())



class TestWrapperWithoutSelect:
    """A wrapper that cannot select gets its filters applied above the
    Submit; the answer matches that of a select-capable wrapper."""

    SQL = "SELECT * FROM Orders WHERE qty > 60"

    def test_unsharded_filter_sits_above_the_submit(self):
        plain = mediator_over({"Orders": ORDER_ROWS}, NO_SELECT)
        result = plain.plan(self.SQL)
        assert isinstance(result.plan, Select)
        submit = next(n for n in result.plan.walk() if isinstance(n, Submit))
        assert not any(isinstance(n, Select) for n in submit.child.walk())
        capable = mediator_over({"Orders": ORDER_ROWS}, ALL_OPERATIONS)
        expected = sorted_rows(capable.query(self.SQL).rows)
        assert expected
        assert sorted_rows(plain.query(self.SQL).rows) == expected

    def test_scatter_refilters_when_one_shard_cannot_select(self):
        mixed = sharded_orders(NO_SELECT)
        result = mixed.plan(self.SQL)
        assert isinstance(result.plan, Select)
        scatter = next(n for n in result.plan.walk() if isinstance(n, Scatter))
        pushed = [
            any(isinstance(n, Select) for n in branch.child.walk())
            for branch in scatter.branches
        ]
        assert pushed == [False, True]
        expected = sorted_rows(sharded_orders(ALL_OPERATIONS).query(self.SQL).rows)
        assert expected
        assert sorted_rows(mixed.query(self.SQL).rows) == expected


class TestJoinEnumeration:
    def test_every_collection_gets_one_submit_or_shares_one(self, federation):
        spec = spec_for(
            federation,
            "SELECT * FROM Orders, Suppliers "
            "WHERE Orders.supplier = Suppliers.sid",
        )
        result = federation.optimizer.optimize(spec)
        scanned = result.plan.base_collections()
        assert scanned == {"Orders", "Suppliers"}

    def test_greedy_matches_dp_on_connected_chain(self, federation, monkeypatch):
        sql = (
            "SELECT * FROM Orders, Suppliers, AtomicParts "
            "WHERE Orders.supplier = Suppliers.sid "
            "AND Suppliers.partType = AtomicParts.type AND AtomicParts.Id < 20"
        )
        spec = spec_for(federation, sql)
        dp = federation.optimizer.optimize(spec)
        monkeypatch.setattr(optimizer_module, "MAX_EXHAUSTIVE_COLLECTIONS", 1)
        greedy = federation.optimizer.optimize(spec_for(federation, sql))
        # Greedy may differ in cost, never in the answer set; both must be
        # executable plans over all three collections.
        assert greedy.plan.base_collections() == dp.plan.base_collections()
        assert greedy.estimated_total_ms >= dp.estimated_total_ms * 0.999

    def test_disconnected_graph_raises_in_greedy_too(self, federation, monkeypatch):
        monkeypatch.setattr(optimizer_module, "MAX_EXHAUSTIVE_COLLECTIONS", 1)
        spec = QuerySpec(collections=["Orders", "AuditLog"])
        with pytest.raises(QueryError):
            federation.optimizer.optimize(spec)


class TestDecorations:
    def test_projection_applied(self, federation):
        spec = spec_for(federation, "SELECT sid FROM Suppliers")
        result = federation.optimizer.optimize(spec)
        assert any(isinstance(n, Project) for n in result.plan.walk())

    def test_order_by_applied(self, federation):
        spec = spec_for(federation, "SELECT * FROM Suppliers ORDER BY sid")
        result = federation.optimizer.optimize(spec)
        assert any(isinstance(n, Sort) for n in result.plan.walk())

    def test_single_source_pushdown_candidate_considered(self, federation):
        spec = spec_for(
            federation,
            "SELECT partType, COUNT(*) AS n FROM Suppliers GROUP BY partType",
        )
        result = federation.optimizer.optimize(spec)
        # Two decorated candidates (mediator-side + pushed) were costed.
        assert result.stats.candidates_considered >= 2

    def test_flatfile_cannot_take_aggregate_pushdown(self, federation):
        spec = spec_for(
            federation,
            "SELECT severity, COUNT(*) AS n FROM AuditLog GROUP BY severity",
        )
        result = federation.optimizer.optimize(spec)
        # The aggregate must sit above the Submit (files can't aggregate).
        submit = next(n for n in result.plan.walk() if isinstance(n, Submit))
        assert all(
            n.operator_name != "aggregate" for n in submit.child.walk()
        )


class TestPruning:
    def test_pruning_reduces_or_equals_work(self, federation):
        sql = (
            "SELECT * FROM Orders, Suppliers, AtomicParts "
            "WHERE Orders.supplier = Suppliers.sid "
            "AND Suppliers.partType = AtomicParts.type AND AtomicParts.Id < 20"
        )
        federation.optimizer.options = OptimizerOptions(use_pruning=True)
        pruned = federation.optimizer.optimize(spec_for(federation, sql))
        federation.optimizer.options = OptimizerOptions(use_pruning=False)
        unpruned = federation.optimizer.optimize(spec_for(federation, sql))
        assert pruned.stats.formulas_evaluated <= unpruned.stats.formulas_evaluated
        # Same winning plan cost either way.
        assert pruned.estimated_total_ms == pytest.approx(
            unpruned.estimated_total_ms
        )

    def test_stats_counters_populated(self, federation):
        spec = spec_for(federation, "SELECT * FROM Suppliers")
        result = federation.optimizer.optimize(spec)
        assert result.stats.candidates_considered >= 1
        assert result.stats.formulas_evaluated > 0
