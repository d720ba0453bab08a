"""Tests for historical costs (§4.3.1): query-scope recording.  Parameter
adjustment is the calibration overlay (``tests/mediator/test_calibration.py``)."""

import pytest

from repro.algebra.builders import scan
from repro.core.estimator import CostEstimator
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.history import HistoryStore, plan_fingerprint
from repro.core.statistics import AttributeStats, CollectionStats, StatisticsCatalog
from repro.wrappers.base import ExecutionResult


def make_catalog():
    catalog = StatisticsCatalog()
    catalog.put(
        CollectionStats.from_extent(
            "E",
            1000,
            100,
            attributes=[AttributeStats("a", indexed=True, count_distinct=100)],
        )
    )
    return catalog


def result(total=500.0, first=10.0, rows=5):
    return ExecutionResult(
        rows=[{"a": i} for i in range(rows)],
        total_time_ms=total,
        time_first_ms=first,
    )


class TestPlanFingerprint:
    def test_identical_plans_same_fingerprint(self):
        p1 = scan("E").where_eq("a", 1).build()
        p2 = scan("E").where_eq("a", 1).build()
        assert plan_fingerprint(p1) == plan_fingerprint(p2)

    def test_different_constant_different_fingerprint(self):
        p1 = scan("E").where_eq("a", 1).build()
        p2 = scan("E").where_eq("a", 2).build()
        assert plan_fingerprint(p1) != plan_fingerprint(p2)

    def test_structure_matters(self):
        p1 = scan("E").where_eq("a", 1).keep("a").build()
        p2 = scan("E").where_eq("a", 1).build()
        assert plan_fingerprint(p1) != plan_fingerprint(p2)


class TestHistoryStore:
    def make(self):
        repository = standard_repository()
        catalog = make_catalog()
        estimator = CostEstimator(repository, catalog, coefficients=CoefficientSet())
        return HistoryStore(repository), estimator

    def test_recorded_subquery_estimated_exactly(self):
        history, estimator = self.make()
        subplan = scan("E").where_eq("a", 1).build()
        history.record(subplan, "w", result(total=432.0, rows=7))
        estimate = estimator.estimate(subplan, default_source="w")
        assert estimate.total_time == 432.0
        assert estimate.root.count_object == 7.0
        assert "history" in estimate.root.provenance["TotalTime"]

    def test_different_constant_not_covered(self):
        """Query-scope rules are restricted to one specific subquery —
        the limitation the paper points out."""
        history, estimator = self.make()
        history.record(scan("E").where_eq("a", 1).build(), "w", result(432.0))
        other = scan("E").where_eq("a", 2).build()
        estimate = estimator.estimate(other, default_source="w")
        assert estimate.total_time != 432.0

    def test_reexecution_updates_in_place(self):
        history, estimator = self.make()
        subplan = scan("E").where_eq("a", 1).build()
        history.record(subplan, "w", result(total=432.0))
        history.record(subplan, "w", result(total=500.0))
        assert len(history) == 1
        estimate = estimator.estimate(subplan, default_source="w")
        assert estimate.total_time == 500.0

    def test_per_source_isolation(self):
        history, estimator = self.make()
        subplan = scan("E").where_eq("a", 1).build()
        history.record(subplan, "other", result(total=111.0))
        estimate = estimator.estimate(subplan, default_source="w")
        assert estimate.total_time != 111.0

    def test_history_beats_wrapper_rules(self):
        from repro.core.rules import rule, select_pattern, var

        repository = standard_repository()
        repository.add_wrapper_rule(
            "w", rule(select_pattern(var("C")), ["TotalTime = 9999"])
        )
        history = HistoryStore(repository)
        estimator = CostEstimator(
            repository, make_catalog(), coefficients=CoefficientSet()
        )
        subplan = scan("E").where_eq("a", 1).build()
        history.record(subplan, "w", result(total=123.0))
        estimate = estimator.estimate(subplan, default_source="w")
        assert estimate.total_time == 123.0


class TestMediatorHistoryIntegration:
    def test_query_records_history(self):
        from tests.federation_fixtures import build_oo7_wrapper
        from repro.mediator.mediator import Mediator

        mediator = Mediator(record_history=True)
        mediator.register(build_oo7_wrapper())
        sql = "SELECT * FROM AtomicParts WHERE Id = 7"
        first = mediator.query(sql)
        second = mediator.plan(sql)
        # After one execution the estimate equals the measured wrapper time
        # plus communication — i.e., very close to reality.
        assert second.estimated_total_ms == pytest.approx(
            first.elapsed_ms, rel=0.05
        )

    def test_history_disabled_by_default(self):
        from tests.federation_fixtures import build_oo7_wrapper
        from repro.mediator.mediator import Mediator

        mediator = Mediator()
        assert mediator.history is None
        mediator.register(build_oo7_wrapper())
        mediator.query("SELECT * FROM AtomicParts WHERE Id = 7")
        # No query-scope rules were added.
        assert all(
            scoped.scope.name != "QUERY"
            for scoped in mediator.repository.rules_for_source("oo7")
        )
