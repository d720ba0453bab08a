"""Regression: §4.3.2 pruning leaves the same counter trail with and
without a shared estimator memo.

The seed raised :class:`PlanPruned` on the memo-hit path *before*
incrementing ``variables_computed``, so a warm memo reported one fewer
variable than the identical cold run — OptimizerStats undercounted
pruned work exactly when sharing made pruning cheap.
"""

from repro.algebra.builders import scan
from repro.core.estimator import CostEstimator
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.statistics import (
    AttributeStats,
    CollectionStats,
    StatisticsCatalog,
)


def make_estimator() -> CostEstimator:
    catalog = StatisticsCatalog()
    catalog.put(
        CollectionStats.from_extent(
            "R",
            1000,
            100,
            attributes=[AttributeStats("a", indexed=True, count_distinct=1000)],
        )
    )
    return CostEstimator(
        standard_repository(), catalog, coefficients=CoefficientSet()
    )


def make_plan():
    return scan("R").where_eq("a", 5).submit_to("w").build()


class TestPrunedCounters:
    def test_cold_cache_agrees_with_uncached(self):
        # An empty memo computes exactly what no memo does.
        shared = make_estimator()
        alone = make_estimator()
        pruned_shared = shared.estimate(make_plan(), bound_ms=1.0, memo={})
        pruned_alone = alone.estimate(make_plan(), bound_ms=1.0)
        assert pruned_shared.pruned and pruned_alone.pruned
        assert shared.last_counters.variables_computed > 0
        assert (
            shared.last_counters.variables_computed
            == alone.last_counters.variables_computed
        )

    def test_warm_cache_hit_counts_the_tripping_variable(self):
        estimator = make_estimator()
        plan = make_plan()
        memo = {}
        estimator.estimate(plan, memo=memo)  # warm the memo
        pruned = estimator.estimate(plan, bound_ms=1.0, memo=memo)
        assert pruned.pruned
        # The memoised TotalTime that tripped the bound is one computed
        # variable — the seed reported zero here.
        assert estimator.last_counters.variables_computed == 1
        assert estimator.last_counters.formulas_evaluated == 0

    def test_unpruned_estimates_agree_too(self):
        shared = make_estimator()
        alone = make_estimator()
        first = shared.estimate(make_plan(), memo={})
        second = alone.estimate(make_plan())
        assert first.total_time == second.total_time
        assert (
            shared.last_counters.variables_computed
            == alone.last_counters.variables_computed
        )
