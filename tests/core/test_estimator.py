"""Tests for the two-phase cost evaluation algorithm (§4.2, Figure 11)."""

import math

import pytest

from repro.algebra.builders import scan
from repro.algebra.expressions import eq
from repro.core.estimator import (
    ConflictPolicy,
    CostEstimator,
    EstimatorOptions,
    SourceEnvironment,
)
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.rules import (
    rule,
    scan_pattern,
    select_eq_pattern,
    select_pattern,
    var,
)
from repro.core.scopes import RuleRepository
from repro.core.statistics import (
    STANDARD_COUNT_OBJECT,
    AttributeStats,
    CollectionStats,
    StatisticsCatalog,
)
from repro.errors import FormulaError, NoApplicableRuleError


@pytest.fixture
def catalog():
    cat = StatisticsCatalog()
    cat.put(
        CollectionStats.from_extent(
            "Employee",
            count_object=10000,
            object_size=120,
            attributes=[
                AttributeStats(
                    "salary",
                    indexed=True,
                    count_distinct=1000,
                    min_value=1000,
                    max_value=30000,
                ),
                AttributeStats("name", indexed=False, count_distinct=10000),
            ],
        )
    )
    cat.put(
        CollectionStats.from_extent(
            "Book",
            count_object=5000,
            object_size=200,
            attributes=[
                AttributeStats("author_id", indexed=True, count_distinct=2500)
            ],
        )
    )
    return cat


def make_estimator(catalog, repository=None, **opts):
    repository = repository or standard_repository()
    return CostEstimator(
        repository,
        catalog,
        options=EstimatorOptions(**opts),
        coefficients=CoefficientSet(),
    )


class TestGenericEstimates:
    def test_scan_cardinality_from_catalog(self, catalog):
        estimator = make_estimator(catalog)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.root.count_object == 10000.0
        assert result.root.values["TotalSize"] == 10000.0 * 120

    def test_select_reduces_cardinality(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").where_eq("salary", 5).build()
        result = estimator.estimate(plan, default_source="w")
        assert result.root.count_object == pytest.approx(10.0)  # 10000/1000

    def test_index_path_beats_sequential(self, catalog):
        estimator = make_estimator(catalog)
        indexed = scan("Employee").where_eq("salary", 5).build()
        unindexed = scan("Employee").where_eq("name", "Naacke").build()
        t_indexed = estimator.estimate(indexed, default_source="w").total_time
        t_unindexed = estimator.estimate(unindexed, default_source="w").total_time
        assert t_indexed < t_unindexed

    def test_unknown_collection_uses_standard_values(self, catalog):
        estimator = make_estimator(catalog)
        result = estimator.estimate(scan("Mystery").build(), default_source="w")
        assert result.root.count_object == STANDARD_COUNT_OBJECT

    def test_join_cardinality(self, catalog):
        estimator = make_estimator(catalog)
        plan = (
            scan("Employee")
            .join(scan("Book"), "id", "author_id", "Employee", "Book")
            .build()
        )
        result = estimator.estimate(plan, default_source="w")
        # 10000 * 5000 / max(d_id_fallback=100, d_author=2500)
        assert result.root.count_object == pytest.approx(10000 * 5000 / 2500)

    def test_sort_is_blocking(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").order_by("salary").build()
        result = estimator.estimate(
            plan, default_source="w", variables=("TotalTime", "TimeFirst")
        )
        assert result.root.values["TimeFirst"] == result.root.values["TotalTime"]

    def test_time_next_consistency(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").build()
        result = estimator.estimate(
            plan,
            default_source="w",
            variables=("TotalTime", "TimeFirst", "TimeNext", "CountObject"),
        )
        values = result.root.values
        reconstructed = values["TimeFirst"] + values["TimeNext"] * values["CountObject"]
        assert reconstructed == pytest.approx(values["TotalTime"], rel=1e-6)

    def test_submit_adds_communication_cost(self, catalog):
        estimator = make_estimator(catalog)
        bare = scan("Employee").where_eq("salary", 5).build()
        shipped = scan("Employee").where_eq("salary", 5).submit_to("w").build()
        t_bare = estimator.estimate(bare, default_source="w").total_time
        t_shipped = estimator.estimate(shipped).total_time
        assert t_shipped > t_bare

    def test_aggregate_group_estimate(self, catalog):
        from repro.algebra.builders import count_star

        estimator = make_estimator(catalog)
        plan = scan("Employee").aggregate(group_by=["salary"], aggregates=[count_star()]).build()
        result = estimator.estimate(plan, default_source="w")
        assert result.root.count_object == pytest.approx(1000.0)

    def test_union_adds_cardinalities(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").union(scan("Book")).build()
        result = estimator.estimate(plan, default_source="w")
        assert result.root.count_object == 15000.0


class TestBlending:
    def test_wrapper_rule_overrides_generic(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w", rule(scan_pattern("Employee"), ["TotalTime = 777"], name="special")
        )
        estimator = make_estimator(catalog, repository)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == 777.0
        assert "special" in result.root.provenance["TotalTime"]

    def test_partial_rule_falls_back_for_missing_variables(self, catalog):
        """Figure 8: "for both rules, several formula are missing.  Default
        formulas ... are used in this case"."""
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w", rule(scan_pattern("Employee"), ["TotalTime = 777"])
        )
        estimator = make_estimator(catalog, repository)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == 777.0
        # CountObject still computed by the generic model.
        assert result.root.count_object == 10000.0
        assert "generic" in result.root.provenance["CountObject"]

    def test_figure8_rules_end_to_end(self, catalog):
        """The paper's Figure 8 pair: a scan rule and a select rule whose
        TotalTime builds on the scan's TotalTime."""
        repository = standard_repository()
        repository.add_wrapper_rules(
            "w",
            [
                rule(
                    scan_pattern("Employee"),
                    [
                        "TotalTime = 120 + Employee.TotalSize * 12 "
                        "+ Employee.CountObject / Employee.salary.CountDistinct"
                    ],
                    name="fig8-scan",
                ),
                rule(
                    select_eq_pattern(var("C"), var("A"), var("V")),
                    [
                        "CountObject = C.CountObject * selectivity(A, V)",
                        "TotalSize = CountObject * C.ObjectSize",
                        "TotalTime = C.TotalTime + C.TotalSize * 25",
                    ],
                    name="fig8-select",
                ),
            ],
        )
        estimator = make_estimator(catalog, repository)
        env = SourceEnvironment(name="w")
        env.functions["selectivity"] = lambda a, v: 0.001
        estimator.register_environment(env)

        plan = scan("Employee").where_eq("salary", 10).build()
        result = estimator.estimate(plan, default_source="w")
        scan_node = plan.child
        scan_time = 120 + 1200000 * 12 + 10000 / 1000
        assert result.nodes[scan_node.node_id].total_time == pytest.approx(scan_time)
        assert result.root.count_object == pytest.approx(10.0)
        assert result.root.values["TotalSize"] == pytest.approx(10.0 * 120)
        assert result.total_time == pytest.approx(scan_time + 1200000 * 25)

    def test_wrapper_variable_used_in_formula(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(
                scan_pattern("Employee"),
                ["TotalTime = Employee.TotalSize / PageSize"],
            ),
        )
        estimator = make_estimator(catalog, repository)
        env = SourceEnvironment(name="w", variables={"PageSize": 4000.0})
        estimator.register_environment(env)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == pytest.approx(1200000 / 4000)

    def test_rule_local_variable(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(
                scan_pattern("Employee"),
                ["CountPage = Employee.TotalSize / 4000", "TotalTime = CountPage * 25"],
            ),
        )
        estimator = make_estimator(catalog, repository)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == pytest.approx(300 * 25)

    def test_predicate_scope_only_for_matching_constant(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(
                select_eq_pattern("Employee", "salary", 77),
                ["TotalTime = 1"],
                name="pinned",
            ),
        )
        estimator = make_estimator(catalog, repository)
        pinned = scan("Employee").where_eq("salary", 77).build()
        other = scan("Employee").where_eq("salary", 78).build()
        assert estimator.estimate(pinned, default_source="w").total_time == 1.0
        assert estimator.estimate(other, default_source="w").total_time > 1.0


class TestConflictResolution:
    def make_repo(self):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w", rule(scan_pattern(var("C")), ["TotalTime = 50"], name="a")
        )
        repository.add_wrapper_rule(
            "w", rule(scan_pattern(var("C")), ["TotalTime = 20"], name="b")
        )
        return repository

    def test_lowest_value_wins(self, catalog):
        estimator = make_estimator(catalog, self.make_repo())
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == 20.0

    def test_first_match_policy(self, catalog):
        estimator = make_estimator(
            catalog, self.make_repo(), conflict_policy=ConflictPolicy.FIRST
        )
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == 50.0

    def test_multiple_formulas_in_one_rule_take_lowest(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(scan_pattern(var("C")), ["TotalTime = 50", "TotalTime = 30"]),
        )
        estimator = make_estimator(catalog, repository)
        result = estimator.estimate(scan("Employee").build(), default_source="w")
        assert result.total_time == 30.0


class TestPruning:
    def test_bound_aborts_estimation(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").where_eq("name", "x").build()
        full = estimator.estimate(plan, default_source="w")
        pruned = estimator.estimate(plan, default_source="w", bound_ms=1.0)
        assert pruned.pruned
        assert not full.pruned
        assert pruned.total_time > 1.0

    def test_generous_bound_does_not_prune(self, catalog):
        estimator = make_estimator(catalog)
        plan = scan("Employee").build()
        result = estimator.estimate(plan, default_source="w", bound_ms=1e12)
        assert not result.pruned


class TestRequiredVariablePropagation:
    def test_lazy_and_eager_agree(self, catalog):
        plan = (
            scan("Employee")
            .where_eq("salary", 5)
            .keep("salary")
            .submit_to("w")
            .build()
        )
        lazy = make_estimator(catalog, propagate_required=True)
        eager = make_estimator(catalog, propagate_required=False)
        t_lazy = lazy.estimate(plan).total_time
        t_eager = eager.estimate(plan).total_time
        assert t_lazy == pytest.approx(t_eager)

    def test_lazy_computes_fewer_variables(self, catalog):
        plan = scan("Employee").where_eq("salary", 5).submit_to("w").build()
        lazy = make_estimator(catalog, propagate_required=True)
        eager = make_estimator(catalog, propagate_required=False)
        lazy.estimate(plan)
        lazy_count = lazy.last_counters.variables_computed
        eager.estimate(plan)
        eager_count = eager.last_counters.variables_computed
        assert lazy_count < eager_count

    def test_constant_root_formula_cuts_recursion(self, catalog):
        """Step 1 optimization (ii): "In the best case, the root node has
        formulas containing only constants and consequently no recursive
        traversal of the tree is performed"."""
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(
                select_pattern(var("C")),
                ["TotalTime = 42", "CountObject = 7", "TotalSize = 99"],
            ),
        )
        estimator = make_estimator(catalog, repository)
        plan = scan("Employee").where_eq("salary", 5).build()
        result = estimator.estimate(plan, default_source="w")
        assert result.total_time == 42.0
        # The scan node was never visited for computation.
        scan_estimate = result.nodes.get(plan.child.node_id)
        assert scan_estimate is None or not scan_estimate.values


class TestErrors:
    def test_no_rule_at_all(self, catalog):
        estimator = CostEstimator(RuleRepository(), catalog)
        with pytest.raises(NoApplicableRuleError):
            estimator.estimate(scan("Employee").build(), default_source="w")

    def test_cyclic_rule_detected(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w",
            rule(scan_pattern(var("C")), ["TotalTime = TotalTime + 1"]),
        )
        estimator = make_estimator(catalog, repository)
        with pytest.raises(FormulaError, match="cycl"):
            estimator.estimate(scan("Employee").build(), default_source="w")

    def test_counters_populated(self, catalog):
        estimator = make_estimator(catalog)
        estimator.estimate(scan("Employee").build(), default_source="w")
        assert estimator.last_counters.variables_computed > 0
        assert estimator.last_counters.formulas_evaluated > 0


class TestExplain:
    def test_explain_shows_provenance(self, catalog):
        repository = standard_repository()
        repository.add_wrapper_rule(
            "w", rule(scan_pattern("Employee"), ["TotalTime = 777"], name="mine")
        )
        estimator = make_estimator(catalog, repository)
        plan = scan("Employee").submit_to("w").build()
        text = estimator.estimate(plan).explain()
        assert "mine" in text
        assert "submit[w]" in text
        assert "collection" in text  # the scope of the overriding rule
