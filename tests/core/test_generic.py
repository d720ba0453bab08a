"""Unit tests for the generic cost model's individual rules (§2.3)."""

import pytest

from repro.algebra.builders import count_star, scan
from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import BindJoin, Join, Scan, Scatter, Select, Submit
from repro.core.estimator import CostEstimator, _Estimation, _NodeContext
from repro.core.generic import (
    CoefficientSet,
    GenericCoefficients,
    MEDIATOR_COEFFICIENTS,
    all_generic_rules,
    install_generic_model,
    standard_repository,
)
from repro.core.scopes import MEDIATOR_SOURCE, RuleRepository, Scope
from repro.core.statistics import AttributeStats, CollectionStats, StatisticsCatalog
from repro.mediator.executor import ExecutorOptions


def make_catalog():
    cat = StatisticsCatalog()
    cat.put(
        CollectionStats.from_extent(
            "R",
            1000,
            100,
            attributes=[
                AttributeStats("a", indexed=True, count_distinct=100,
                               min_value=0, max_value=999),
                AttributeStats("b", indexed=False, count_distinct=10),
            ],
        )
    )
    cat.put(
        CollectionStats.from_extent(
            "S",
            500,
            80,
            attributes=[
                AttributeStats("a", indexed=True, count_distinct=500),
            ],
        )
    )
    cat.put(
        CollectionStats.from_extent(
            "T", 40, 60, attributes=[AttributeStats("c", count_distinct=20)]
        )
    )
    return cat


@pytest.fixture
def catalog():
    return make_catalog()


@pytest.fixture
def estimator(catalog):
    return CostEstimator(
        standard_repository(), catalog, coefficients=CoefficientSet()
    )


def total(estimator, plan, source="w"):
    return estimator.estimate(plan, default_source=source).total_time


class TestScanRule:
    def test_cost_linear_in_cardinality(self, estimator):
        coefficients = GenericCoefficients()
        expected = (
            coefficients.ms_scan_startup
            + 1000 * coefficients.ms_per_object_scanned
        )
        assert total(estimator, Scan("R")) == pytest.approx(expected)


class TestSelectRules:
    def test_equality_cardinality(self, estimator):
        plan = scan("R").where_eq("a", 5).build()
        estimate = estimator.estimate(plan, default_source="w")
        assert estimate.root.count_object == pytest.approx(10.0)  # 1000/100

    def test_range_cardinality_interpolates(self, estimator):
        plan = Select(Scan("R"), Comparison("<=", attr("a"), lit(499)))
        estimate = estimator.estimate(plan, default_source="w")
        assert estimate.root.count_object == pytest.approx(500, rel=0.01)

    def test_index_path_formula(self, estimator):
        coefficients = GenericCoefficients()
        plan = scan("R").where_eq("a", 5).build()
        expected = coefficients.ms_index_startup + 10 * coefficients.ms_per_object_index
        assert total(estimator, plan) == pytest.approx(expected)

    def test_unindexed_uses_sequential(self, estimator):
        coefficients = GenericCoefficients()
        plan = scan("R").where_eq("b", 5).build()
        scan_cost = (
            coefficients.ms_scan_startup + 1000 * coefficients.ms_per_object_scanned
        )
        expected = scan_cost + 1000 * coefficients.ms_per_object_filter
        assert total(estimator, plan) == pytest.approx(expected)

    def test_select_not_on_scan_never_uses_index(self, estimator):
        # select over project over scan: not an access-path shape.
        plan = scan("R").keep("a").where_eq("a", 5).build()
        coefficients = GenericCoefficients()
        cost = total(estimator, plan)
        index_cost = (
            coefficients.ms_index_startup + 10 * coefficients.ms_per_object_index
        )
        assert cost > index_cost


class TestJoinRules:
    def make_join(self, right_indexed=True):
        right = Scan("S") if right_indexed else Scan("R")
        return Join(
            Scan("R"),
            right,
            Comparison("=", attr("a", "R"), attr("a", "S" if right_indexed else "R")),
        )

    def test_cardinality_uses_max_distinct(self, estimator):
        plan = scan("R").join(scan("S"), "a", "a", "R", "S").build()
        estimate = estimator.estimate(plan, default_source="w")
        assert estimate.root.count_object == pytest.approx(1000 * 500 / 500)

    def test_index_join_beats_nested_loop_when_indexed(self, estimator):
        plan = scan("R").join(scan("S"), "a", "a", "R", "S").build()
        estimate = estimator.estimate(plan, default_source="w")
        assert "join-index" in estimate.root.provenance["TotalTime"]

    def test_method_choice_is_lowest_value(self, catalog):
        """Force nested-loop to win by making inputs tiny."""
        catalog.put(CollectionStats.from_extent("T1", 2, 8))
        catalog.put(CollectionStats.from_extent("T2", 2, 8))
        estimator = CostEstimator(
            standard_repository(), catalog, coefficients=CoefficientSet()
        )
        plan = scan("T1").join(scan("T2"), "x", "y", "T1", "T2").build()
        estimate = estimator.estimate(plan, default_source="w")
        # 2x2 nested loop is cheaper than sorting both sides.
        assert "nested-loop" in estimate.root.provenance["TotalTime"]


class TestOtherRules:
    def test_aggregate_without_groups_yields_one_row(self, estimator):
        plan = scan("R").aggregate([], [count_star()]).build()
        estimate = estimator.estimate(plan, default_source="w")
        assert estimate.root.count_object == 1.0

    def test_aggregate_groups_capped_by_input(self, estimator):
        plan = scan("R").aggregate(["a", "b"], [count_star()]).build()
        estimate = estimator.estimate(plan, default_source="w")
        assert estimate.root.count_object <= 1000.0

    def test_project_shrinks_size(self, estimator):
        base = estimator.estimate(Scan("R"), default_source="w")
        plan = scan("R").keep("a").build()
        projected = estimator.estimate(plan, default_source="w")
        assert projected.root.values["TotalSize"] < base.root.values["TotalSize"]

    def test_submit_uses_mediator_coefficients(self, estimator):
        plan = scan("R").submit_to("w").build()
        estimate = estimator.estimate(plan)
        inner = estimate.nodes[plan.child.node_id]
        expected = (
            inner.total_time
            + 2 * MEDIATOR_COEFFICIENTS.ms_per_message
            + float(inner.values["TotalSize"]) * MEDIATOR_COEFFICIENTS.ms_per_byte
        )
        assert estimate.total_time == pytest.approx(expected)

    def test_distinct_is_blocking(self, estimator):
        plan = scan("R").distinct().build()
        estimate = estimator.estimate(
            plan, default_source="w", variables=("TotalTime", "TimeFirst")
        )
        assert estimate.root.values["TimeFirst"] == estimate.root.values["TotalTime"]


class TestInstallers:
    def test_generic_rules_cover_all_operators(self):
        operators = {r.head.operator for r in all_generic_rules()}
        assert operators == {
            "scan",
            "select",
            "project",
            "sort",
            "distinct",
            "aggregate",
            "join",
            "bindjoin",
            "union",
            "submit",
            "scatter",
        }

    def test_install_counts_match(self):
        repository = RuleRepository()
        count = install_generic_model(repository)
        assert len(repository) == count

    def test_every_rule_provides_the_five_variables_somewhere(self):
        """The §4.2 guarantee: at least one default rule provides every
        variable for every operator."""
        from repro.core.formulas import RESULT_VARIABLES

        by_operator: dict[str, set[str]] = {}
        for generic_rule in all_generic_rules():
            by_operator.setdefault(generic_rule.head.operator, set()).update(
                generic_rule.provides
            )
        for operator, provided in by_operator.items():
            assert provided == set(RESULT_VARIABLES), operator

    def test_coefficient_scaling(self):
        base = GenericCoefficients()
        doubled = base.scaled(2.0)
        assert doubled.ms_scan_startup == base.ms_scan_startup * 2
        assert doubled.ms_per_byte == base.ms_per_byte * 2

    def test_coefficient_set_per_source(self):
        coefficients = CoefficientSet()
        special = GenericCoefficients(ms_scan_startup=1.0)
        coefficients.set_source("w", special)
        assert coefficients.for_source("w") is special
        assert coefficients.for_source("other") is coefficients.default
        assert coefficients.for_source(None) is coefficients.mediator
        assert coefficients.sources() == ["w"]


class _RecordingEstimation(_Estimation):
    """An estimation that notes the reads the formula under evaluation
    makes itself (depth 0), not those of the formulas they set off."""

    def __init__(self, estimator, table):
        super().__init__(estimator, table, None)
        self.depth = 0
        self.reads = []

    def value_of(self, node, variable):
        if self.depth == 0:
            self.reads.append((node, variable))
        self.depth += 1
        try:
            return super().value_of(node, variable)
        finally:
            self.depth -= 1


def _sample_plans():
    """(plan, owning source) pairs that between them reach every generic
    formula and both sides of each formula's branches."""

    def submit(collection, wrapper):
        return Submit(Scan(collection), wrapper)

    def join(left, right, left_attr, right_attr):
        return Join(left, right, Comparison("=", left_attr, right_attr))

    def bindjoin(inner_attribute):
        return BindJoin(
            submit("T", "w2"),
            attr("c", "T"),
            "R",
            attr(inner_attribute, "R"),
            wrapper="w1",
            batch_size=4,
        )

    branches = [
        Submit(Scan("R"), f"shard{i}", shard=i, shard_of="R") for i in range(2)
    ]
    return [
        (scan("R").where_eq("a", 5).build(), "w"),  # index path applies
        (scan("R").where_eq("b", 5).keep("a").build(), "w"),  # and does not
        (scan("R").order_by("a").distinct().build(), "w"),
        (scan("R").aggregate(["a", "b"], [count_star()]).build(), "w"),
        (scan("R").aggregate([], [count_star()]).build(), "w"),
        (join(Scan("R"), Scan("S"), attr("a", "R"), attr("a", "S")), "w"),
        (join(Scan("R"), Scan("T"), attr("b", "R"), attr("c", "T")), "w"),
        (scan("R").union(scan("R")).build(), "w"),
        (
            join(submit("R", "w1"), submit("T", "w2"), attr("b", "R"), attr("c", "T")),
            None,
        ),
        (scan("R").submit_to("w1").union(scan("T").submit_to("w2")).build(), None),
        (bindjoin("a"), None),  # indexed inner attribute: probes priced
        (bindjoin("b"), None),  # unindexed: not applicable
        (Scatter(branches, "R", "a", total_shards=3), None),
        (Scatter(branches[:1], "R", "a", total_shards=3), None),
    ]


@pytest.fixture(scope="module")
def observed_reads():
    """rule name -> formula text -> [(own reads, reads of other nodes)],
    over every sample plan under the sequential and the wave execution
    model."""
    observed: dict[str, dict[str, list]] = {}
    for execution in (
        ExecutorOptions(),
        ExecutorOptions(parallel_submits=True, max_concurrency=2),
    ):
        estimator = CostEstimator(standard_repository(), make_catalog())
        estimator.execution = execution
        # Wrapper-owned samples are also costed as the mediator's own
        # (source None), where the local-scope rules apply.
        samples = _sample_plans()
        samples += [(plan, None) for plan, source in _sample_plans() if source]
        for plan, source in samples:
            table = {}
            for entry in CostEstimator._enter(plan, source, table):
                node = entry.node
                for match in estimator.repository.matches(node, entry.source):
                    for formula in match.rule.formulas:
                        estimation = _RecordingEstimation(estimator, table)
                        formula.evaluate(
                            _NodeContext(estimation, node, entry.source, match)
                        )
                        own = {v for n, v in estimation.reads if n is node}
                        other = {v for n, v in estimation.reads if n is not node}
                        observed.setdefault(match.rule.name, {}).setdefault(
                            formula.source, []
                        ).append((own, other))
    return observed


class TestDeclaredRequirements:
    @pytest.mark.parametrize(
        "rule_name, formula",
        [
            pytest.param(r.name, f, id=f"{r.name}:{f.source}")
            for prefix in ("generic", "local")
            for r in all_generic_rules(prefix)
            for f in r.formulas
        ],
    )
    def test_formula_reads_only_what_it_declares(
        self, observed_reads, rule_name, formula
    ):
        """The builders own the declaration: whatever a body reads of its
        own node or of the nodes beneath it is in its requirements."""
        evaluations = observed_reads.get(rule_name, {}).get(formula.source)
        assert evaluations, "no sample plan evaluates this formula"
        for own, other in evaluations:
            assert own <= formula.own_requirements
            assert other <= formula.child_requirements

    def test_local_scope_is_the_default_scope_renamed(self):
        scoped = standard_repository().rules_for_source(MEDIATOR_SOURCE)
        default = [s for s in scoped if s.scope is Scope.DEFAULT]
        local = [s for s in scoped if s.scope is Scope.LOCAL]
        assert len(default) + len(local) == len(scoped)

        def shape(rules, prefix):
            assert all(s.rule.name.startswith(prefix) for s in rules)
            return [
                (
                    s.rule.name.removeprefix(prefix),
                    s.rule.head,
                    s.order,
                    [f.source for f in s.rule.formulas],
                )
                for s in rules
            ]

        assert shape(local, "local-") == shape(default, "generic-")
