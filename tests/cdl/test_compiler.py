"""Tests for compiling CDL documents into cost-model objects."""

import math

import pytest

from repro.algebra.builders import scan
from repro.cdl import compile_source
from repro.core.rules import Var
from repro.core.scopes import Scope, classify_wrapper_rule
from repro.errors import CdlCompileError, CdlSyntaxError, FormulaError

EMPLOYEE = """
interface Employee {
    attribute Long salary;
    attribute String Name;
    cardinality extent(CountObject = 10000, ObjectSize = 120);
    cardinality attribute(salary, Indexed = true, CountDistinct = 1000,
                          Min = 1000, Max = 30000);
}
"""


class TestStatistics:
    def test_total_size_derived_from_object_size(self):
        info = compile_source(EMPLOYEE)
        stats = info.statistics[0]
        assert stats.total_size == 10000 * 120

    def test_object_size_derived_from_total_size(self):
        info = compile_source(
            "interface E { cardinality extent(CountObject = 10, TotalSize = 1000); }"
        )
        assert info.statistics[0].object_size == 100

    def test_missing_sizes_rejected(self):
        with pytest.raises(CdlCompileError):
            compile_source("interface E { cardinality extent(CountObject = 10); }")

    def test_attribute_stats_compiled(self):
        info = compile_source(EMPLOYEE)
        salary = info.statistics[0].attribute("salary")
        assert salary.indexed
        assert salary.count_distinct == 1000
        assert salary.min_value == 1000

    def test_declared_attributes_without_stats_present(self):
        info = compile_source(EMPLOYEE)
        assert "Name" in info.statistics[0].attributes

    def test_interface_without_extent_yields_no_stats(self):
        info = compile_source("interface E { attribute Long x; }")
        assert info.statistics == []
        assert "E" in info.schema


class TestBindingResolution:
    def test_declared_collection_is_bound(self):
        info = compile_source(EMPLOYEE + "costrule scan(Employee) { TotalTime = 1; }")
        head = info.rules[0].head
        assert head.collections == ("Employee",)

    def test_unknown_collection_is_variable(self):
        info = compile_source("costrule scan(C) { TotalTime = 1; }")
        assert isinstance(info.rules[0].head.collections[0], Var)

    def test_declared_attribute_is_bound(self):
        info = compile_source(
            EMPLOYEE + "costrule select(Employee, salary = V) { TotalTime = 1; }"
        )
        pred = info.rules[0].head.predicate
        assert pred.attribute == "salary"
        assert isinstance(pred.value, Var)

    def test_unknown_attribute_is_variable(self):
        info = compile_source(
            EMPLOYEE + "costrule select(Employee, A = V) { TotalTime = 1; }"
        )
        assert isinstance(info.rules[0].head.predicate.attribute, Var)

    def test_literal_value_is_bound(self):
        info = compile_source(
            EMPLOYEE + "costrule select(Employee, salary = 77) { TotalTime = 1; }"
        )
        assert info.rules[0].head.predicate.value == 77

    def test_known_collections_parameter(self):
        info = compile_source(
            "costrule scan(AtomicParts) { TotalTime = 1; }",
            known_collections={"AtomicParts"},
        )
        assert info.rules[0].head.collections == ("AtomicParts",)

    def test_scopes_derive_correctly(self):
        info = compile_source(
            EMPLOYEE
            + """
            costrule select(C, P2) { TotalTime = 1; }
            costrule select(Employee) { TotalTime = 1; }
            costrule select(Employee, salary = V) { TotalTime = 1; }
            """
        )
        scopes = [classify_wrapper_rule(r) for r in info.rules]
        assert scopes == [Scope.WRAPPER, Scope.COLLECTION, Scope.PREDICATE]


class TestRules:
    def test_select_without_predicate_matches_any(self):
        info = compile_source(EMPLOYEE + "costrule select(Employee) { TotalTime = 5; }")
        node = scan("Employee").where_eq("salary", 1).build()
        assert info.rules[0].match(node) is not None

    def test_join_rule(self):
        info = compile_source(
            "costrule join(C1, C2, a = b) { TotalTime = 1; }",
            known_attributes={"a", "b"},
        )
        head = info.rules[0].head
        assert head.predicate.left_attribute == "a"

    def test_join_requires_equality(self):
        with pytest.raises(CdlCompileError):
            compile_source("costrule join(C1, C2, a < b) { TotalTime = 1; }")

    def test_unknown_operator_rejected(self):
        with pytest.raises(CdlCompileError, match="frobnicate"):
            compile_source("costrule frobnicate(C) { TotalTime = 1; }")

    def test_bad_formula_rejected_at_compile_time(self):
        with pytest.raises(CdlCompileError):
            compile_source("costrule scan(C) { TotalTime = 1 + ; }")

    def test_predicate_on_scan_rejected(self):
        with pytest.raises((CdlCompileError, CdlSyntaxError)):
            compile_source("costrule scan(C, a = 1) { TotalTime = 1; }")

    def test_rule_order_preserved(self):
        info = compile_source(
            "costrule scan(C) { TotalTime = 1; } costrule scan(D) { TotalTime = 2; }"
        )
        assert [r.order for r in info.rules] == [0, 1]


class TestVariablesAndFunctions:
    def test_variables_exported(self):
        info = compile_source("var PageSize = 4000; var Fudge = 1.5;")
        assert info.variables == {"PageSize": 4000, "Fudge": 1.5}

    def test_function_evaluates(self):
        info = compile_source("function twice(x) = x * 2;")
        assert info.functions["twice"](21.0) == 42.0

    def test_function_sees_document_variables(self):
        info = compile_source("var Base = 10; function plus_base(x) = x + Base;")
        assert info.functions["plus_base"](5.0) == 15.0

    def test_function_uses_builtins(self):
        info = compile_source("function decay(x) = exp(-1 * x);")
        assert info.functions["decay"](0.0) == 1.0

    def test_function_composition(self):
        info = compile_source(
            "function twice(x) = x * 2; function quad(x) = twice(twice(x));"
        )
        assert info.functions["quad"](3.0) == 12.0

    def test_wrong_arity_raises(self):
        info = compile_source("function twice(x) = x * 2;")
        with pytest.raises(FormulaError):
            info.functions["twice"](1.0, 2.0)

    def test_bad_function_body_rejected(self):
        with pytest.raises(CdlCompileError):
            compile_source("function broken(x) = x +;")


class TestFigure13EndToEnd:
    """Compile the Figure 13 Yao rule and check its estimate against the
    closed-form Yao cost on the paper's OO7 numbers."""

    SOURCE = """
    interface AtomicParts {
        attribute Long Id;
        cardinality extent(CountObject = 70000, TotalSize = 4096000, ObjectSize = 56);
        cardinality attribute(Id, Indexed = true, CountDistinct = 70000,
                              Min = 0, Max = 70000);
    }
    var PageSize = 4096;
    var IO = 25;
    var Output = 9;

    costrule select(Collection, Id <= value) {
        CountPage = Collection.TotalSize / PageSize;
        CountObject = Collection.CountObject
            * (value - Collection.Id.Min) / (Collection.Id.Max - Collection.Id.Min);
        TotalSize = CountObject * Collection.ObjectSize;
        TotalTime = IO * CountPage * (1 - exp(-1 * (CountObject / CountPage)))
                    + CountObject * Output;
    }
    """

    def test_rule_estimates_yao_cost(self):
        from repro.core.estimator import CostEstimator
        from repro.core.estimator import SourceEnvironment
        from repro.core.generic import CoefficientSet, standard_repository
        from tests.yao_oracle import index_scan_cost_yao
        from repro.core.statistics import StatisticsCatalog
        from repro.algebra.expressions import Comparison, attr, lit
        from repro.algebra.logical import Scan, Select

        info = compile_source(self.SOURCE)
        catalog = StatisticsCatalog()
        for stats in info.statistics:
            catalog.put(stats)
        repository = standard_repository()
        repository.add_wrapper_rules("oo7", info.rules)
        estimator = CostEstimator(
            repository, catalog, coefficients=CoefficientSet()
        )
        estimator.register_environment(
            SourceEnvironment(
                name="oo7", variables=dict(info.variables), functions=dict(info.functions)
            )
        )
        selectivity = 0.5
        plan = Select(
            Scan("AtomicParts"),
            Comparison("<=", attr("Id"), lit(int(70000 * selectivity))),
        )
        result = estimator.estimate(plan, default_source="oo7")
        expected = index_scan_cost_yao(selectivity, 70000, 1000)
        assert result.total_time == pytest.approx(expected, rel=0.01)
        assert result.root.count_object == pytest.approx(35000.0, rel=0.01)
