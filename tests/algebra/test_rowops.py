"""Tests for the row-operator kernel shared by both interpreters."""

import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.algebra import rowops
from repro.algebra.builders import count_star, scan
from repro.algebra.expressions import (
    COMPARISON_OPS,
    And,
    AttributeRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
    attr,
    lit,
)
from repro.algebra.logical import AGGREGATE_FUNCTIONS, AggregateSpec, Select, Submit
from repro.algebra.rowops import (
    aggregate_rows,
    aggregate_value,
    getter,
    handlers,
    join_rows,
    merge_rows,
    row_key,
    sort_rows,
)
from repro.errors import PlanError
from tests.integration import reference
from tests.spy_clock import SpyClock

names = st.sampled_from(["a", "b", "id"])
collections = st.one_of(st.none(), st.sampled_from(["R", "S"]))
values = st.one_of(st.none(), st.integers(-3, 3))


@st.composite
def rows_spelling(draw, name):
    """A row that spells ``name`` bare, qualified, suffix-only (under
    some collection) or not at all, among unrelated attributes."""
    row = draw(st.dictionaries(st.sampled_from(["x", "S.y", "R.zz"]), values))
    for spelling in draw(st.sets(st.sampled_from(["{n}", "R.{n}", "S.{n}", "T.{n}"]))):
        row[spelling.format(n=name)] = draw(values)
    return row


class TestGetter:
    @given(st.data(), names, collections)
    def test_equals_attribute_ref_evaluate(self, data, name, collection):
        ref = AttributeRef(name, collection)
        row = data.draw(rows_spelling(name))
        try:
            expected = ref.evaluate(row)
        except PlanError as error:
            with pytest.raises(PlanError) as raised:
                getter(ref)(row)
            assert str(raised.value) == str(error)
        else:
            assert getter(ref)(row) == expected

    def test_accepts_a_bare_name(self):
        assert getter("a")({"R.a": 7}) == 7

    def test_row_key_is_a_tuple_of_any_arity(self):
        row = {"a": 1, "b": 2}
        assert row_key([])(row) == ()
        assert row_key(["a"])(row) == (1,)
        assert row_key(["b", AttributeRef("a", "R")])(row) == (2, 1)


#: Operands whose ordering raises (``int`` vs ``str``) as well as ones
#: that compare; ``zz`` is spelled by no row.
scalars = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["p", "q"]))
operands = st.one_of(
    st.builds(AttributeRef, st.sampled_from(["a", "b", "zz"]), collections),
    st.builds(Literal, scalars),
)
predicates = st.recursive(
    st.one_of(
        st.builds(Comparison, st.sampled_from(COMPARISON_OPS), operands, operands),
        st.just(TruePredicate()),
    ),
    lambda inner: st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)
    ),
    max_leaves=6,
)
predicate_rows = st.dictionaries(
    st.sampled_from(["a", "b", "R.a", "S.a", "T.b", "x"]), scalars
)


def outcome(call, row):
    """The value (with its type), or the exception's type and message."""
    try:
        value = call(row)
    except (PlanError, TypeError) as error:
        return type(error), str(error)
    return type(value), value


class TestCompiledPredicate:
    @given(predicates, predicate_rows)
    def test_equals_predicate_evaluate(self, predicate, row):
        assert outcome(rowops.test(predicate), row) == outcome(predicate.evaluate, row)

    @pytest.mark.parametrize(
        "predicate, expected",
        [
            (And(Comparison("=", lit(1), lit(2)), Comparison("=", attr("zz"), lit(1))), False),
            (Or(Comparison("=", lit(1), lit(1)), Comparison("<", attr("a"), lit("p"))), True),
        ],
    )
    def test_short_circuit_hides_the_same_errors(self, predicate, expected):
        row = {"a": 1}
        assert predicate.evaluate(row) is expected
        assert rowops.test(predicate)(row) is expected
        for connective in (And, Or):  # the other operand order raises in both
            flipped = connective(predicate.right, predicate.left)
            assert outcome(rowops.test(flipped), row) == outcome(flipped.evaluate, row)
            assert outcome(flipped.evaluate, row)[0] in (PlanError, TypeError)

    def test_a_missing_attribute_raises_before_a_null_literal_decides(self):
        predicate = Comparison("=", attr("zz"), lit(None))
        with pytest.raises(PlanError, match="row has no attribute 'zz'"):
            rowops.test(predicate)({"a": 1})
        assert rowops.test(Comparison("=", attr("a"), lit(None)))({"a": 1}) is False

    def test_unknown_predicates_run_their_own_evaluate(self):
        class Always(Predicate):
            def evaluate(self, row):
                return row["a"] > 0

        class Inverted(Comparison):
            def evaluate(self, row):
                return not super().evaluate(row)

        compiled = rowops.test(And(Always(), Inverted("=", attr("a"), lit(1))))
        assert compiled({"a": 1}) is False
        assert compiled({"a": 2}) is True

    def test_compiles_once_not_per_row(self, monkeypatch):
        calls = []
        evaluate = Comparison.evaluate
        monkeypatch.setattr(
            Comparison, "evaluate", lambda self, row: calls.append(row) or evaluate(self, row)
        )
        below_three = Comparison("<", attr("a"), lit(3))
        node = scan("R").where(And(below_three, Not(Comparison("=", attr("a"), attr("b"))))).build()
        rows = [{"a": i, "b": 1} for i in range(100)]
        assert [row["a"] for row in rowops.select_rows(node, rows, SpyClock())] == [0, 2]
        assert calls == []


def test_no_per_row_tree_walk_call_sites():
    """Every row interpreter takes its predicate from ``rowops.test`` and
    its attribute reads from ``rowops.getter``: outside the expression
    classes' own recursion (and the compiler's fallback) nothing in
    ``src/repro`` calls ``predicate.evaluate`` / ``.evaluate(row)``, and
    no interpreter constructs an ``AttributeRef``."""
    package = Path(repro.__file__).parent

    def grep(pattern: str, *roots: str) -> list[str]:
        files = [path for root in roots for path in sorted(package.glob(root))]
        assert files, roots
        return [
            f"{path.relative_to(package)}: {line.strip()}"
            for path in files
            for line in path.read_text().splitlines()
            if re.search(pattern, line)
        ]

    interpreters = ("rt/*.py", "wrappers/*.py", "mediator/executor.py")
    assert grep(r"AttributeRef\(", *interpreters) == []
    walks = grep(r"predicate\.evaluate|\.evaluate\(row\)", "**/*.py")
    assert [hit for hit in walks if not hit.startswith("algebra/expressions.py")] == [
        "algebra/rowops.py: return predicate.evaluate",
    ]


class TestMergeRows:
    def test_disjoint_rows_concatenate_in_order(self):
        merged = merge_rows({"a": 1}, {"b": 2}, "L", "R")
        assert list(merged.items()) == [("a", 1), ("b", 2)]

    def test_equal_values_are_not_qualified(self):
        assert merge_rows({"id": 1, "a": 2}, {"id": 1}, "L", "R") == {"id": 1, "a": 2}

    def test_collisions_take_each_side_s_label(self):
        merged = merge_rows({"id": 1, "a": 2}, {"id": 5, "b": 3}, "emp", "dept")
        assert list(merged.items()) == [("a", 2), ("emp.id", 1), ("dept.id", 5), ("b", 3)]

    def test_join_labels_fall_back_to_sides(self):
        """A side over several collections has no primary one."""
        both = scan("R").join(scan("S"), "k", "k").build()
        node = scan("R").join(both, "k", "k").build()
        rows = join_rows(node, [{"k": 1, "v": 1}], [{"k": 1, "v": 2}], SpyClock())
        assert list(rows) == [{"k": 1, "R.v": 1, "right.v": 2}]


class TestAggregateValue:
    ROWS = [{"v": 4}, {"v": None}, {"v": 1}]

    @pytest.mark.parametrize(
        "function, expected",
        [("count", 2), ("sum", 5), ("avg", 2.5), ("min", 1), ("max", 4)],
    )
    def test_nulls_are_skipped(self, function, expected):
        assert aggregate_value(AggregateSpec(function, "v", "out"), self.ROWS) == expected

    def test_count_star_counts_rows(self):
        assert aggregate_value(count_star(), self.ROWS) == 3

    def test_empty_input(self):
        assert aggregate_value(AggregateSpec("sum", "v", "out"), []) is None
        assert aggregate_value(AggregateSpec("count", "v", "out"), []) == 0


class TrackedRow(dict):
    """A row a test can hold a weak reference to."""


def reference_aggregate(node, rows):
    """The differential suite's oracle: materialise each group's
    members, then aggregate them — what ``aggregate_rows`` did before
    it folded rows as they arrive."""
    return reference._aggregate(rows, list(node.group_by), list(node.aggregates))


class TestStreamingAggregate:
    SPECS = [count_star("n")] + [
        AggregateSpec(function, "v", function) for function in sorted(AGGREGATE_FUNCTIONS)
    ]
    INPUTS = {
        "values": [
            {"g": "b", "v": 0.1}, {"g": "a", "v": 3}, {"g": "b", "v": None},
            {"g": "b", "v": 0.2}, {"g": "a", "v": 3.0}, {"g": "b", "v": 0.3},
        ],
        "empty input": [],
        "all-null column": [{"g": "b", "v": None}, {"g": "a", "v": None}, {"g": "b", "v": None}],
    }

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    @pytest.mark.parametrize("group_by", [[], ["g"]], ids=["no group", "group-by"])
    @pytest.mark.parametrize("rows", INPUTS.values(), ids=INPUTS)
    def test_equals_materialised_groups(self, rows, group_by, spec):
        node = scan("R").aggregate(group_by, [spec]).build()
        result = list(aggregate_rows(node, rows, SpyClock()))
        assert result == reference_aggregate(node, rows)
        # ``==`` holds for 3 vs 3.0: the first of equal extremes is kept.
        assert [type(row[spec.alias]) for row in result] == [
            type(row[spec.alias]) for row in reference_aggregate(node, rows)
        ]

    def test_empty_input_and_group_order_pins(self):
        node = scan("R").aggregate([], self.SPECS).build()
        assert list(aggregate_rows(node, [], SpyClock())) == [
            {"n": 0, "avg": None, "count": 0, "max": None, "min": None, "sum": None}
        ]
        grouped = scan("R").aggregate(["g"], self.SPECS).build()
        assert list(aggregate_rows(grouped, [], SpyClock())) == []
        result = list(aggregate_rows(grouped, self.INPUTS["values"], SpyClock()))
        columns = ["g", "n", "avg", "count", "max", "min", "sum"]
        assert [list(row) for row in result] == [columns, columns]
        assert [row["g"] for row in result] == ["b", "a"]  # first-seen order
        assert result[0]["sum"] == sum([0.1, 0.2, 0.3]) != 0.1 + (0.2 + 0.3)

    def test_one_charge_per_input_row_as_it_arrives(self):
        clock = SpyClock()
        charged_at_pull = []

        def source():
            for row in self.INPUTS["values"]:
                charged_at_pull.append(len(clock.charges))
                yield row

        node = scan("R").aggregate(["g"], self.SPECS).build()
        assert len(list(aggregate_rows(node, source(), clock))) == 2
        assert charged_at_pull == [0, 1, 2, 3, 4, 5]
        assert clock.take() == [0.5] * 6

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_groups_do_not_hold_their_rows(self, spec):
        alive = []

        def source():
            for index in range(50):
                row = TrackedRow(g=index % 2, v=index)
                alive.append(weakref.ref(row))
                yield row

        node = scan("R").aggregate(["g"], [spec]).build()
        groups = aggregate_rows(node, source(), SpyClock())
        assert next(groups)["g"] == 0
        assert sum(ref() is not None for ref in alive) <= 1


class TestHandlers:
    def test_nothing_runs_until_the_first_row_is_pulled(self):
        clock = SpyClock()
        pulled = []

        def run(node):
            pulled.append(node)
            return iter([{"a": 1}, {"a": 2}])

        plan = scan("R").where_eq("a", 2).build()
        rows = handlers(run, clock)[Select](plan)
        assert clock.take() == []
        assert list(rows) == [{"a": 2}]
        assert clock.take() == [0.5, 0.5]
        assert pulled == [plan.child]

    def test_only_row_operators_are_in_the_table(self):
        assert Submit not in handlers(iter, SpyClock())

    def test_blocking_sort_charges_once_for_all_rows(self):
        clock = SpyClock()
        node = scan("R").order_by("a", descending=True).build()
        rows = sort_rows(node, [{"a": 1}, {"a": 3}, {"a": 2}], clock)
        assert [row["a"] for row in rows] == [3, 2, 1]
        assert clock.take() == [1.5]
