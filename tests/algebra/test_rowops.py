"""Tests for the row-operator kernel shared by both interpreters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.builders import count_star, scan
from repro.algebra.expressions import AttributeRef
from repro.algebra.logical import AggregateSpec, Select, Submit
from repro.algebra.rowops import (
    aggregate_value,
    getter,
    handlers,
    join_rows,
    merge_rows,
    row_key,
    sort_rows,
)
from repro.errors import PlanError
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
