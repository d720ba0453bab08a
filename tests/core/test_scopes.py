"""Unit tests for the scope hierarchy and rule repository (§4.1)."""

import pytest

from repro.algebra.builders import scan
from repro.algebra.logical import Scan
from repro.core.rules import (
    rule,
    scan_pattern,
    select_eq_pattern,
    select_pattern,
    var,
)
from repro.core.scopes import (
    MEDIATOR_SOURCE,
    RuleRepository,
    Scope,
    classify_wrapper_rule,
)
from repro.errors import CostModelError


def select_node(value=10):
    return scan("Employee").where_eq("salary", value).build()


class TestClassification:
    def test_free_collection_is_wrapper_scope(self):
        r = rule(select_pattern(var("C")), ["TotalTime = 1"])
        assert classify_wrapper_rule(r) is Scope.WRAPPER

    def test_bound_collection_is_collection_scope(self):
        r = rule(select_pattern("Employee"), ["TotalTime = 1"])
        assert classify_wrapper_rule(r) is Scope.COLLECTION

    def test_bound_attribute_is_predicate_scope(self):
        r = rule(
            select_eq_pattern("Employee", "salary", var("V")), ["TotalTime = 1"]
        )
        assert classify_wrapper_rule(r) is Scope.PREDICATE

    def test_bound_value_is_predicate_scope(self):
        r = rule(select_eq_pattern("Employee", "salary", 77), ["TotalTime = 1"])
        assert classify_wrapper_rule(r) is Scope.PREDICATE


class TestRepository:
    def test_reserved_source_rejected(self):
        repo = RuleRepository()
        with pytest.raises(CostModelError):
            repo.add_wrapper_rule(
                MEDIATOR_SOURCE, rule(scan_pattern(var("C")), ["TotalTime = 1"])
            )

    def test_scope_ordering_wins(self):
        """A wrapper predicate-scope rule shadows collection, wrapper and
        default scopes — the Figure 10 hierarchy."""
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 4"], name="default"))
        repo.add_wrapper_rule("w", rule(select_pattern(var("C")), ["TotalTime = 3"], name="wrapper"))
        repo.add_wrapper_rule("w", rule(select_pattern("Employee"), ["TotalTime = 2"], name="collection"))
        repo.add_wrapper_rule(
            "w",
            rule(select_eq_pattern("Employee", "salary", var("V")), ["TotalTime = 1"], name="predicate"),
        )
        matches = repo.matches_providing(select_node(), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["predicate"]

    def test_fallback_scope_by_scope(self):
        """A missing variable falls through to the next scope: "the scope
        hierarchy is scanned until the first less-specific rule is found"."""
        repo = RuleRepository()
        repo.add_default_rule(
            rule(select_pattern(var("C")), ["TotalTime = 9", "CountObject = 5"], name="default")
        )
        repo.add_wrapper_rule(
            "w", rule(select_pattern("Employee"), ["TotalTime = 1"], name="coll")
        )
        node = select_node()
        time_matches = repo.matches_providing(node, "w", "TotalTime")
        count_matches = repo.matches_providing(node, "w", "CountObject")
        assert [m.rule.name for m in time_matches] == ["coll"]
        assert [m.rule.name for m in count_matches] == ["default"]

    def test_same_level_rules_all_returned(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="a"))
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 2"], name="b"))
        matches = repo.matches_providing(select_node(), "w", "TotalTime")
        assert {m.rule.name for m in matches} == {"a", "b"}

    def test_other_wrappers_rules_invisible(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="default"))
        repo.add_wrapper_rule("other", rule(select_pattern(var("C")), ["TotalTime = 1"], name="other-rule"))
        matches = repo.matches_providing(select_node(), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["default"]

    def test_local_rules_only_for_mediator_nodes(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="default"))
        repo.add_local_rule(rule(select_pattern(var("C")), ["TotalTime = 1"], name="local"))
        wrapper_matches = repo.matches_providing(select_node(), "w", "TotalTime")
        mediator_matches = repo.matches_providing(select_node(), None, "TotalTime")
        assert [m.rule.name for m in wrapper_matches] == ["default"]
        assert [m.rule.name for m in mediator_matches] == ["local"]

    def test_wrapper_rules_invisible_to_mediator_nodes(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="default"))
        repo.add_wrapper_rule("w", rule(select_pattern(var("C")), ["TotalTime = 1"], name="wrapper"))
        matches = repo.matches_providing(select_node(), None, "TotalTime")
        assert [m.rule.name for m in matches] == ["default"]

    def test_query_scope_beats_predicate_scope(self):
        repo = RuleRepository()
        repo.add_wrapper_rule(
            "w",
            rule(select_eq_pattern("Employee", "salary", 10), ["TotalTime = 5"], name="pred"),
        )
        repo.add_query_rule(
            "w",
            rule(select_eq_pattern("Employee", "salary", 10), ["TotalTime = 3"], name="query"),
        )
        matches = repo.matches_providing(select_node(10), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["query"]

    def test_specificity_within_scope(self):
        repo = RuleRepository()
        repo.add_wrapper_rule(
            "w",
            rule(select_eq_pattern("Employee", "salary", var("V")), ["TotalTime = 2"], name="attr"),
        )
        repo.add_wrapper_rule(
            "w",
            rule(select_eq_pattern("Employee", "salary", 10), ["TotalTime = 1"], name="value"),
        )
        matches = repo.matches_providing(select_node(10), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["value"]
        # A different constant falls back to the attribute-level rule.
        matches = repo.matches_providing(select_node(99), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["attr"]

    def test_remove_source(self):
        repo = RuleRepository()
        repo.add_wrapper_rule("w", rule(select_pattern(var("C")), ["TotalTime = 1"]))
        repo.add_wrapper_rule("w", rule(scan_pattern(var("C")), ["TotalTime = 1"]))
        repo.add_wrapper_rule("v", rule(scan_pattern(var("C")), ["TotalTime = 1"]))
        assert repo.remove_source("w") == 2
        assert len(repo) == 1
        assert repo.rules_for_source("w") == []

    def test_matches_ordering_covers_all(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="default"))
        repo.add_wrapper_rule("w", rule(select_pattern("Employee"), ["TotalTime = 1"], name="coll"))
        matches = repo.matches(select_node(), "w")
        assert [m.rule.name for m in matches] == ["coll", "default"]

    def test_linear_scan_mode_equivalent(self):
        for use_index in (True, False):
            repo = RuleRepository(use_dispatch_index=use_index)
            repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"], name="default"))
            repo.add_wrapper_rule("w", rule(select_pattern("Employee"), ["TotalTime = 1"], name="coll"))
            matches = repo.matches_providing(select_node(), "w", "TotalTime")
            assert [m.rule.name for m in matches] == ["coll"], f"index={use_index}"

    def test_describe_renders_hierarchy(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(select_pattern(var("C")), ["TotalTime = 9"]))
        repo.add_wrapper_rule("w", rule(select_pattern("Employee"), ["TotalTime = 1"]))
        text = repo.describe()
        assert "default:" in text
        assert "collection:" in text

    def test_declaration_order_preserved_per_scope(self):
        repo = RuleRepository()
        first = rule(select_pattern(var("C")), ["TotalTime = 1"], name="first")
        second = rule(select_pattern(var("C")), ["TotalTime = 2"], name="second")
        placed_first = repo.add_wrapper_rule("w", first)
        placed_second = repo.add_wrapper_rule("w", second)
        assert placed_first.order < placed_second.order
        # The order belongs to the placement: the rules, which another
        # repository may hold too, are left as they came.
        assert first.order == second.order == 0
        other = RuleRepository()
        assert other.add_wrapper_rule("w", second).order == 0

    def test_scan_rule_matching_level(self):
        repo = RuleRepository()
        repo.add_default_rule(rule(scan_pattern(var("C")), ["TotalTime = 9"], name="default"))
        repo.add_wrapper_rule("w", rule(scan_pattern("Employee"), ["TotalTime = 1"], name="coll"))
        matches = repo.matches_providing(Scan("Employee"), "w", "TotalTime")
        assert [m.rule.name for m in matches] == ["coll"]
