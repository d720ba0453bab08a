"""Tests for cross-candidate subplan sharing: the ``memo=`` argument of
:meth:`CostEstimator.estimate`."""

import pytest

from repro.algebra.builders import scan
from repro.core.estimator import CostEstimator
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.rules import rule, scan_pattern, select_pattern, var
from repro.core.statistics import AttributeStats, CollectionStats, StatisticsCatalog


def make_estimator():
    catalog = StatisticsCatalog()
    for name, count in (("R", 1000), ("S", 500)):
        catalog.put(
            CollectionStats.from_extent(
                name,
                count,
                100,
                attributes=[AttributeStats("a", indexed=True, count_distinct=count)],
            )
        )
    return CostEstimator(
        standard_repository(), catalog, coefficients=CoefficientSet()
    )


class TestCaching:
    def test_shared_subplan_costs_once(self):
        estimator = make_estimator()
        access = scan("R").where_eq("a", 5).submit_to("w").build()
        # Two candidate plans sharing the same access subplan object.
        plan_a = access
        plan_b = (
            scan("S").submit_to("w").join(access, "a", "a").build()
        )
        memo = {}
        estimator.estimate(plan_a, memo=memo)
        first_formulas = estimator.last_counters.formulas_evaluated
        estimator.estimate(plan_b, memo=memo)
        second_formulas = estimator.last_counters.formulas_evaluated
        # The shared subtree was served from the memo: costing the bigger
        # plan evaluated barely more formulas than the join itself needs.
        assert second_formulas < first_formulas + 25
        # Without a memo the shared subtree is paid for again.
        estimator.estimate(plan_b)
        assert estimator.last_counters.formulas_evaluated > second_formulas

    def test_same_plan_reestimated_free(self):
        estimator = make_estimator()
        plan = scan("R").where_eq("a", 5).submit_to("w").build()
        memo = {}
        first = estimator.estimate(plan, memo=memo).total_time
        count_before = estimator.last_counters.formulas_evaluated
        second = estimator.estimate(plan, memo=memo).total_time
        assert second == first
        assert estimator.last_counters.formulas_evaluated == 0
        assert estimator.last_counters.nodes_visited == 0
        assert count_before > 0

    def test_cached_values_match_uncached(self):
        plan = scan("R").where_eq("a", 5).submit_to("w").build()
        shared = make_estimator().estimate(plan, memo={})
        alone = make_estimator().estimate(plan)
        assert shared.total_time == pytest.approx(alone.total_time)
        assert {
            node_id: (e.values, e.provenance) for node_id, e in shared.nodes.items()
        } == {node_id: (e.values, e.provenance) for node_id, e in alone.nodes.items()}

    def test_new_rules_visible_on_next_call(self):
        # Nothing outlives an estimate() call but what the caller keeps.
        estimator = make_estimator()
        plan = scan("R").submit_to("w").build()
        before = estimator.estimate(plan, memo={}).total_time
        estimator.repository.add_wrapper_rule(
            "w", rule(scan_pattern("R"), ["TotalTime = 1"])
        )
        after = estimator.estimate(plan, memo={}).total_time
        assert after < before

    def test_pruning_honoured_on_cache_hits(self):
        estimator = make_estimator()
        plan = scan("R").submit_to("w").build()
        memo = {}
        estimator.estimate(plan, memo=memo)  # warm the memo
        pruned = estimator.estimate(plan, bound_ms=1.0, memo=memo)
        assert pruned.pruned
        assert pruned.total_time > 1.0

    def test_pruning_replays_a_losing_formulas_child_read(self):
        # §4.3.2 fires on *any* TotalTime computed while a plan is costed.
        # Two same-level select rules race for TotalTime: the cheap
        # constant wins, the loser reads the child scan's TotalTime.  A
        # bound between the two prunes the plan when it is costed alone,
        # so it must prune it when the select comes from the memo.
        estimator = make_estimator()
        estimator.repository.add_wrapper_rules(
            "w",
            [
                rule(select_pattern(var("C")), ["TotalTime = 5"], name="cheap"),
                rule(
                    select_pattern(var("C")),
                    ["TotalTime = C.TotalTime + 1"],
                    name="reads-child",
                ),
            ],
        )
        select = scan("R").where_eq("a", 5).build()
        plan = scan("R").where_eq("a", 5).build()
        scan_time = estimator.estimate(plan.child, default_source="w").total_time
        assert estimator.estimate(plan, default_source="w").total_time == 5
        bound = (5 + scan_time) / 2
        alone = estimator.estimate(plan, default_source="w", bound_ms=bound)
        assert alone.pruned

        memo = {}
        warm = estimator.estimate(select, default_source="w", memo=memo)
        assert not warm.pruned and warm.total_time == 5
        replayed = estimator.estimate(
            select, default_source="w", bound_ms=bound, memo=memo
        )
        assert replayed.pruned
        assert replayed.total_time == pytest.approx(scan_time)
        # A bound above everything computed beneath does not fire.
        assert not estimator.estimate(
            select, default_source="w", bound_ms=scan_time + 1, memo=memo
        ).pruned

    def test_nodes_are_the_plans_nodes(self):
        estimator = make_estimator()
        access = scan("R").where_eq("a", 5).submit_to("w").build()
        other = scan("S").submit_to("w").build()
        joined = scan("S").submit_to("w").join(access, "a", "a").build()
        memo = {}
        estimator.estimate(other, memo=memo)
        estimator.estimate(joined, memo=memo)
        # A hit on the shared submit still reports the nodes beneath it,
        # and nothing of the other plan.
        shared = estimator.estimate(access, memo=memo)
        assert set(shared.nodes) == {node.node_id for node in access.walk()}
        assert estimator.last_counters.formulas_evaluated == 0
        for node in access.walk():
            assert shared.nodes[node.node_id] is memo[node.node_id]

    def test_pruned_root_does_not_leak_into_the_memo(self):
        estimator = make_estimator()
        plan = scan("R").where_eq("a", 5).submit_to("w").build()
        memo = {}
        pruned = estimator.estimate(plan, bound_ms=1.0, memo=memo)
        assert pruned.pruned and "pruned" in pruned.root.provenance["TotalTime"]
        # The partial cost is the pruned result's, not the node's value.
        complete = estimator.estimate(plan, memo=memo)
        assert not complete.pruned
        assert complete.total_time == estimator.estimate(plan).total_time
        assert "pruned" not in complete.root.provenance["TotalTime"]

    def test_registration_invalidates(self):
        from repro.mediator.mediator import Mediator
        from tests.federation_fixtures import build_oo7_wrapper

        mediator = Mediator()
        mediator.register(build_oo7_wrapper(export_rules=False))
        sql = "SELECT * FROM AtomicParts WHERE Id = 7"
        before = mediator.plan(sql).estimated_total_ms
        mediator.register(build_oo7_wrapper(export_rules=True))
        after = mediator.plan(sql).estimated_total_ms
        assert after != before  # new rules visible, nothing to invalidate
