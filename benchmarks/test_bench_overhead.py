"""Benchmark target for E4 — rule-machinery overhead and ablations.

Asserts the §3.3.2 engineering claim: with the "virtual table" dispatch
index, per-estimate cost stays flat as query-specific rules proliferate,
while a linear scan degrades; plus the §4.2/§4.3.2 ablation directions
(propagation computes fewer variables; pruning rejects candidates early).

The timed benchmarks measure a single estimate at two rule-set sizes with
the dispatch index on, and one with it off, so pytest-benchmark's
comparison table shows the scaling directly.
"""

import pytest

from repro.algebra.builders import scan
from repro.bench.overhead import (
    build_estimator,
    run_cache_ablation,
    run_conflict_ablation,
    run_dispatch_scaling,
    run_overhead,
    run_propagation_ablation,
    run_pruning_ablation,
)

from conftest import print_report


@pytest.fixture(scope="module")
def dispatch_rows():
    return run_dispatch_scaling(rule_counts=(10, 200, 1000), repetitions=50)


class TestDispatchIndex:
    def test_indexed_lookup_stays_flat(self, dispatch_rows):
        small = dispatch_rows[0][1]
        large = dispatch_rows[-1][1]
        assert large < 3 * small  # flat-ish as rules grow 100x

    def test_linear_scan_degrades(self, dispatch_rows):
        small = dispatch_rows[0][2]
        large = dispatch_rows[-1][2]
        assert large > 10 * small

    def test_index_beats_linear_at_scale(self, dispatch_rows):
        _count, indexed, linear = dispatch_rows[-1]
        assert indexed * 5 < linear


class TestAblations:
    def test_pruning_rejects_candidates(self):
        rows = {label: (candidates, pruned, formulas)
                for label, candidates, pruned, formulas in run_pruning_ablation()}
        assert rows["on"][1] > 0  # something was pruned
        assert rows["off"][1] == 0
        assert rows["on"][2] <= rows["off"][2]  # fewer formula evaluations

    def test_propagation_computes_fewer_variables(self):
        rows = {label: counts for label, *counts in run_propagation_ablation()}
        assert rows["on"][0] < rows["off"][0]

    def test_conflict_policies_differ(self):
        rows = dict(run_conflict_ablation())
        assert rows["first"] <= rows["lowest"]

    def test_subplan_cache_cuts_optimizer_work(self):
        # Sharing subplans across one optimize()'s candidates at least
        # halves the formulas evaluated.
        rows = dict(run_cache_ablation())
        assert rows["on"] * 2 < rows["off"]


def test_print_overhead_tables():
    result = run_overhead(rule_counts=(10, 50, 200, 1000), repetitions=50)
    print_report("E4a — dispatch", result.dispatch_table())
    print_report("E4b — pruning", result.pruning_table())
    print_report("E4c — propagation", result.propagation_table())
    print_report("E4d — conflict policy", result.conflict_table())
    print_report("E4e — subplan sharing", result.cache_table())


@pytest.mark.benchmark(group="overhead")
@pytest.mark.parametrize("rule_count", [10, 1000])
def test_benchmark_estimate_with_dispatch_index(benchmark, rule_count):
    estimator = build_estimator(rule_count, use_dispatch_index=True)
    plan = scan("Parts").where_eq("Id", rule_count - 1).build()
    benchmark(lambda: estimator.estimate(plan, default_source="src"))


@pytest.mark.benchmark(group="overhead")
def test_benchmark_estimate_linear_scan_1000_rules(benchmark):
    estimator = build_estimator(1000, use_dispatch_index=False)
    plan = scan("Parts").where_eq("Id", 999).build()
    benchmark(lambda: estimator.estimate(plan, default_source="src"))
