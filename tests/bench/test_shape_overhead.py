"""Shape of E4 — rule-machinery overhead and ablations.

Asserts the §3.3.2 engineering claim: with the "virtual table" dispatch
index, per-estimate cost stays flat as query-specific rules proliferate,
while a linear scan degrades; plus the §4.2/§4.3.2 ablation directions
(propagation computes fewer variables; pruning rejects candidates early).
"""

import pytest

from repro.bench.overhead import (
    build_estimator,
    run_cache_ablation,
    run_conflict_ablation,
    run_propagation_ablation,
    run_pruning_ablation,
    time_estimates,
)


def fastest_us(rule_count: int, use_dispatch_index: bool) -> float:
    """Microseconds per estimate, the fastest of 40 five-call batches:
    the one wall-clock shape in tier-1 must hold on a loaded host, and
    the fastest batch is the one no other process interrupted."""
    estimator = build_estimator(rule_count, use_dispatch_index=use_dispatch_index)
    return min(
        time_estimates(estimator, rule_count - 1, repetitions=5)
        for _ in range(40)
    )


@pytest.fixture(scope="module")
def dispatch_rows():
    return [
        (count, fastest_us(count, True), fastest_us(count, False))
        for count in (10, 200, 1000)
    ]


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
