"""Shape of E6 — clustering (§7), full scale.

Asserts:

* the physical effect: at mid selectivity the clustered extent fetches
  an order of magnitude fewer pages than the scattered one;
* the wrapper-exported rules track *both* stores (the wrapper knows its
  clustering and exports the matching formula);
* a single calibrated linear model cannot serve both — its error on the
  clustered store is at least an order of magnitude worse than the
  clustering-aware rule's ("clustering ... can not be easily captured by
  a calibrating model", §7).
"""

import pytest

from repro.bench.clustering import run_clustering


@pytest.fixture(scope="module")
def result():
    return run_clustering()


class TestClustering:
    def test_clustered_fetches_far_fewer_pages(self, result):
        mid = next(p for p in result.points if p.selectivity == 0.1)
        assert mid.clustered_pages * 5 <= mid.scattered_pages

    def test_rules_track_both_stores(self, result):
        assert result.scattered_rule_error.mean_relative_error < 0.05
        assert result.clustered_rule_error.mean_relative_error < 0.05

    def test_single_calibrated_model_fails_on_clustered(self, result):
        calibrated = result.calibration_error_on_clustered.mean_relative_error
        rule = result.clustered_rule_error.mean_relative_error
        assert calibrated > 10 * rule

    def test_same_answers_from_both_stores(self, result):
        # run_clustering asserts equal row counts internally; re-check the
        # physical counters are consistent with full correctness.
        for point in result.points:
            assert point.scattered_pages >= point.clustered_pages
