"""Shape of E7 — dependent (bind) joins (§7 motivation), full scale.

Asserts the experiment's shape:

* the bind join beats the classic ship-everything join by two orders of
  magnitude when few outer keys survive the filter;
* the advantage shrinks as the key count grows (per-key probing versus a
  one-off bulk scan), though within the probe-friendly range it persists;
* with calibrated cost information the optimizer picks the faster plan at
  *every* key count — "avoid processing a large number of images by
  first selecting a few images from other data source".
"""

import pytest

from repro.bench.bindjoin_bench import run_bindjoin_experiment


@pytest.fixture(scope="module")
def result():
    return run_bindjoin_experiment()


class TestBindJoinShape:
    def test_huge_speedup_at_low_key_counts(self, result):
        smallest = result.points[0]
        assert smallest.outer_keys == 10
        assert smallest.classic_measured_ms > 50 * smallest.bind_measured_ms

    def test_advantage_shrinks_with_key_count(self, result):
        ratios = [
            p.classic_measured_ms / p.bind_measured_ms for p in result.points
        ]
        assert ratios == sorted(ratios, reverse=True)

    def test_optimizer_always_picks_the_faster_plan(self, result):
        assert result.all_choices_correct

    def test_estimates_track_measurements(self, result):
        for point in result.points:
            assert point.bind_estimated_ms == pytest.approx(
                point.bind_measured_ms, rel=0.35
            )
            assert point.classic_estimated_ms == pytest.approx(
                point.classic_measured_ms, rel=0.35
            )
