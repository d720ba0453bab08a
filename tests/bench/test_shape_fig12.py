"""Shape of Figure 12 (§5) — the paper's validation figure.

Regenerates the three series (Experiment / Calibration / Yao formula) on
the paper's exact configuration (70 000 AtomicParts × 56 bytes, 1000
pages, IO = 25 ms, Output = 9 ms) and asserts the figure's qualitative
content:

* the measured curve is concave in selectivity;
* the wrapper-exported Yao rule tracks the measurement closely
  (mean relative error below 5 %);
* the calibrated linear model overshoots at high selectivity by a large
  factor and is at least an order of magnitude worse than the Yao rule
  on mean relative error.
"""

import pytest

from repro.bench.fig12 import run_fig12
from repro.oo7 import PAPER


@pytest.fixture(scope="module")
def fig12_result():
    return run_fig12(config=PAPER)


class TestFigure12Shape:
    def test_experiment_curve_is_concave(self, fig12_result):
        points = fig12_result.points
        increments = [
            (b.measured_ms - a.measured_ms) / (b.selectivity - a.selectivity)
            for a, b in zip(points, points[1:])
        ]
        # Slopes must be non-increasing (within numerical tolerance).
        for earlier, later in zip(increments, increments[1:]):
            assert later <= earlier * 1.01

    def test_yao_rule_tracks_experiment(self, fig12_result):
        assert fig12_result.yao_error.mean_relative_error < 0.05

    def test_calibration_overshoots_at_high_selectivity(self, fig12_result):
        last = fig12_result.points[-1]
        assert last.selectivity == pytest.approx(0.7)
        assert last.calibration_ms > 1.25 * last.measured_ms

    def test_yao_beats_calibration_by_an_order_of_magnitude(self, fig12_result):
        assert (
            fig12_result.yao_error.mean_relative_error * 10
            < fig12_result.calibration_error.mean_relative_error
        )

    def test_paper_scale_absolute_times(self, fig12_result):
        """The paper's measured curve reaches roughly 450-500 s at
        selectivity 0.7; the simulated store (same constants) must too."""
        last = fig12_result.points[-1]
        assert 400_000 < last.measured_ms < 550_000

    def test_pages_saturate_like_yao(self, fig12_result):
        # At 70 objects/page, 10 % selectivity already touches ~all pages.
        for point in fig12_result.points:
            if point.selectivity >= 0.1:
                assert point.pages_fetched >= 0.97 * fig12_result.page_count
