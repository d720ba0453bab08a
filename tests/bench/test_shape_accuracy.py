"""Shape of E3 — estimation accuracy per configuration (full scale).

The paper's central quantitative claim, generalized beyond Figure 12:
wrapper-exported cost information makes the mediator's estimates track
reality.  Asserts the accuracy ordering
``blended <= calibrated < generic`` on mean relative error over the
federation workload.
"""

import pytest

from repro.bench.accuracy import run_accuracy


@pytest.fixture(scope="module")
def report():
    return run_accuracy()


class TestAccuracy:
    def test_calibration_improves_on_generic(self, report):
        assert (
            report.summary("calibrated").mean_relative_error
            < 0.5 * report.summary("generic").mean_relative_error
        )

    def test_blended_is_best(self, report):
        blended = report.summary("blended").mean_relative_error
        assert blended <= report.summary("calibrated").mean_relative_error * 1.001
        assert blended < report.summary("generic").mean_relative_error

    def test_blended_median_error_small(self, report):
        assert report.summary("blended").median_relative_error < 0.25

    def test_generic_error_is_large(self, report):
        """Without statistics the standard values miss by multiples —
        the problem statement of §1."""
        assert report.summary("generic").mean_relative_error > 1.0
