"""Tests for the calibration procedure (§6 / Figure 12 'Calibration')."""

import pytest

from repro.mediator.probe_fit import (
    CalibrationResult,
    DEFAULT_PROBE_SELECTIVITIES,
    fit_line,
    calibrate_wrapper,
)
from repro.errors import CalibrationError
from repro.oo7 import TINY, load_database
from repro.wrappers import FlatFileWrapper, ObjectStoreWrapper
from tests.yao_oracle import index_scan_cost_yao


@pytest.fixture(scope="module")
def oo7_wrapper():
    return ObjectStoreWrapper("oo7", load_database(TINY))


@pytest.fixture(scope="module")
def paged_wrapper():
    """A 7000-object extent on ~100 pages: big enough that the probe
    range spans the concave region of the Yao curve."""
    from repro.sources.objectdb import ObjectDatabase

    db = ObjectDatabase()
    db.create_extent(
        "Parts",
        [{"Id": i} for i in range(7000)],
        object_size=56,
        indexed_attributes=["Id"],
        clustering="scattered",
    )
    return ObjectStoreWrapper("store", db)


class TestFitLine:
    def test_exact_line_recovered(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [10 + 2 * x for x in xs]
        intercept, slope = fit_line(xs, ys)
        assert intercept == pytest.approx(10.0)
        assert slope == pytest.approx(2.0)

    def test_single_point_goes_through_origin(self):
        intercept, slope = fit_line([4.0], [8.0])
        assert (intercept, slope) == (0.0, 2.0)

    def test_negative_intercept_clamped(self):
        # A convex series would fit a negative intercept; refit at origin.
        xs = [1.0, 2.0, 3.0]
        ys = [0.1, 1.0, 10.0]
        intercept, slope = fit_line(xs, ys)
        assert intercept == 0.0
        assert slope > 0


class TestCalibrateWrapper:
    def test_scan_coefficients_recovered(self, oo7_wrapper):
        result = calibrate_wrapper(oo7_wrapper, collections=["AtomicParts"])
        # Device truth: 25 ms/page at 70 objects/page + 9 ms/object
        # -> ~9.36 ms per object scanned.
        assert result.coefficients.ms_per_object_scanned == pytest.approx(
            9.36, rel=0.05
        )

    def test_index_probes_recorded(self, paged_wrapper):
        result = calibrate_wrapper(paged_wrapper, collections=["Parts"])
        probes = [o for o in result.observations if o.kind == "index"]
        assert len(probes) == len(DEFAULT_PROBE_SELECTIVITIES)
        # The proportional fit is anchored by the largest probes (least
        # squares weights big k); it must pass near the biggest one.
        largest = max(probes, key=lambda o: o.rows)
        predicted = result.predicted_index_ms(largest.rows)
        assert predicted == pytest.approx(largest.measured_ms, rel=0.4)

    def test_linear_model_overshoots_at_high_selectivity(self, paged_wrapper):
        """The Figure 12 phenomenon on the simulated store: the calibrated
        proportional model overestimates once page accesses saturate, and
        underestimates the steep low-selectivity region."""
        result = calibrate_wrapper(paged_wrapper, collections=["Parts"])
        stats = paged_wrapper.engine.export_statistics("Parts")
        count = stats.count_object
        pages = paged_wrapper.engine.page_count("Parts")
        predicted_high = result.predicted_index_ms(0.7 * count)
        true_high = index_scan_cost_yao(0.7, count, pages)
        assert predicted_high > 1.2 * true_high
        predicted_low = result.predicted_index_ms(0.005 * count)
        true_low = index_scan_cost_yao(0.005, count, pages)
        assert predicted_low < true_low

    def test_probing_all_collections_by_default(self, oo7_wrapper):
        result = calibrate_wrapper(oo7_wrapper)
        probed = {o.collection for o in result.observations if o.kind == "scan"}
        assert "AtomicParts" in probed
        assert "Connections" in probed

    def test_statless_wrapper_rejected(self):
        wrapper = FlatFileWrapper("files", "log", rows=[{"a": 1}])
        with pytest.raises(CalibrationError):
            calibrate_wrapper(wrapper)

    def test_base_coefficients_preserved_elsewhere(self, oo7_wrapper):
        from repro.core.generic import GenericCoefficients

        base = GenericCoefficients(ms_per_message=42.0)
        result = calibrate_wrapper(
            oo7_wrapper, collections=["AtomicParts"], base=base
        )
        assert result.coefficients.ms_per_message == 42.0
        assert result.coefficients.ms_per_object_scanned != base.ms_per_object_scanned

    def test_result_is_dataclass_with_observations(self, oo7_wrapper):
        result = calibrate_wrapper(oo7_wrapper, collections=["AtomicParts"])
        assert isinstance(result, CalibrationResult)
        assert all(o.measured_ms > 0 for o in result.observations)
