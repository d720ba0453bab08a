"""Unit and property tests for repro.core.selectivity and the Yao oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selectivity import (
    EquiDepthHistogram,
    EquiWidthHistogram,
    equality_selectivity,
    inequality_selectivity,
    join_selectivity,
    range_selectivity,
)
from repro.core.statistics import AttributeStats
from tests.yao_oracle import (
    index_scan_cost_linear,
    index_scan_cost_yao,
    yao_exact,
    yao_fraction,
    yao_pages,
)


def attr(distinct=None, low=None, high=None, indexed=False):
    return AttributeStats(
        "a", indexed=indexed, count_distinct=distinct, min_value=low, max_value=high
    )


class TestUniformEstimates:
    def test_equality_is_one_over_distinct(self):
        assert equality_selectivity(attr(distinct=100)) == pytest.approx(0.01)

    def test_equality_fallback(self):
        assert equality_selectivity(attr()) == pytest.approx(0.1)

    def test_inequality_complements(self):
        assert inequality_selectivity(attr(distinct=4)) == pytest.approx(0.75)

    def test_range_interpolates(self):
        stats = attr(low=0, high=100)
        assert range_selectivity(stats, 0, 50) == pytest.approx(0.5)
        assert range_selectivity(stats, 25, 75) == pytest.approx(0.5)

    def test_range_clamps_to_domain(self):
        stats = attr(low=0, high=100)
        assert range_selectivity(stats, -50, 200) == pytest.approx(1.0)

    def test_range_empty(self):
        stats = attr(low=0, high=100)
        assert range_selectivity(stats, 80, 20) == 0.0

    def test_range_one_sided(self):
        stats = attr(low=0, high=100)
        assert range_selectivity(stats, None, 25) == pytest.approx(0.25)
        assert range_selectivity(stats, 75, None) == pytest.approx(0.25)

    def test_range_without_stats_uses_third(self):
        assert range_selectivity(attr(), 0, 10) == pytest.approx(1 / 3)

    def test_range_single_valued_domain(self):
        assert range_selectivity(attr(low=5, high=5), 0, 10) == 1.0

    def test_range_exclusive_bounds_shave_mass(self):
        stats = attr(distinct=100, low=0, high=100)
        inclusive = range_selectivity(stats, 0, 50)
        exclusive = range_selectivity(
            stats, 0, 50, low_inclusive=False, high_inclusive=False
        )
        assert exclusive < inclusive

    def test_range_string_bounds(self):
        stats = attr(low="a", high="z")
        mid = range_selectivity(stats, "a", "m")
        assert 0.0 < mid < 1.0

    def test_join_selectivity_uses_larger_distinct(self):
        assert join_selectivity(attr(distinct=10), attr(distinct=1000)) == pytest.approx(
            0.001
        )

    def test_join_selectivity_fallback(self):
        assert join_selectivity(attr(), attr()) == pytest.approx(0.01)

    def test_join_selectivity_one_side_known(self):
        assert join_selectivity(attr(distinct=50), attr()) == pytest.approx(0.02)


class TestHistograms:
    def test_equi_width_covers_all_values(self):
        histogram = EquiWidthHistogram.build(list(range(100)), bucket_count=10)
        assert sum(b.count for b in histogram.buckets) == 100

    def test_equi_depth_balances_counts(self):
        histogram = EquiDepthHistogram.build(list(range(100)), bucket_count=10)
        counts = [b.count for b in histogram.buckets]
        assert max(counts) - min(counts) <= 1

    def test_range_selectivity_uniform_data(self):
        histogram = EquiWidthHistogram.build(list(range(1000)), bucket_count=20)
        assert histogram.selectivity_range(0, 499) == pytest.approx(0.5, abs=0.05)

    def test_eq_selectivity(self):
        histogram = EquiWidthHistogram.build([1] * 90 + [100] * 10, bucket_count=2)
        assert histogram.selectivity_eq(1) == pytest.approx(0.9)

    def test_skew_better_than_uniform(self):
        """Histograms exist to beat uniform estimates on skewed data."""
        values = [1] * 900 + list(range(2, 102))
        histogram = EquiDepthHistogram.build(values, bucket_count=10)
        est = histogram.selectivity_range(2, 101)
        true = 100 / 1000
        assert est == pytest.approx(true, abs=0.15)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            EquiWidthHistogram.build([])
        with pytest.raises(ValueError):
            EquiDepthHistogram.build([])

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            EquiWidthHistogram.build([1.0], bucket_count=0)

    def test_single_value_histogram(self):
        histogram = EquiWidthHistogram.build([5.0] * 10)
        assert histogram.selectivity_eq(5.0) == pytest.approx(1.0)
        assert histogram.selectivity_range(None, None) == pytest.approx(1.0)

    def test_out_of_range_eq_is_zero(self):
        histogram = EquiWidthHistogram.build(list(range(10)))
        assert histogram.selectivity_eq(99.0) == 0.0

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        buckets=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50)
    def test_property_selectivities_in_unit_interval(self, values, buckets):
        for cls in (EquiWidthHistogram, EquiDepthHistogram):
            histogram = cls.build(values, bucket_count=buckets)
            assert 0.0 <= histogram.selectivity_range(None, None) <= 1.0
            assert 0.0 <= histogram.selectivity_eq(values[0]) <= 1.0

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=10, max_size=300
        )
    )
    @settings(max_examples=50)
    def test_property_full_range_captures_everything(self, values):
        histogram = EquiDepthHistogram.build([float(v) for v in values], 8)
        assert histogram.selectivity_range(-1, 1001) == pytest.approx(1.0, abs=1e-9)


class TestYao:
    # The paper's §5 experiment: 70 000 objects on 1000 pages.
    N, M = 70000, 1000

    def test_zero_selectivity_fetches_nothing(self):
        assert yao_pages(0.0, self.N, self.M) == 0.0
        assert yao_exact(self.N, self.M, 0) == 0.0

    def test_full_selectivity_fetches_all_pages(self):
        assert yao_pages(1.0, self.N, self.M) == pytest.approx(self.M, rel=1e-9)
        assert yao_exact(self.N, self.M, self.N) == pytest.approx(self.M)

    def test_saturation_at_high_object_density(self):
        """With 70 objects/page, even 10% selectivity touches ~all pages."""
        assert yao_fraction(0.10, self.N, self.M) > 0.99

    def test_exact_close_to_approximation(self):
        for selectivity in (0.001, 0.01, 0.05, 0.2):
            selected = int(selectivity * self.N)
            exact = yao_exact(self.N, self.M, selected)
            approx = yao_pages(selectivity, self.N, self.M)
            assert approx == pytest.approx(exact, rel=0.05)

    def test_monotone_in_selectivity(self):
        fractions = [yao_fraction(s / 100, self.N, self.M) for s in range(0, 100, 5)]
        assert fractions == sorted(fractions)

    def test_concavity(self):
        """The Yao curve is concave — the phenomenon Figure 12 exploits."""
        f = lambda s: yao_pages(s, self.N, self.M)
        assert f(0.02) - f(0.01) > f(0.61) - f(0.60)

    @given(
        selectivity=st.floats(min_value=0.0, max_value=1.0),
        count_object=st.integers(min_value=1, max_value=10**6),
        count_page=st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=100)
    def test_property_fraction_bounded(self, selectivity, count_object, count_page):
        fraction = yao_fraction(selectivity, count_object, count_page)
        assert 0.0 <= fraction <= 1.0

    @given(
        count_object=st.integers(min_value=1, max_value=5000),
        count_page=st.integers(min_value=1, max_value=100),
        selected=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=100)
    def test_property_exact_bounded_by_pages_and_picks(
        self, count_object, count_page, selected
    ):
        pages = yao_exact(count_object, count_page, selected)
        assert 0.0 <= pages <= count_page + 1e-9
        assert pages <= min(selected, count_object) + 1e-9 or count_page == 0


class TestCostCurves:
    def test_yao_cost_uses_paper_constants(self):
        # sel=0.7 on the OO7 AtomicParts: ~1000 pages * 25ms + 49000 * 9ms
        cost = index_scan_cost_yao(0.7, 70000, 1000)
        assert cost == pytest.approx(25.0 * 1000 + 0.7 * 70000 * 9.0, rel=0.01)

    def test_linear_cost_proportional(self):
        assert index_scan_cost_linear(0.5, 1000, 2.0) == pytest.approx(1000.0)

    def test_linear_overshoots_yao_at_high_selectivity(self):
        """The Figure 12 gap: a coefficient fitted at low selectivity
        overestimates once the page accesses saturate."""
        slope = index_scan_cost_yao(0.01, 70000, 1000) / (0.01 * 70000)
        linear = index_scan_cost_linear(0.7, 70000, slope)
        true = index_scan_cost_yao(0.7, 70000, 1000)
        assert linear > 1.2 * true
