"""Unit battery for the calibration layer (§4.3 feedback loop).

Covers the pieces in isolation: coefficient keys and their string
form, policy validation, the guardrailed fit math, overlay state
apply/rollback, and the estimator actually consuming the active
overlay (with provenance tags and mediator-side exclusion).
"""

import math

import pytest

from repro.core.scopes import MEDIATOR_SOURCE
from repro.mediator.calibration import (
    CalibrationOverlay,
    CalibrationPolicy,
    CalibrationState,
    Calibrator,
    CoefficientKey,
)
from repro.errors import TransientSourceError
from repro.mediator.mediator import Mediator
from repro.wrappers.base import Wrapper
from tests.federation_fixtures import build_sales_wrapper

K_TT = CoefficientKey("sales", "TotalTime")


def drift_row(
    wrapper="sales",
    variable="TotalTime",
    count=10,
    ratio=2.0,
    scope="wrapper",
    mean_q=2.0,
):
    """One DriftTracker.snapshot() rule row with a chosen geo ratio."""
    return {
        "scope": scope,
        "source": MEDIATOR_SOURCE,
        "rule": "generic-scan",
        "variable": variable,
        "wrapper": wrapper,
        "count": count,
        "sum_log_ratio": count * math.log(ratio),
        "geo_mean_ratio": ratio,
        "mean_q_error": mean_q,
        "max_q_error": mean_q,
    }


def snapshot(*rows):
    return {"rules": list(rows)}


class TestCoefficientKey:
    def test_serializes_wrapper_and_variable(self):
        assert CoefficientKey("w", "TotalTime").as_string() == "w|TotalTime"


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_samples=0),
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(max_step=1.0),
            dict(clamp_min=0.0),
            dict(clamp_min=2.0, clamp_max=3.0),  # does not straddle 1.0
            dict(clamp_max=0.5),
            dict(min_change=-1e-6),
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CalibrationPolicy(**kwargs)

    def test_defaults_are_valid(self):
        CalibrationPolicy()


class TestFitMath:
    def test_measured_ratio_is_geometric_mean(self):
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            snapshot(drift_row(count=4, ratio=4.0)), CalibrationState()
        )
        [update] = fit.updates
        assert update.measured_ratio == pytest.approx(4.0)
        # alpha=0.5 smoothing: 1.0 * 4^0.5 = 2.0, exactly max_step.
        assert update.proposed == pytest.approx(2.0)

    def test_pools_rows_of_same_wrapper_across_scopes(self):
        fit = Calibrator(CalibrationPolicy(min_samples=6)).fit(
            snapshot(
                drift_row(count=3, ratio=2.0, scope="wrapper"),
                drift_row(count=3, ratio=8.0, scope="default"),
            ),
            CalibrationState(),
        )
        [update] = fit.updates
        assert update.key == K_TT
        assert update.samples == 6
        assert update.measured_ratio == pytest.approx(4.0)

    def test_below_min_samples_is_skipped_not_fitted(self):
        fit = Calibrator(CalibrationPolicy(min_samples=11)).fit(
            snapshot(drift_row(count=10)), CalibrationState()
        )
        assert not fit.updates
        assert fit.skipped == {
            "sales|TotalTime": "below min_samples (10 < 11)"
        }

    def test_mediator_side_rows_never_calibrated(self):
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            snapshot(drift_row(wrapper=MEDIATOR_SOURCE), drift_row(wrapper="")),
            CalibrationState(),
        )
        assert not fit.updates and not fit.skipped

    def test_zero_count_rows_ignored(self):
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            snapshot(drift_row(count=0)), CalibrationState()
        )
        assert not fit.updates and not fit.skipped

    def test_variable_allowlist_enforced(self):
        fit = Calibrator(
            CalibrationPolicy(min_samples=1, variables=("CountObject",))
        ).fit(snapshot(drift_row(variable="TotalTime")), CalibrationState())
        assert not fit.updates

    def test_noop_proposal_dropped_below_min_change(self):
        fit = Calibrator(CalibrationPolicy(min_samples=1, min_change=0.01)).fit(
            snapshot(drift_row(ratio=1.0001)), CalibrationState()
        )
        assert not fit.updates
        assert "no-op" in fit.skipped["sales|TotalTime"]

    def test_fit_measures_residual_under_active_multiplier(self):
        # With m=4 active and a residual window ratio of 1/2, the
        # smoothed proposal walks m toward 4·(1/2)=2: 4·(1/2)^0.5 ≈ 2.83.
        state = CalibrationState()
        state.apply({K_TT: 4.0})
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            snapshot(drift_row(ratio=0.5)), state
        )
        [update] = fit.updates
        assert update.previous == pytest.approx(4.0)
        assert update.proposed == pytest.approx(4.0 * 0.5**0.5)

    def test_window_mean_q_weighted_by_count(self):
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            snapshot(
                drift_row(count=1, mean_q=10.0), drift_row(count=3, mean_q=2.0)
            ),
            CalibrationState(),
        )
        assert fit.window_mean_q == pytest.approx((10.0 + 3 * 2.0) / 4)


class TestStateVersioning:
    def test_version_zero_is_identity(self):
        state = CalibrationState()
        assert state.active_version == 0
        assert state.is_identity
        assert state.multiplier_for("anything", "TotalTime") == 1.0

    def test_apply_merges_onto_active(self):
        state = CalibrationState()
        state.apply({K_TT: 2.0})
        other = CoefficientKey("oo7", "TotalTime")
        state.apply({other: 0.5})
        assert state.active_version == 2
        assert state.multiplier_for("sales", "TotalTime") == 2.0
        assert state.multiplier_for("oo7", "TotalTime") == 0.5

    def test_rollback_restores_exact_coefficients_and_preserves_history(self):
        state = CalibrationState()
        state.apply({K_TT: 2.0})
        state.apply({K_TT: 3.0})
        expected = dict(state.versions[1].multipliers)
        state.rollback(1)
        assert state.active_version == 1
        assert dict(state.active.multipliers) == expected
        assert len(state) == 3  # nothing was deleted
        # Roll forward again: the newer overlay is still there.
        state.rollback(2)
        assert state.multiplier_for("sales", "TotalTime") == 3.0

    def test_rollback_to_unknown_version_rejected(self):
        state = CalibrationState()
        with pytest.raises(ValueError):
            state.rollback(1)
        with pytest.raises(ValueError):
            state.rollback(-1)

    def test_unfitted_key_is_identity(self):
        overlay = CalibrationOverlay(
            version=1, multipliers={CoefficientKey("w", "TotalTime"): 2.0}
        )
        assert overlay.multiplier_for("w", "TotalTime") == 2.0
        assert overlay.multiplier_for("w", "CountObject") == 1.0
        assert overlay.multiplier_for("other", "TotalTime") == 1.0


class TestEstimatorApplication:
    SQL = "SELECT * FROM Orders WHERE qty > 90"

    def build(self):
        mediator = Mediator()
        mediator.register(build_sales_wrapper())
        return mediator

    def test_overlay_scales_wrapper_estimates_and_tags_provenance(self):
        mediator = self.build()
        before = mediator.query(self.SQL).estimated_ms
        baseline_explain = mediator.explain(self.SQL)
        mediator.apply_calibration({K_TT: 2.0}, note="test")
        result = mediator.query(self.SQL)
        # Every wrapper-owned TotalTime doubles; parents consume the
        # calibrated children, so the plan total at least doubles.
        assert result.estimated_ms >= 2.0 * before
        explain = mediator.explain(self.SQL)
        assert "calibrated x2 (v1)" in explain
        # Rollback to identity byte-restores the seed explain.
        mediator.rollback_calibration(0)
        assert mediator.explain(self.SQL) == baseline_explain
        assert mediator.query(self.SQL).estimated_ms == before

    def test_apply_and_rollback_bump_catalog_version(self):
        mediator = self.build()
        v0 = mediator.catalog.version
        mediator.apply_calibration({K_TT: 2.0})
        v1 = mediator.catalog.version
        mediator.rollback_calibration(0)
        assert v1 > v0 and mediator.catalog.version > v1

    def test_mediator_side_values_never_scaled(self):
        mediator = self.build()
        mediator.apply_calibration({K_TT: 1000.0})
        result = mediator.query(self.SQL)
        tagged = [
            text
            for node in result.estimate.nodes.values()
            for text in node.provenance.values()
            if "calibrated" in text
        ]
        # Wrapper-owned values were calibrated, but the mediator-side
        # root (the local-submit value, owned by no source) never is.
        assert tagged
        root_estimate = result.estimate.nodes[result.plan.node_id]
        for text in root_estimate.provenance.values():
            assert "local-submit" not in text or "calibrated" not in text

    def test_unrelated_wrapper_key_is_inert(self):
        mediator = self.build()
        baseline = mediator.explain(self.SQL)
        mediator.apply_calibration(
            {CoefficientKey("not-registered", "TotalTime"): 7.0}
        )
        assert mediator.explain(self.SQL) == baseline

    def test_state_is_shared_with_catalog(self):
        mediator = self.build()
        mediator.apply_calibration({K_TT: 2.0})
        assert mediator.estimator.calibration is mediator.catalog.calibration
        assert mediator.catalog.calibration.active_version == 1


class TestFaultTaintedExclusion:
    """Satellite: fault-inflated actuals must not poison the fit window.

    A retried, failed-over, or hedged submit's measured wall time folds
    backoff sleeps or another replica's service time into the actual;
    :class:`~repro.service.calibration.CalibrationManager` drops those
    rows before feeding the window tracker."""

    SQL = "SELECT * FROM Suppliers WHERE sid < 25"

    def build(self):
        from repro.mediator.executor import ExecutorOptions
        from repro.mediator.resilience import ResilienceOptions, RetryPolicy
        from repro.obs.metrics import MetricsRegistry
        from repro.service.calibration import (
            CalibrationManager,
            CalibrationOptions,
        )

        class FailsOnDemand(Wrapper):
            def __init__(self, inner):
                super().__init__(inner.name, inner.capabilities)
                self.inner = inner
                self.remaining_failures = 0

            def export_cost_info(self):
                return self.inner.export_cost_info()

            def execute(self, plan):
                if self.remaining_failures > 0:
                    self.remaining_failures -= 1
                    raise TransientSourceError("induced", elapsed_ms=30.0)
                return self.inner.execute(plan)

        mediator = Mediator(
            executor_options=ExecutorOptions(
                resilience=ResilienceOptions(
                    retry=RetryPolicy(max_attempts=3, backoff_base_ms=0.0)
                )
            )
        )
        wrapper = FailsOnDemand(build_sales_wrapper())
        mediator.register(wrapper)
        manager = CalibrationManager(
            mediator,
            CalibrationOptions(cadence_queries=10**6),
            MetricsRegistry(),
        )
        return mediator, wrapper, manager

    def record_one(self, mediator, manager):
        from types import SimpleNamespace

        planned = mediator.plan(self.SQL)
        execution = mediator.executor.execute(planned.plan)
        manager.record(SimpleNamespace(estimate=planned.estimate), execution)
        return execution

    def window_count(self, manager):
        return sum(
            row["count"] for row in manager.window.snapshot()["rules"]
        )

    def test_clean_submit_log_drops_only_tainted_rows(self):
        from dataclasses import replace

        from repro.service.calibration import CalibrationManager

        mediator, _, _ = self.build()
        execution = mediator.executor.execute(
            mediator.plan(self.SQL).plan
        )
        submit, measured = execution.submit_log[0]
        assert not measured.fault_tainted
        tainted = replace(
            execution,
            submit_log=[
                (submit, measured),
                (submit, replace(measured, fault_tainted=True)),
            ],
        )
        cleaned = CalibrationManager._clean_submit_log(tainted)
        assert cleaned == [(submit, measured)]

    def test_retried_submits_stay_out_of_the_window(self):
        mediator, wrapper, manager = self.build()
        wrapper.remaining_failures = 1  # the submit retries once
        execution = self.record_one(mediator, manager)
        assert execution.submit_log[0][1].fault_tainted
        assert manager.window_queries == 1
        # The tainted measurement never reached the window tracker.
        assert self.window_count(manager) == 0

    def test_clean_submits_still_feed_the_window(self):
        mediator, _, manager = self.build()
        self.record_one(mediator, manager)
        assert self.window_count(manager) > 0

    def test_mixed_history_fits_only_on_clean_actuals(self):
        mediator, wrapper, manager = self.build()
        before = 0
        for fail in (True, False, True, False):
            wrapper.remaining_failures = 1 if fail else 0
            self.record_one(mediator, manager)
            count = self.window_count(manager)
            if fail:
                assert count == before  # unchanged by the tainted query
            else:
                assert count > before
            before = count
