"""The in-service calibration loop: cadence, windows, metrics, cache.

Drives a real :class:`FederationService` over the sales federation with
a deliberately skewed fault profile, so the drift window has something
to fit, and asserts the manager's operational contract: fits run
exactly on cadence, the window resets after every fit attempt, applied
overlays bump the catalog version and evict version-guarded plan-cache
entries, and every ``repro_calibration_*`` series lands in the metrics
exposition.
"""

import pytest

from repro.mediator.calibration import CalibrationPolicy
from repro.mediator.mediator import Mediator
from repro.service.calibration import CalibrationManager, CalibrationOptions
from repro.service.service import FederationService, ServiceOptions
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_sales_wrapper

SQL = "SELECT * FROM Orders WHERE qty > 70"


def build_service(
    cadence=4,
    min_samples=1,
    latency_multiplier=5.0,
    **policy_kwargs,
):
    mediator = Mediator()
    # A deterministic ×k latency fault makes every estimate wrong by a
    # known factor — guaranteed drift for the fitter to chew on.
    mediator.register(
        FaultInjector(
            build_sales_wrapper(),
            FaultProfile(
                latency_multiplier=latency_multiplier, latency_probability=1.0
            ),
        )
    )
    options = ServiceOptions(
        calibration=CalibrationOptions(
            cadence_queries=cadence,
            policy=CalibrationPolicy(min_samples=min_samples, **policy_kwargs),
        )
    )
    return mediator, FederationService(mediator, options)


def run_queries(service, count, tenant="t0"):
    session = service.open_session(tenant)
    for _ in range(count):
        service.query(session, SQL)


class TestCadence:
    def test_fit_runs_exactly_every_cadence_queries(self):
        _, service = build_service(cadence=4)
        manager = service.calibration
        run_queries(service, 3)
        assert manager.fits_attempted == 0
        assert manager.window_queries == 3
        run_queries(service, 1)
        assert manager.fits_attempted == 1
        run_queries(service, 8)
        assert manager.fits_attempted == 3

    def test_window_resets_after_every_fit_attempt(self):
        _, service = build_service(cadence=3, min_samples=10**6)
        manager = service.calibration
        run_queries(service, 3)
        # Fit attempted (and skipped everything) — window still resets.
        assert manager.fits_attempted == 1
        assert manager.overlays_applied == 0
        assert manager.window_queries == 0
        assert all(
            row["count"] == 0 for row in manager.window.snapshot()["rules"]
        )

    def test_record_returns_fit_only_on_cadence(self):
        mediator, service = build_service(cadence=2)
        manager = service.calibration
        session = service.open_session("t0")
        service.query(session, SQL)
        assert manager.last_fit is None
        service.query(session, SQL)
        assert manager.last_fit is not None

    def test_options_validated(self):
        with pytest.raises(ValueError):
            CalibrationOptions(cadence_queries=0)


class TestOverlayLifecycle:
    def test_overlay_applied_and_estimates_corrected(self):
        mediator, service = build_service(cadence=4)
        before = mediator.catalog.version
        run_queries(service, 4)
        manager = service.calibration
        assert manager.overlays_applied >= 1
        assert mediator.catalog.calibration.active_version >= 1
        assert mediator.catalog.version > before
        # Direction check against a no-fault control: the generic model
        # statically over-estimates this wrapper, so both arms fit a
        # multiplier below identity — but the ×5-slower arm must land
        # strictly higher than the unfaulted one.
        multiplier = mediator.catalog.calibration.multiplier_for(
            "sales", "TotalTime"
        )
        assert multiplier != 1.0
        control_mediator, control = build_service(
            cadence=4, latency_multiplier=1.0
        )
        run_queries(control, 4)
        control_multiplier = (
            control_mediator.catalog.calibration.multiplier_for(
                "sales", "TotalTime"
            )
        )
        assert multiplier > control_multiplier

    def test_applied_overlay_evicts_plan_cache_entries(self):
        mediator, service = build_service(cadence=4)
        assert service.plan_cache is not None
        run_queries(service, 4)  # query 4 triggers the fit + version bump
        invalidations_before = service.plan_cache.stats.invalidations
        run_queries(service, 1)  # stale entry detected on next lookup
        assert service.plan_cache.stats.invalidations > invalidations_before

    def test_forced_fit_uses_operator_note(self):
        mediator, service = build_service(cadence=10**6)
        run_queries(service, 3)
        fit = service.calibration.run_fit(note="operator forced")
        assert fit.changed
        assert mediator.catalog.calibration.active.note == "operator forced"

    def test_fit_without_drift_adds_no_overlay(self):
        mediator, service = build_service(cadence=10**6)
        manager = service.calibration
        version = mediator.catalog.version
        fit = manager.run_fit()  # empty window: nothing measured yet
        assert not fit.changed
        assert manager.overlays_applied == 0
        assert mediator.catalog.version == version
        assert len(mediator.catalog.calibration) == 1
        run_queries(service, 3)
        assert manager.run_fit().changed
        assert manager.overlays_applied == 1
        assert mediator.catalog.version == version + 1
        assert mediator.catalog.calibration.active_version == 1
        # The window was reset by the fit: a second fit changes nothing.
        assert not manager.run_fit().changed
        assert manager.overlays_applied == 1
        assert mediator.catalog.version == version + 1
        assert len(mediator.catalog.calibration) == 2


class TestMetrics:
    def test_all_series_exported(self):
        _, service = build_service(cadence=4)
        run_queries(service, 4, tenant="acme")
        text = service.metrics.expose_text()
        assert "repro_calibration_fits_total 1" in text
        assert 'repro_calibration_updates_total{wrapper="sales"}' in text
        assert "repro_calibration_qerror " in text
        assert "repro_calibration_active_version 1" in text

    def test_tenants_share_one_window(self):
        _, service = build_service(cadence=4)
        run_queries(service, 2, tenant="a")
        run_queries(service, 2, tenant="b")
        # Plans are shared across tenants, so one global window counts
        # every tenant's queries toward the cadence.
        assert service.calibration.fits_attempted == 1
        assert service.calibration.window_queries == 0


class TestConvergence:
    def test_repeated_fits_shrink_window_qerror(self):
        # Stationary ×5 drift: each fit walks the multiplier toward
        # truth, so the fit-window mean q must be (weakly) improving
        # between the first and the last window.
        _, service = build_service(cadence=4)
        manager = service.calibration
        qs = []
        session = service.open_session("t0")
        for _ in range(6):
            for _ in range(4):
                service.query(session, SQL)
            qs.append(manager.last_fit.window_mean_q)
        assert qs[-1] < qs[0]
        assert qs[-1] == pytest.approx(1.0, abs=0.35)


class TestManagerDirect:
    def test_manager_window_expects_all_wrappers(self):
        mediator, service = build_service()
        manager = service.calibration
        assert isinstance(manager, CalibrationManager)
        rows = manager.window.snapshot()["rules"]
        # Zero-sample placeholder rows exist before any query ran.
        assert rows and all(row["count"] == 0 for row in rows)
        assert {row["wrapper"] for row in rows} == {"sales"}
