"""Service-level online calibration: the cadence loop.

:class:`CalibrationManager` closes the §4.3 feedback loop inside a
running :class:`~repro.service.service.FederationService`: every
finalized query's (estimate, measurement) pairs are folded into a
*window* :class:`~repro.obs.accuracy.DriftTracker`, and every
``cadence_queries`` queries the :class:`~repro.mediator.calibration.
Calibrator` fits the window and — when anything actually changed —
installs a new overlay through :meth:`Mediator.apply_calibration`.

The catalog-version bump that apply performs is the whole invalidation
story: the PR 4 plan cache is version-guarded, so stale plans evict on
their next lookup, and the estimator keeps nothing between plans.
Nothing here needs to reach into a cache.

The fit window **resets after every fit attempt** (applied or not): the
cadence defines the measurement window, so a misbehaving source shows
up with its recent drift, not diluted by hours of healthy history.

The window is global across tenants: plans are shared through the plan
cache, so a per-tenant coefficient set would be unsound without
per-tenant plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.mediator.calibration import (
    CalibrationFit,
    CalibrationPolicy,
    Calibrator,
)
from repro.obs.accuracy import DriftTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.mediator import Mediator, QueryResult
    from repro.obs.metrics import MetricsRegistry
    from repro.wrappers.base import ExecutionResult


@dataclass
class CalibrationOptions:
    """Knobs of the in-service calibration loop."""

    #: Fit the window every N finalized queries.
    cadence_queries: int = 32
    #: Guardrails handed to the fitter.
    policy: CalibrationPolicy = field(default_factory=CalibrationPolicy)

    def __post_init__(self) -> None:
        if self.cadence_queries < 1:
            raise ValueError("cadence_queries must be >= 1")


class CalibrationManager:
    """Feeds measured queries into windowed drift and fits on cadence."""

    def __init__(
        self,
        mediator: "Mediator",
        options: CalibrationOptions,
        metrics: "MetricsRegistry",
    ) -> None:
        self.mediator = mediator
        self.options = options
        self.metrics = metrics
        self.calibrator = Calibrator(options.policy)
        self.window = self._fresh_window()
        #: Queries folded into the current window.
        self.window_queries = 0
        self.fits_attempted = 0
        self.overlays_applied = 0
        self.last_fit: CalibrationFit | None = None

    # -- feeding ---------------------------------------------------------------

    def record(
        self, result: "QueryResult", execution: "ExecutionResult"
    ) -> CalibrationFit | None:
        """Fold one finalized query in; fit when the cadence is due.

        Returns the fit when one ran, else None.
        """
        submit_log = self._clean_submit_log(execution)
        self.window.observe_plan(result.estimate, submit_log)
        self.window_queries += 1
        if self.window_queries >= self.options.cadence_queries:
            return self.run_fit()
        return None

    @staticmethod
    def _clean_submit_log(execution: "ExecutionResult") -> list:
        """The submit log minus fault-tainted measurements.

        A retried, failed-over, or hedged submit's wall time includes
        backoff waits or another replica's service time; fitting the
        cost model on those actuals would fold transient fault handling
        into permanent coefficients.
        """
        return [
            (submit, measured)
            for submit, measured in execution.submit_log
            if not getattr(measured, "fault_tainted", False)
        ]

    # -- fitting ---------------------------------------------------------------

    def run_fit(self, note: str = "") -> CalibrationFit:
        """Fit the current window now (cadence or operator-forced)."""
        self.fits_attempted += 1
        state = self.mediator.catalog.calibration
        fit = self.calibrator.fit(self.window.snapshot(), state)
        if fit.changed:
            self.mediator.apply_calibration(
                fit.updates,
                note=note
                or (
                    f"service fit #{self.fits_attempted} over "
                    f"{self.window_queries} queries"
                ),
                observations=fit.observations,
            )
            self.overlays_applied += 1
        self._export_metrics(fit)
        self.last_fit = fit
        self.window = self._fresh_window()
        self.window_queries = 0
        return fit

    # -- internals -------------------------------------------------------------

    def _fresh_window(self) -> DriftTracker:
        window = DriftTracker()
        for name in self.mediator.catalog.wrapper_names():
            window.expect_wrapper(name)
        return window

    def _export_metrics(self, fit: CalibrationFit) -> None:
        updates = self.metrics.counter(
            "repro_calibration_updates_total",
            "Calibration coefficient updates applied",
            ("wrapper",),
        )
        for update in fit.updates:
            updates.inc(wrapper=update.key.wrapper)
        self.metrics.counter(
            "repro_calibration_fits_total", "Calibration fit passes run"
        ).inc()
        self.metrics.gauge(
            "repro_calibration_qerror",
            "Mean q-error of the last calibration fit window",
        ).set(fit.window_mean_q)
        self.metrics.gauge(
            "repro_calibration_active_version",
            "Active calibration overlay version",
        ).set(float(self.mediator.catalog.calibration.active_version))


__all__ = ["CalibrationManager", "CalibrationOptions"]
