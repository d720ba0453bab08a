"""Online cost recalibration — closing the paper's §4.3 feedback loop.

The drift tracker (:mod:`repro.obs.accuracy`) measures how far every
cost-rule prediction lands from the executed truth.  This module *acts*
on those measurements: a :class:`Calibrator` re-fits per-wrapper
multiplicative corrections from drift aggregates and installs them as a
**versioned calibration overlay** on the catalog.  The estimator then
multiplies every wrapper-owned prediction by the active coefficient, so
the very next plan is costed with the corrected model — no wrapper
re-registration, no restart.

Design points, in the order they matter:

* **Keys.** A coefficient is addressed by
  :class:`CoefficientKey(wrapper, variable) <CoefficientKey>`.
  ``wrapper`` is the *owning source of the plan node* (who actually ran
  the work), not the source of the rule that priced it — a generic
  default-scope rule (``__mediator__``) prices every wrapper, yet each
  wrapper drifts independently.  One coefficient covers every rule scope
  at that wrapper: the fitter pools a wrapper's scopes.

* **Fit math (log space).** The drift tracker folds
  ``log(actual / estimate)`` per observation.  The geometric-mean ratio
  ``r = exp(sum_log_ratio / n)`` of a window measures the *residual*
  drift under the currently-active multiplier ``m`` (estimates already
  include it), so the true correction is ``m·r`` and the smoothed update
  is ``m·r^alpha`` — exponential smoothing with factor ``alpha``.

* **Guardrails.** No key is fitted below ``min_samples`` observations;
  a single update never moves a coefficient by more than ``max_step``
  in either direction; every coefficient is clamped to
  ``[clamp_min, clamp_max]``; sub-``min_change`` proposals are dropped
  as no-ops.  Together these give the properties the guardrail test
  battery asserts: updates stay in range, steps stay bounded, and on
  stationary drift the residual ``|log(R/m)|`` contracts monotonically.

* **Versioning.** :class:`CalibrationState` is an append-only list of
  overlays (version 0 is the identity) plus an ``active_version``
  pointer.  Applying a fit appends a new overlay built on top of the
  active one; rollback just moves the pointer, preserving history so a
  rollback can itself be rolled forward.  The catalog bumps its global
  version on every apply/rollback, which invalidates the plan cache's
  version-guarded entries for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.scopes import MEDIATOR_SOURCE


@dataclass(frozen=True)
class CoefficientKey:
    """Address of one calibrated coefficient: the multiplier applies to
    every rule scope at that wrapper, for that variable."""

    wrapper: str
    variable: str

    def as_string(self) -> str:
        return f"{self.wrapper}|{self.variable}"


@dataclass(frozen=True)
class CalibrationPolicy:
    """Guardrails for the fitter.  Every update obeys all of them."""

    #: Minimum pooled observations before a key may be fitted at all.
    min_samples: int = 8
    #: Exponential-smoothing factor: 1.0 jumps straight to the measured
    #: ratio, 0.0 never moves.
    alpha: float = 0.5
    #: Bound on one update: ``new in [old / max_step, old * max_step]``.
    max_step: float = 2.0
    #: Hard range every coefficient is clamped into.
    clamp_min: float = 0.1
    clamp_max: float = 10.0
    #: Relative change below which a proposal is dropped as a no-op
    #: (avoids churning catalog versions on noise).
    min_change: float = 1e-3
    #: Variables the fitter is allowed to touch.
    variables: tuple[str, ...] = ("TotalTime", "CountObject")

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.max_step <= 1.0:
            raise ValueError("max_step must be > 1")
        if not 0.0 < self.clamp_min <= 1.0 <= self.clamp_max:
            raise ValueError("clamp range must straddle 1.0")
        if self.min_change < 0.0:
            raise ValueError("min_change must be >= 0")


@dataclass(frozen=True)
class CoefficientUpdate:
    """One fitted change, with enough context to audit it."""

    key: CoefficientKey
    previous: float
    proposed: float
    #: Geometric-mean measured ratio actual/estimate over the window
    #: (residual drift under ``previous``).
    measured_ratio: float
    samples: int


@dataclass
class CalibrationFit:
    """Outcome of one fit pass over a drift window."""

    updates: list[CoefficientUpdate] = field(default_factory=list)
    #: Keys seen in the window but left alone, with the reason.
    skipped: dict[str, str] = field(default_factory=dict)
    #: Mean q-error of the window across all considered keys — the
    #: "how wrong were we" gauge the service exports.
    window_mean_q: float = 0.0

    @property
    def changed(self) -> bool:
        return bool(self.updates)


@dataclass(frozen=True)
class CalibrationOverlay:
    """One immutable version of the coefficient set."""

    version: int
    multipliers: dict[CoefficientKey, float] = field(default_factory=dict)
    note: str = ""

    def multiplier_for(self, wrapper: str, variable: str) -> float:
        """The fitted multiplier, identity when none was fitted."""
        return self.multipliers.get(CoefficientKey(wrapper, variable), 1.0)

    @property
    def is_identity(self) -> bool:
        return all(m == 1.0 for m in self.multipliers.values())


class CalibrationState:
    """Append-only overlay history with an active-version pointer.

    Version 0 is always the identity overlay (no multipliers); it is the
    rollback target that restores seed behaviour exactly.
    """

    def __init__(self) -> None:
        self.versions: list[CalibrationOverlay] = [
            CalibrationOverlay(version=0, note="identity")
        ]
        self.active_version = 0

    # -- reading ---------------------------------------------------------------

    @property
    def active(self) -> CalibrationOverlay:
        return self.versions[self.active_version]

    @property
    def latest_version(self) -> int:
        return len(self.versions) - 1

    def multiplier_for(self, wrapper: str, variable: str) -> float:
        return self.active.multiplier_for(wrapper, variable)

    @property
    def is_identity(self) -> bool:
        return self.active.is_identity

    def __len__(self) -> int:
        return len(self.versions)

    # -- mutation --------------------------------------------------------------

    def apply(
        self,
        updates: dict[CoefficientKey, float] | list[CoefficientUpdate],
        note: str = "",
    ) -> CalibrationOverlay:
        """Append a new overlay: active coefficients + the updates.

        Returns the new overlay, which becomes active.
        """
        if not isinstance(updates, dict):
            updates = {u.key: u.proposed for u in updates}
        merged = dict(self.active.multipliers)
        merged.update(updates)
        overlay = CalibrationOverlay(
            version=len(self.versions), multipliers=merged, note=note
        )
        self.versions.append(overlay)
        self.active_version = overlay.version
        return overlay

    def rollback(self, version: int) -> CalibrationOverlay:
        """Point the active overlay at any recorded version.

        History is preserved — a rollback can be rolled forward again.
        """
        if not 0 <= version < len(self.versions):
            raise ValueError(
                f"unknown calibration version {version} "
                f"(have 0..{self.latest_version})"
            )
        self.active_version = version
        return self.active

@dataclass
class _Pool:
    """Per-key accumulator while grouping drift rows."""

    samples: int = 0
    sum_log_ratio: float = 0.0
    sum_q: float = 0.0


class Calibrator:
    """Fits guardrailed coefficient updates from drift aggregates."""

    def __init__(self, policy: CalibrationPolicy | None = None) -> None:
        self.policy = policy or CalibrationPolicy()

    # -- fitting ---------------------------------------------------------------

    def fit(self, snapshot: dict, state: CalibrationState) -> CalibrationFit:
        """One fit pass over a drift window.

        ``snapshot`` is a :meth:`DriftTracker.snapshot` dict.  The
        returned fit is *not* applied; a mediator installs its updates
        with :meth:`MediatorCatalog.apply_calibration`, which also bumps
        the catalog version.
        """
        policy = self.policy
        pools: dict[CoefficientKey, _Pool] = {}
        fit = CalibrationFit()
        considered_q = 0.0
        considered_n = 0

        for row in snapshot.get("rules", ()):
            variable = row.get("variable")
            if variable not in policy.variables:
                continue
            wrapper = row.get("wrapper") or row.get("source") or ""
            if not wrapper or wrapper == MEDIATOR_SOURCE:
                # Mediator-side compose operators are never calibrated —
                # only work a wrapper actually executed.
                continue
            count = int(row.get("count", 0))
            if count <= 0:
                continue
            key = CoefficientKey(wrapper, variable)
            pool = pools.setdefault(key, _Pool())
            pool.samples += count
            pool.sum_log_ratio += float(row["sum_log_ratio"])
            pool.sum_q += float(row.get("mean_q_error", 0.0)) * count
            considered_q += float(row.get("mean_q_error", 0.0)) * count
            considered_n += count

        fit.window_mean_q = considered_q / considered_n if considered_n else 0.0

        for key in sorted(pools, key=CoefficientKey.as_string):
            pool = pools[key]
            if pool.samples < policy.min_samples:
                fit.skipped[key.as_string()] = (
                    f"below min_samples ({pool.samples} < {policy.min_samples})"
                )
                continue
            previous = state.multiplier_for(key.wrapper, key.variable)
            measured = math.exp(pool.sum_log_ratio / pool.samples)
            proposed = self.propose(previous, measured)
            if previous > 0 and abs(proposed / previous - 1.0) < policy.min_change:
                fit.skipped[key.as_string()] = "no-op (below min_change)"
                continue
            fit.updates.append(
                CoefficientUpdate(
                    key=key,
                    previous=previous,
                    proposed=proposed,
                    measured_ratio=measured,
                    samples=pool.samples,
                )
            )
        return fit

    def propose(self, previous: float, measured_ratio: float) -> float:
        """The guardrailed update rule for one coefficient.

        ``measured_ratio`` is the residual actual/estimate ratio under
        ``previous``; the smoothed target is ``previous * ratio^alpha``,
        then step-bounded, then range-clamped.
        """
        policy = self.policy
        smoothed = previous * measured_ratio**policy.alpha
        stepped = min(
            max(smoothed, previous / policy.max_step),
            previous * policy.max_step,
        )
        return min(max(stepped, policy.clamp_min), policy.clamp_max)

__all__ = [
    "CalibrationFit",
    "CalibrationOverlay",
    "CalibrationPolicy",
    "CalibrationState",
    "Calibrator",
    "CoefficientKey",
    "CoefficientUpdate",
]
