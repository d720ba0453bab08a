"""Experiment E13 — online recalibration: drift recovery without
re-registration.

The scenario Odyssey calls "stale statistics" and the paper's §4.3
anticipates with historical *parameter adjustment*: one source's backend
changes behaviour mid-run.  Here the E8 three-branch federation runs a
west-heavy workload through the serving layer.  The generic cost model
(these wrappers export statistics only) over-estimates the scans' true
cost by roughly an order of magnitude — a *static* bias the calibrated
arm absorbs during the baseline phase.  Then the ``west`` backend is
upgraded mid-run: a :class:`~repro.wrappers.faults.FaultInjector`
profile swap makes it ×``SHIFT_SPEEDUP`` faster, with **no
re-registration** — the exported cost rules still describe the old,
slow source, compounding the static bias into a ~70× misprediction.

Two arms run the identical deterministic schedule:

* **calibrated** — the service's :class:`~repro.service.calibration.
  CalibrationManager` fits the drift window every ``cadence`` queries
  and installs guardrailed coefficient overlays; the per-query q-error
  (estimated vs. measured TotalTime) first converges during baseline,
  spikes at the shift, then recovers toward 1 as the smoothed,
  step-bounded multiplier walks down to the new truth;
* **control** — calibration off; every estimate stays wrong by the
  static bias times the shift factor.

The headline acceptance number is the *recovered-tail* ratio: the
median q-error of the calibrated arm over the last ``tail`` post-shift
queries must be ≤ 0.5× the control arm's.  The guardrails make the
recovery gradual by design (max_step bounds each overlay), which the
per-phase tables show as a falling "adapting" median.

Everything is deterministic: simulated clocks, deterministic fault
profiles (``latency_probability=1.0``), sequential service scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from repro.bench.harness import build_federation, format_table
from repro.mediator.calibration import CalibrationPolicy
from repro.obs.accuracy import q_error
from repro.service.calibration import CalibrationOptions
from repro.service.service import FederationService, ServiceOptions
from repro.wrappers.faults import FaultInjector, FaultProfile

#: The wrapper whose backend shifts mid-run.
SHIFT_WRAPPER = "west"
#: Speedup of the upgraded backend at the shift point (response times
#: shrink to ``1 / SHIFT_SPEEDUP`` of the registered behaviour).
SHIFT_SPEEDUP = 8.0

#: Bench-arm guardrails: the clamp floor is widened because the fitter
#: must correct a static ~9x over-estimate *times* the ×8 speedup —
#: a true multiplier around 0.014.  Everything else is stock.
BENCH_POLICY = dict(min_samples=3, clamp_min=0.005, clamp_max=10.0)

#: West-heavy query mix: the overall q-error must reflect the shifted
#: source, not be diluted by healthy-wrapper queries (which ride along
#: as a no-false-calibration check).
E13_QUERIES: tuple[tuple[str, str], ...] = (
    ("west wide", "SELECT oid, qty FROM OrdersWest WHERE qty > 30"),
    ("west scan", "SELECT oid, qty FROM OrdersWest WHERE qty > 60"),
    ("west narrow", "SELECT oid, qty FROM OrdersWest WHERE qty > 85"),
    ("east scan", "SELECT oid, qty FROM OrdersEast WHERE qty > 60"),
)


@dataclass
class PhaseStats:
    """q-error summary of one phase of one arm."""

    phase: str
    queries: int
    median_q: float
    mean_q: float
    max_q: float

    @classmethod
    def from_qs(cls, phase: str, qs: list[float]) -> "PhaseStats":
        if not qs:
            return cls(phase, 0, 0.0, 0.0, 0.0)
        return cls(
            phase=phase,
            queries=len(qs),
            median_q=median(qs),
            mean_q=sum(qs) / len(qs),
            max_q=max(qs),
        )


@dataclass
class ArmResult:
    """One arm's full run: per-query trail plus phase summaries."""

    arm: str
    phases: list[PhaseStats] = field(default_factory=list)
    #: (phase, label, estimated_ms, actual_ms, q) per query, in order.
    trail: list[tuple[str, str, float, float, float]] = field(
        default_factory=list
    )
    fits: int = 0
    overlays: int = 0
    active_version: int = 0
    #: Active TotalTime multiplier for the shifted wrapper at the end.
    final_multiplier: float = 1.0

    def phase(self, name: str) -> PhaseStats:
        for stats in self.phases:
            if stats.phase == name:
                return stats
        raise KeyError(name)


@dataclass
class CalibrationBenchResult:
    """E13 outcome: both arms plus the acceptance ratio."""

    calibrated: ArmResult
    control: ArmResult
    shift_speedup: float
    cadence: int
    baseline_queries: int
    shifted_queries: int
    tail_queries: int

    @property
    def recovered_ratio(self) -> float:
        """Calibrated tail median q over control tail median q."""
        control = self.control.phase("recovered").median_q
        if control <= 0.0:
            return float("inf")
        return self.calibrated.phase("recovered").median_q / control

    @property
    def passed(self) -> bool:
        """The ISSUE acceptance bar: calibrated ≤ 0.5× control."""
        return self.recovered_ratio <= 0.5

    def report(self) -> str:
        rows = []
        for arm in (self.control, self.calibrated):
            for stats in arm.phases:
                rows.append(
                    [
                        arm.arm,
                        stats.phase,
                        stats.queries,
                        round(stats.median_q, 2),
                        round(stats.mean_q, 2),
                        round(stats.max_q, 2),
                    ]
                )
        table = format_table(
            ("arm", "phase", "queries", "median q", "mean q", "max q"),
            rows,
            title=(
                f"E13 — {SHIFT_WRAPPER} backend x{self.shift_speedup:g} "
                "faster mid-run, recovery without re-registration"
            ),
        )
        return (
            f"{table}\n\nrecovered-tail median q: calibrated "
            f"{self.calibrated.phase('recovered').median_q:.2f} vs control "
            f"{self.control.phase('recovered').median_q:.2f} "
            f"(ratio {self.recovered_ratio:.3f}, bar 0.5 -> "
            f"{'PASS' if self.passed else 'FAIL'}); "
            f"{self.calibrated.overlays} overlay(s) applied, final "
            f"{SHIFT_WRAPPER} TotalTime multiplier "
            f"{self.calibrated.final_multiplier:.2f}"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E13",
            "shift_wrapper": SHIFT_WRAPPER,
            "shift_speedup": self.shift_speedup,
            "cadence_queries": self.cadence,
            "baseline_queries": self.baseline_queries,
            "shifted_queries": self.shifted_queries,
            "tail_queries": self.tail_queries,
            "recovered_ratio": self.recovered_ratio,
            "passed": self.passed,
            "arms": {
                arm.arm: {
                    "fits": arm.fits,
                    "overlays": arm.overlays,
                    "active_version": arm.active_version,
                    "final_multiplier": arm.final_multiplier,
                    "phases": [
                        {
                            "phase": s.phase,
                            "queries": s.queries,
                            "median_q": s.median_q,
                            "mean_q": s.mean_q,
                            "max_q": s.max_q,
                        }
                        for s in arm.phases
                    ],
                    "trail": [
                        {
                            "phase": phase,
                            "label": label,
                            "estimated_ms": estimated,
                            "actual_ms": actual,
                            "q_error": q,
                        }
                        for phase, label, estimated, actual, q in arm.trail
                    ],
                }
                for arm in (self.control, self.calibrated)
            },
        }


def _run_arm(
    arm: str,
    calibrate: bool,
    cadence: int,
    baseline_queries: int,
    shifted_queries: int,
    tail_queries: int,
) -> ArmResult:
    injectors: dict[str, FaultInjector] = {}

    def wrap(wrapper):
        injector = FaultInjector(wrapper, FaultProfile())
        injectors[wrapper.name] = injector
        return injector

    mediator = build_federation(wrap=wrap)
    calibration = (
        CalibrationOptions(
            cadence_queries=cadence,
            policy=CalibrationPolicy(**BENCH_POLICY),
        )
        if calibrate
        else None
    )
    service = FederationService(
        mediator, ServiceOptions(max_concurrent_queries=1, calibration=calibration)
    )
    session = service.open_session("bench")
    result = ArmResult(arm=arm)

    def run_phase(phase: str, count: int, offset: int) -> None:
        for index in range(count):
            label, sql = E13_QUERIES[(offset + index) % len(E13_QUERIES)]
            answer = service.query(session, sql)
            q = q_error(answer.estimated_ms, answer.elapsed_ms)
            result.trail.append(
                (phase, label, answer.estimated_ms, answer.elapsed_ms, q)
            )

    run_phase("baseline", baseline_queries, 0)
    # The mid-run shift: the west backend is upgraded and answers ×k
    # faster.  Nothing is re-registered — the exported cost rules still
    # describe the old source; only measurements can reveal the change.
    injectors[SHIFT_WRAPPER].set_profile(
        FaultProfile(
            latency_multiplier=1.0 / SHIFT_SPEEDUP, latency_probability=1.0
        )
    )
    adapting = shifted_queries - tail_queries
    run_phase("adapting", adapting, baseline_queries)
    run_phase("recovered", tail_queries, baseline_queries + adapting)

    for phase in ("baseline", "adapting", "recovered"):
        result.phases.append(
            PhaseStats.from_qs(
                phase, [q for p, _, _, _, q in result.trail if p == phase]
            )
        )
    if service.calibration is not None:
        result.fits = service.calibration.fits_attempted
        result.overlays = service.calibration.overlays_applied
    state = mediator.catalog.calibration
    result.active_version = state.active_version
    result.final_multiplier = state.multiplier_for(SHIFT_WRAPPER, "TotalTime")
    return result


def run_calibration_experiment(
    cadence: int = 8, shifted_windows: int = 10
) -> CalibrationBenchResult:
    """Run both arms over the identical deterministic schedule.

    The baseline is long enough (7 fit windows of ``cadence`` queries)
    for the calibrated arm to absorb the generic model's static bias
    before the shift lands; the shifted phase leaves ``shifted_windows``
    further windows to track the upgrade.
    """
    baseline_queries = 7 * cadence
    shifted_queries = shifted_windows * cadence
    tail_queries = 2 * cadence
    kwargs = dict(
        cadence=cadence,
        baseline_queries=baseline_queries,
        shifted_queries=shifted_queries,
        tail_queries=tail_queries,
    )
    control = _run_arm("control", calibrate=False, **kwargs)
    calibrated = _run_arm("calibrated", calibrate=True, **kwargs)
    return CalibrationBenchResult(
        calibrated=calibrated,
        control=control,
        shift_speedup=SHIFT_SPEEDUP,
        cadence=cadence,
        baseline_queries=baseline_queries,
        shifted_queries=shifted_queries,
        tail_queries=tail_queries,
    )
