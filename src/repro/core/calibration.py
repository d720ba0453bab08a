"""The calibration procedure of [DKS92]/[GST96] (§5, related work §6).

"First, several invariant coefficients appearing in cost formulas are
isolated.  Then, a set of queries on a calibrating database on each local
site are run to deduce cost formula coefficients."

:func:`calibrate_wrapper` reproduces that procedure against any wrapper:

* **sequential-scan probes** — one full scan per collection; a least
  squares fit of ``time = startup + per_object * N`` over the probes
  yields ``ms_scan_startup`` / ``ms_per_object_scanned``;
* **index probes** — low-selectivity range selections on an indexed
  attribute; fitting ``time = startup + per_selected * k`` yields the
  *linear* index-scan model (``ms_index_startup`` /
  ``ms_per_object_index``).

The linear index model is exactly the "calibrated formula" of Figure 12:
it matches the probes but, because the true page-access curve saturates
(Yao), it overshoots at high selectivity.  The Figure 12 benchmark uses
this module for its Calibration series.

Calibration is the no-rules end of the paper's spectrum: "the two extremes
indeed encompass calibration (i.e., no specific rules for a data source)
and historical query caching" (§1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import Scan, Select
from repro.core.generic import GenericCoefficients
from repro.core.statistics import CollectionStats
from repro.errors import CalibrationError
from repro.wrappers.base import Wrapper

#: Probe selectivities of the calibrating workload: low values, as a
#: calibrating database keeps probe queries cheap.
DEFAULT_PROBE_SELECTIVITIES = (0.005, 0.01, 0.02, 0.05, 0.10)


@dataclass(frozen=True)
class ProbeObservation:
    """One calibration probe: what ran and what was measured."""

    kind: str  # 'scan' or 'index'
    collection: str
    selectivity: float
    rows: int
    measured_ms: float


@dataclass
class CalibrationResult:
    """Fitted coefficients plus the raw probe data."""

    coefficients: GenericCoefficients
    observations: list[ProbeObservation] = field(default_factory=list)

    def predicted_index_ms(self, selected: float) -> float:
        """The calibrated (linear) index-scan estimate for ``selected``
        result objects — the Figure 12 "Calibration" curve."""
        return (
            self.coefficients.ms_index_startup
            + self.coefficients.ms_per_object_index * selected
        )

    def predicted_scan_ms(self, count: float) -> float:
        return (
            self.coefficients.ms_scan_startup
            + self.coefficients.ms_per_object_scanned * count
        )


def _numeric_indexed_attribute(stats: CollectionStats) -> str | None:
    """An indexed attribute with a numeric range, preferring more distinct
    values (better probe resolution)."""
    best: tuple[int, str] | None = None
    for attribute in stats.attributes.values():
        if not attribute.indexed or not attribute.has_range:
            continue
        if not attribute.min_value.is_numeric:  # type: ignore[union-attr]
            continue
        distinct = attribute.count_distinct or 0
        if best is None or distinct > best[0]:
            best = (distinct, attribute.name)
    return best[1] if best is not None else None


def fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares fit of ``y = intercept + slope * x``, both
    coefficients non-negative.  A fit whose intercept comes out negative
    (startup costs cannot be), or whose ``xs`` have no spread to tell
    intercept from slope, is refitted through the origin."""
    count = len(xs)
    if count == 0:
        return 0.0, 0.0
    mean_x, mean_y = math.fsum(xs) / count, math.fsum(ys) / count
    spread = math.fsum((x - mean_x) ** 2 for x in xs)
    if spread > 0.0:
        slope = (
            math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
            / spread
        )
        intercept = mean_y - slope * mean_x
        if intercept >= 0.0:
            return intercept, max(0.0, slope)
    return 0.0, _fit_proportional(xs, ys)


def _fit_proportional(xs: list[float], ys: list[float]) -> float:
    """Least-squares fit of ``y = slope * x`` through the origin."""
    denominator = math.fsum(x * x for x in xs)
    if denominator == 0:
        return 0.0
    return max(0.0, math.fsum(x * y for x, y in zip(xs, ys)) / denominator)


def calibrate_wrapper(
    wrapper: Wrapper,
    collections: list[str] | None = None,
    probe_selectivities: tuple[float, ...] = DEFAULT_PROBE_SELECTIVITIES,
    base: GenericCoefficients | None = None,
) -> CalibrationResult:
    """Run the calibrating workload against a wrapper and fit coefficients.

    Args:
        wrapper: the wrapper to probe (its simulated clock advances).
        collections: which collections to probe (default: all with
            statistics).
        probe_selectivities: range-selection selectivities of the index
            probes (low values, per the calibrating-database tradition).
        base: coefficients to start from; only the scan/index entries are
            replaced by fitted values.

    Raises:
        CalibrationError: no probe-able collection was found.
    """
    export = wrapper.export_cost_info()
    stats_by_name = {s.name: s for s in export.statistics}
    if collections is None:
        collections = sorted(stats_by_name)
    if not collections:
        raise CalibrationError(
            f"wrapper {wrapper.name!r} exports no statistics to calibrate against"
        )

    observations: list[ProbeObservation] = []
    scan_points: list[tuple[float, float]] = []
    index_points: list[tuple[float, float]] = []

    for collection in collections:
        stats = stats_by_name.get(collection)
        if stats is None or stats.count_object == 0:
            continue
        # Sequential-scan probe.
        result = wrapper.execute(Scan(collection))
        scan_points.append((float(result.count), result.total_time_ms))
        observations.append(
            ProbeObservation(
                kind="scan",
                collection=collection,
                selectivity=1.0,
                rows=result.count,
                measured_ms=result.total_time_ms,
            )
        )
        # Index probes on a numeric indexed attribute, if any.
        attribute = _numeric_indexed_attribute(stats)
        if attribute is None:
            continue
        attr_stats = stats.attribute(attribute)
        low = attr_stats.min_value.as_number()  # type: ignore[union-attr]
        high = attr_stats.max_value.as_number()  # type: ignore[union-attr]
        for selectivity in probe_selectivities:
            threshold = low + selectivity * (high - low)
            plan = Select(
                Scan(collection), Comparison("<=", attr(attribute), lit(threshold))
            )
            result = wrapper.execute(plan)
            index_points.append((float(result.count), result.total_time_ms))
            observations.append(
                ProbeObservation(
                    kind="index",
                    collection=collection,
                    selectivity=selectivity,
                    rows=result.count,
                    measured_ms=result.total_time_ms,
                )
            )

    if not scan_points:
        raise CalibrationError(
            f"wrapper {wrapper.name!r}: no collection could be probed"
        )

    coefficients = replace(base) if base is not None else GenericCoefficients()
    startup, per_object = fit_line(
        [n for n, _ in scan_points], [t for _, t in scan_points]
    )
    coefficients.ms_scan_startup = startup
    coefficients.ms_per_object_scanned = per_object
    if index_points:
        # The calibrated index model is *proportional*: "The formula
        # assumes that the number of pages fetched is proportional to the
        # selectivity of the operator" (§5).  Because the true page-access
        # curve is concave (Yao), the fitted slope is inflated by the
        # steep low-selectivity probes — the Figure 12 overshoot.
        per_selected = _fit_proportional(
            [n for n, _ in index_points], [t for _, t in index_points]
        )
        coefficients.ms_index_startup = 0.0
        coefficients.ms_per_object_index = per_selected
    return CalibrationResult(coefficients=coefficients, observations=observations)
