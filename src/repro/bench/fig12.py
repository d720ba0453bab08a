"""Figure 12: "Improvement of ObjectStore calibration" (§5).

The paper's validation experiment: an index scan over the OO7
``AtomicParts`` extent (70 000 objects × 56 bytes, 1000 pages, 96 % fill
of 4096-byte pages, uniform ``Id``), response time against selectivity in
[0, 0.7], three series:

* **Experiment** — measured response time (here: the simulated object
  store's clock, charging IO = 25 ms/page and Output = 9 ms/object —
  the paper's 0.025 s / 0.009 s);
* **Calibration** — the [GST96]-style calibrated estimate: a linear
  model fitted on low-selectivity probes
  (:mod:`repro.core.calibration`), which overshoots as the page accesses
  saturate;
* **Yao formula** — the wrapper-exported Figure 13 rule, evaluated
  through the *actual* blended-cost-model pipeline (CDL compilation,
  registration, rule matching, formula evaluation).

The paper's qualitative claims, checked by ``tests/bench/test_shape_fig12.py``:
the measured curve is concave; the Yao estimate tracks it closely; the
calibrated line diverges above it at high selectivity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import Scan, Select
from repro.bench.harness import ERROR_HEADERS, ErrorSummary, format_table
from repro.core.calibration import CalibrationResult, calibrate_wrapper
from repro.core.estimator import CostEstimator
from repro.core.generic import CoefficientSet, standard_repository
from repro.mediator.registration import register_wrapper
from repro.mediator.catalog import MediatorCatalog
from repro.oo7 import PAPER, OO7Config, load_database
from repro.wrappers.objectstore import ObjectStoreWrapper

#: The paper's x axis: selectivity 0 → 0.7.
DEFAULT_SELECTIVITIES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass
class Fig12Point:
    """One x-position of Figure 12."""

    selectivity: float
    selected_objects: int
    pages_fetched: int
    measured_ms: float
    calibration_ms: float
    yao_rule_ms: float


@dataclass
class Fig12Result:
    """The full figure: configuration, calibration fit, and the series."""

    config: OO7Config
    count_object: int
    page_count: int
    calibration: CalibrationResult
    points: list[Fig12Point] = field(default_factory=list)

    def report(self) -> str:
        series = format_table(
            (
                "selectivity",
                "objects",
                "pages",
                "Experiment (s)",
                "Calibration (s)",
                "Yao formula (s)",
            ),
            [
                [
                    p.selectivity,
                    p.selected_objects,
                    p.pages_fetched,
                    p.measured_ms / 1000.0,
                    p.calibration_ms / 1000.0,
                    p.yao_rule_ms / 1000.0,
                ]
                for p in self.points
            ],
            title=(
                f"Figure 12 — index scan on AtomicParts "
                f"({self.count_object} objects, {self.page_count} pages)"
            ),
        )
        errors = format_table(
            ERROR_HEADERS,
            [
                self.yao_error.row("yao rule"),
                self.calibration_error.row("calibration"),
            ],
            title="Figure 12 — estimation error vs experiment",
        )
        return f"{series}\n\n{errors}"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E1",
            "config": self.config.name,
            "count_object": self.count_object,
            "page_count": self.page_count,
            "points": [asdict(p) for p in self.points],
            "yao_error": self.yao_error.to_json_dict(),
            "calibration_error": self.calibration_error.to_json_dict(),
        }

    @property
    def yao_error(self) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (p.yao_rule_ms, p.measured_ms) for p in self.points
        )

    @property
    def calibration_error(self) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (p.calibration_ms, p.measured_ms) for p in self.points
        )


def build_wrapper(config: OO7Config = PAPER, seed: int = 7) -> ObjectStoreWrapper:
    """The experiment's wrapper: AtomicParts only, scattered placement."""
    database = load_database(config, seed, extents=("AtomicParts",))
    return ObjectStoreWrapper("oo7", database)


def build_estimator(wrapper: ObjectStoreWrapper) -> CostEstimator:
    """An estimator with the wrapper's Yao rules registered — the full
    §2.1 registration pipeline, not a shortcut."""
    catalog = MediatorCatalog()
    repository = standard_repository()
    estimator = CostEstimator(
        repository, catalog.statistics, coefficients=CoefficientSet()
    )
    register_wrapper(wrapper, catalog, repository, estimator)
    return estimator


def run_fig12(
    config: OO7Config = PAPER,
    selectivities: tuple[float, ...] = DEFAULT_SELECTIVITIES,
    seed: int = 7,
) -> Fig12Result:
    """Regenerate Figure 12."""
    wrapper = build_wrapper(config, seed)
    engine = wrapper.database
    stats = engine.export_statistics("AtomicParts")
    count = stats.count_object
    pages = engine.page_count("AtomicParts")
    id_stats = stats.attribute("Id")
    low = id_stats.min_value.as_number()  # type: ignore[union-attr]
    high = id_stats.max_value.as_number()  # type: ignore[union-attr]

    # Calibration series: probe, then extrapolate the fitted linear model.
    calibration = calibrate_wrapper(wrapper, collections=["AtomicParts"])

    # Yao series: estimates produced by the registered Figure 13 rule.
    estimator = build_estimator(wrapper)

    result = Fig12Result(
        config=config, count_object=count, page_count=pages, calibration=calibration
    )
    for selectivity in selectivities:
        threshold = low + selectivity * (high - low)
        plan = Select(
            Scan("AtomicParts"), Comparison("<=", attr("Id"), lit(threshold))
        )
        estimate = estimator.estimate(plan, default_source="oo7")
        _rows, measured_ms, pages_fetched = wrapper.database.timed_index_scan(
            "AtomicParts", "Id", high=threshold
        )
        selected = len(_rows)
        result.points.append(
            Fig12Point(
                selectivity=selectivity,
                selected_objects=selected,
                pages_fetched=pages_fetched,
                measured_ms=measured_ms,
                calibration_ms=calibration.predicted_index_ms(selected),
                yao_rule_ms=estimate.total_time,
            )
        )
    return result
