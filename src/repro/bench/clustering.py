"""Experiment E6 — clustering (§7).

"We particularly investigate the case of clustering, which can not be
easily captured by a calibrating model."  The same extent is loaded twice
— physically **scattered** (placement uncorrelated with the indexed
attribute; Yao's regime) and **clustered** on the indexed attribute
(selected objects sit on consecutive pages).  An index scan of the same
selectivity then differs by an order of magnitude in pages fetched, and:

* the calibrated linear model, fitted on either store, has no way to
  express the difference (one coefficient, two behaviours);
* the wrapper *knows* its clustering and exports the matching rule —
  the Yao formula for the scattered extent, a consecutive-pages formula
  for the clustered one — so the blended estimates track both stores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import Scan, Select
from repro.bench.harness import ErrorSummary, format_table
from repro.bench.fig12 import build_estimator
from repro.mediator.probe_fit import calibrate_wrapper
from repro.sources.objectdb import ObjectDatabase
from repro.wrappers.objectstore import ObjectStoreWrapper

DEFAULT_SELECTIVITIES = (0.02, 0.05, 0.1, 0.2, 0.4)


def build_store(clustering: str, count: int = 7000) -> ObjectStoreWrapper:
    """One extent of ``count`` 56-byte objects (~100 pages), loaded with
    the given clustering policy and indexed on Id."""
    db = ObjectDatabase()
    db.create_extent(
        "Parts",
        [{"Id": i} for i in range(count)],
        object_size=56,
        indexed_attributes=["Id"],
        clustering=clustering,
    )
    return ObjectStoreWrapper("store", db)


@dataclass
class ClusteringPoint:
    selectivity: float
    scattered_pages: int
    clustered_pages: int
    scattered_measured_ms: float
    clustered_measured_ms: float
    scattered_rule_ms: float
    clustered_rule_ms: float
    calibration_ms: float  # one linear model for both stores


@dataclass
class ClusteringResult:
    count: int
    page_count: int
    points: list[ClusteringPoint] = field(default_factory=list)

    def report(self) -> str:
        table = format_table(
            (
                "sel",
                "pages scat",
                "pages clus",
                "scat meas",
                "scat rule",
                "clus meas",
                "clus rule",
                "calib (one model)",
            ),
            [
                [
                    p.selectivity,
                    p.scattered_pages,
                    p.clustered_pages,
                    p.scattered_measured_ms,
                    p.scattered_rule_ms,
                    p.clustered_measured_ms,
                    p.clustered_rule_ms,
                    p.calibration_ms,
                ]
                for p in self.points
            ],
            title=(
                f"E6 — clustering: index scan on {self.count} objects / "
                f"{self.page_count} pages (ms)"
            ),
        )
        return (
            f"{table}\n\nmean rel err — scattered rule "
            f"{self.scattered_rule_error.mean_relative_error:.3f}, "
            f"clustered rule "
            f"{self.clustered_rule_error.mean_relative_error:.3f}, "
            f"single calibrated model on clustered "
            f"{self.calibration_error_on_clustered.mean_relative_error:.3f}"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E6",
            "count": self.count,
            "page_count": self.page_count,
            "points": [asdict(p) for p in self.points],
        }

    @property
    def scattered_rule_error(self) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (p.scattered_rule_ms, p.scattered_measured_ms) for p in self.points
        )

    @property
    def clustered_rule_error(self) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (p.clustered_rule_ms, p.clustered_measured_ms) for p in self.points
        )

    @property
    def calibration_error_on_clustered(self) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (p.calibration_ms, p.clustered_measured_ms) for p in self.points
        )


def run_clustering(
    selectivities: tuple[float, ...] = DEFAULT_SELECTIVITIES, count: int = 7000
) -> ClusteringResult:
    scattered = build_store("scattered", count)
    clustered = build_store("clustered:Id", count)
    # One calibration, fitted on the scattered store — a single linear
    # model, as the calibrating approach would maintain per source class.
    calibration = calibrate_wrapper(scattered, collections=["Parts"])
    scattered_estimator = build_estimator(scattered)
    clustered_estimator = build_estimator(clustered)

    result = ClusteringResult(
        count=count, page_count=scattered.engine.page_count("Parts")
    )
    for selectivity in selectivities:
        threshold = int(selectivity * count) - 1
        plan = Select(Scan("Parts"), Comparison("<=", attr("Id"), lit(threshold)))
        scat_est = scattered_estimator.estimate(plan, default_source=scattered.name)
        plan2 = Select(Scan("Parts"), Comparison("<=", attr("Id"), lit(threshold)))
        clus_est = clustered_estimator.estimate(plan2, default_source=clustered.name)
        rows_s, scat_ms, scat_pages = scattered.database.timed_index_scan(
            "Parts", "Id", high=threshold
        )
        rows_c, clus_ms, clus_pages = clustered.database.timed_index_scan(
            "Parts", "Id", high=threshold
        )
        assert len(rows_s) == len(rows_c)
        result.points.append(
            ClusteringPoint(
                selectivity=selectivity,
                scattered_pages=scat_pages,
                clustered_pages=clus_pages,
                scattered_measured_ms=scat_ms,
                clustered_measured_ms=clus_ms,
                scattered_rule_ms=scat_est.total_time,
                clustered_rule_ms=clus_est.total_time,
                calibration_ms=calibration.predicted_index_ms(len(rows_s)),
            )
        )
    return result
