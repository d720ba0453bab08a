"""E16 — cost-model validation against measured wall-clock time.

Every earlier experiment validates the blended cost model against our
own simulator.  E16 closes the loop the paper's Figure 12 opened: the
Fig. 12 query shape (an index-scan selectivity sweep over the oo7
``AtomicParts`` extent) runs on a **real federation** — a SQLite
database file and a webish source with genuine injected latency —
through the :class:`~repro.rt.backend.RealTimeBackend`, and the
wrapper-exported (probe-calibrated) cost rules are regressed against
the *measured wall-clock* response times.

Two quantities are reported per candidate plan, and two in aggregate:

* **q-error** — ``max(est/meas, meas/est)`` per plan: how far the
  predicted milliseconds are from the measured ones;
* **Spearman rank correlation** of the plan ordering: does sorting
  plans by predicted cost reproduce their measured-time order?  This is
  the quantity an optimizer actually needs, and the one CI enforces
  (:data:`MIN_SPEARMAN`) — a correlation threshold survives noisy
  runners where an absolute-time threshold would not.

Measurements take the **median** over ``repeats`` runs; the subanswer
cache is disabled so every run really executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from repro.algebra.expressions import Comparison, attr, lit
from repro.algebra.logical import Scan, Select
from repro.bench.harness import format_table
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.oo7 import schema
from repro.rt import RealTimeBackend, SQLiteWrapper, WebLatencyWrapper

#: The Fig. 12 x axis, reused as the candidate-plan generator.
DEFAULT_SELECTIVITIES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

#: The rank correlation below which ``python -m repro.bench`` fails.
MIN_SPEARMAN = 0.7


@dataclass
class RealtimePoint:
    """One candidate plan: predicted cost vs measured wall time."""

    label: str
    source: str
    selectivity: float
    rows: int
    estimated_ms: float
    measured_ms: float

    @property
    def q_error(self) -> float:
        lo = max(1e-9, min(self.estimated_ms, self.measured_ms))
        hi = max(self.estimated_ms, self.measured_ms)
        return hi / lo


@dataclass
class RealtimeResult:
    """The E16 report."""

    config: str
    repeats: int
    points: list[RealtimePoint] = field(default_factory=list)

    @property
    def spearman(self) -> float:
        return spearman_rank_correlation(
            [p.estimated_ms for p in self.points],
            [p.measured_ms for p in self.points],
        )

    @property
    def median_q_error(self) -> float:
        return median(p.q_error for p in self.points) if self.points else 0.0

    @property
    def passed(self) -> bool:
        return self.spearman >= MIN_SPEARMAN

    def report(self) -> str:
        rows = [
            [
                p.label,
                p.source,
                p.selectivity,
                p.rows,
                round(p.estimated_ms, 3),
                round(p.measured_ms, 3),
                round(p.q_error, 2),
            ]
            for p in self.points
        ]
        return format_table(
            (
                "plan",
                "source",
                "selectivity",
                "rows",
                "estimated (ms)",
                "measured (ms)",
                "q-error",
            ),
            rows,
            title=(
                f"E16 — predicted cost vs measured wall time "
                f"(oo7 {self.config}, median of {self.repeats}; "
                f"Spearman {self.spearman:.3f} (bar {MIN_SPEARMAN} -> "
                f"{'PASS' if self.passed else 'FAIL'}), "
                f"median q-error {self.median_q_error:.2f})"
            ),
        )

    def to_json_dict(self) -> dict:
        """The plan grid and its answer sizes.  Measured times are wall
        clock, and so are the estimates (the SQLite wrapper fits its
        cost rules to timed probes), so both stay on stdout."""
        return {
            "experiment": "E16",
            "config": self.config,
            "repeats": self.repeats,
            "points": [
                {
                    "label": p.label,
                    "source": p.source,
                    "selectivity": p.selectivity,
                    "rows": p.rows,
                }
                for p in self.points
            ],
        }


def _rank(values: "list[float]") -> "list[float]":
    """Fractional ranks (ties averaged), 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tie_end = position
        while (
            tie_end + 1 < len(order)
            and values[order[tie_end + 1]] == values[order[position]]
        ):
            tie_end += 1
        averaged = (position + tie_end) / 2.0 + 1.0
        for index in order[position : tie_end + 1]:
            ranks[index] = averaged
        position = tie_end + 1
    return ranks


def spearman_rank_correlation(
    xs: "list[float]", ys: "list[float]"
) -> float:
    """Pearson correlation of the fractional ranks."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0
    rank_x, rank_y = _rank(xs), _rank(ys)
    mean_x = sum(rank_x) / len(rank_x)
    mean_y = sum(rank_y) / len(rank_y)
    covariance = sum(
        (a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y)
    )
    spread_x = sum((a - mean_x) ** 2 for a in rank_x) ** 0.5
    spread_y = sum((b - mean_y) ** 2 for b in rank_y) ** 0.5
    if spread_x == 0.0 or spread_y == 0.0:
        return 0.0
    return covariance / (spread_x * spread_y)


def _web_reviews(rows: int = 400) -> "list[dict]":
    return [
        {"rid": i, "pid": i % 97, "score": float(i % 100)} for i in range(rows)
    ]


def run_realtime(
    config: schema.OO7Config = schema.SMALL,
    selectivities: tuple[float, ...] = DEFAULT_SELECTIVITIES,
    repeats: int = 5,
    latency_ms: float = 10.0,
    seed: int = 7,
) -> RealtimeResult:
    """Run the E16 federation and collect the regression points."""
    backend = RealTimeBackend()
    sqlite = SQLiteWrapper(
        "sqlite_oo7", config=config, seed=seed, extents=("AtomicParts",)
    )
    web = WebLatencyWrapper(
        "web",
        {"Reviews": _web_reviews()},
        latency_ms=latency_ms,
        per_row_ms=0.05,
    )
    mediator = Mediator(
        executor_options=ExecutorOptions(
            parallel_submits=True, backend=backend
        )
    )
    mediator.register(sqlite)
    mediator.register(web)
    estimator = mediator.estimator

    result = RealtimeResult(config=config.name, repeats=repeats)
    try:
        atomic = mediator.catalog.statistics.get("AtomicParts")
        id_stats = atomic.attribute("Id")
        low = id_stats.min_value.as_number()  # type: ignore[union-attr]
        high = id_stats.max_value.as_number()  # type: ignore[union-attr]
        for selectivity in selectivities:
            threshold = low + selectivity * (high - low)
            plan = Select(
                Scan("AtomicParts"),
                Comparison("<=", attr("Id"), lit(threshold)),
            )
            estimate = estimator.estimate(
                plan, default_source="sqlite_oo7"
            ).total_time
            sql = f"SELECT * FROM AtomicParts WHERE Id <= {threshold:.0f}"
            rows, measured = _measure(mediator, sql, repeats)
            result.points.append(
                RealtimePoint(
                    label=f"oo7<= {selectivity:.2f}",
                    source="sqlite",
                    selectivity=selectivity,
                    rows=rows,
                    estimated_ms=estimate,
                    measured_ms=measured,
                )
            )
        for selectivity in selectivities:
            threshold = selectivity * 100.0
            plan = Select(
                Scan("Reviews"),
                Comparison("<=", attr("score"), lit(threshold)),
            )
            estimate = estimator.estimate(plan, default_source="web").total_time
            sql = f"SELECT * FROM Reviews WHERE score <= {threshold:.0f}"
            rows, measured = _measure(mediator, sql, repeats)
            result.points.append(
                RealtimePoint(
                    label=f"web<= {selectivity:.2f}",
                    source="web",
                    selectivity=selectivity,
                    rows=rows,
                    estimated_ms=estimate,
                    measured_ms=measured,
                )
            )
    finally:
        sqlite.close()
        backend.close()
    return result


def _measure(
    mediator: Mediator, sql: str, repeats: int
) -> "tuple[int, float]":
    rows = 0
    samples: list[float] = []
    for _ in range(repeats):
        answer = mediator.query(sql)
        rows = len(answer.rows)
        samples.append(answer.elapsed_ms)
    return rows, median(samples)
