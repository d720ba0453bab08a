"""Experiment E5 — historical costs (§4.3.1).

Three measurements:

* **convergence** — estimation error of a repeated subquery before and
  after its first execution: query-scope recording drives the error of an
  *identical* subquery to (near) zero;
* **the limitation the paper states** — "new formulas are restricted to
  one specific subquery and cannot be reused for another, closely related
  subqueries (for instance, subqueries that vary only by the constant used
  [in] a predicate)": error on perturbed constants stays at the base
  model's level under pure query-scope recording;
* **parameter adjustment** — the paper's proposed fix: the
  :class:`~repro.core.history.OnlineCalibrator` adjusts the source's
  shared coefficients from observed (estimate, actual) pairs, improving
  *nearby* subqueries too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.harness import format_table
from repro.core.history import OnlineCalibrator
from repro.mediator.mediator import Mediator
from repro.oo7 import TINY, OO7Config, load_database
from repro.wrappers import ObjectStoreWrapper


def build_mediator(
    config: OO7Config = TINY, seed: int = 7, record_history: bool = True
) -> Mediator:
    """A one-source mediator *without* wrapper rules and with generic
    coefficients calibrated for a much faster class of system (scaled to
    a quarter of their defaults) — the §1 situation where "a data source
    does not follow the generic cost model", giving history something
    substantial to fix."""
    from repro.core.generic import GenericCoefficients

    mediator = Mediator(record_history=record_history)
    mediator.coefficients.default = GenericCoefficients().scaled(0.25)
    wrapper = ObjectStoreWrapper(
        "oo7", load_database(config, seed), export_rules=False
    )
    mediator.register(wrapper)
    return mediator


def _relative_error(estimated: float, actual: float) -> float:
    return abs(estimated - actual) / actual if actual > 0 else 0.0


@dataclass
class HistoryResult:
    """E5 measurements."""

    convergence_rows: list[tuple[int, float]] = field(default_factory=list)
    perturbed_error_query_scope: float = 0.0
    perturbed_error_adjusted: float = 0.0
    base_error: float = 0.0

    def report(self) -> str:
        convergence = format_table(
            ("execution #", "relative error before run"),
            self.convergence_rows,
            title="E5a — identical subquery: error converges after one run",
        )
        generalization = format_table(
            ("model", "mean rel err on perturbed constants"),
            [
                ("base (no history)", self.base_error),
                ("query-scope recording", self.perturbed_error_query_scope),
                ("parameter adjustment", self.perturbed_error_adjusted),
            ],
            title="E5b — nearby subqueries (constants vary)",
        )
        return f"{convergence}\n\n{generalization}"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E5",
            "convergence": [
                {"execution": execution, "relative_error": error}
                for execution, error in self.convergence_rows
            ],
            "base_error": self.base_error,
            "perturbed_error_query_scope": self.perturbed_error_query_scope,
            "perturbed_error_adjusted": self.perturbed_error_adjusted,
        }


def run_convergence(
    repetitions: int = 4, config: OO7Config = TINY
) -> list[tuple[int, float]]:
    mediator = build_mediator(config)
    sql = "SELECT * FROM AtomicParts WHERE Id <= 77"
    rows: list[tuple[int, float]] = []
    for execution in range(1, repetitions + 1):
        estimated = mediator.plan(sql).estimated_total_ms
        result = mediator.query(sql)
        rows.append((execution, _relative_error(estimated, result.elapsed_ms)))
    return rows


def run_generalization(
    config: OO7Config = TINY, probes: int = 10, seed: int = 3
) -> tuple[float, float, float]:
    """Returns (base error, query-scope error, adjusted error) on queries
    whose constants differ from everything previously executed."""
    rng = random.Random(seed)
    count = load_database(config).collection("AtomicParts").count

    training = [rng.randrange(count // 4, count) for _ in range(probes)]
    testing = [rng.randrange(count // 4, count) for _ in range(probes)]

    # Base model, no history at all.
    base = build_mediator(config, record_history=False)
    base_errors = []
    for constant in testing:
        sql = f"SELECT * FROM AtomicParts WHERE Id <= {constant}"
        estimated = base.plan(sql).estimated_total_ms
        actual = base.query(sql).elapsed_ms
        base_errors.append(_relative_error(estimated, actual))

    # Query-scope recording trained on *different* constants.
    recorded = build_mediator(config, record_history=True)
    for constant in training:
        recorded.query(f"SELECT * FROM AtomicParts WHERE Id <= {constant}")
    recorded_errors = []
    for constant in testing:
        sql = f"SELECT * FROM AtomicParts WHERE Id <= {constant}"
        estimated = recorded.plan(sql).estimated_total_ms
        actual = recorded.query(sql).elapsed_ms
        recorded_errors.append(_relative_error(estimated, actual))

    # Parameter adjustment: observe the training pairs, scale coefficients.
    adjusted = build_mediator(config, record_history=False)
    calibrator = OnlineCalibrator()
    for constant in training:
        sql = f"SELECT * FROM AtomicParts WHERE Id <= {constant}"
        estimated = adjusted.plan(sql).estimated_total_ms
        actual = adjusted.query(sql).elapsed_ms
        calibrator.observe("oo7", estimated, actual)
    calibrator.apply(adjusted.coefficients)
    adjusted_errors = []
    for constant in testing:
        sql = f"SELECT * FROM AtomicParts WHERE Id <= {constant}"
        estimated = adjusted.plan(sql).estimated_total_ms
        actual = adjusted.query(sql).elapsed_ms
        adjusted_errors.append(_relative_error(estimated, actual))

    mean = lambda xs: sum(xs) / len(xs)
    return mean(base_errors), mean(recorded_errors), mean(adjusted_errors)


def run_history(config: OO7Config = TINY) -> HistoryResult:
    base, recorded, adjusted = run_generalization(config)
    return HistoryResult(
        convergence_rows=run_convergence(config=config),
        base_error=base,
        perturbed_error_query_scope=recorded,
        perturbed_error_adjusted=adjusted,
    )
