"""Historical costs in action (§4.3.1): a mediator that learns.

A source registers *without* cost rules and with generic coefficients
tuned for a much faster class of system, so initial estimates are badly
off.  Two adaptation mechanisms then kick in:

1. **query-scope recording** — after a subquery runs once, its next
   estimate is the measured cost, exactly;
2. **parameter adjustment** — the drift tracker joins every estimate
   with its measurement, and the service's :class:`Calibrator` fits the
   drift into a calibration overlay (one multiplier per source and
   variable), improving estimates for queries that were *never*
   executed before.

Run:  python examples/adaptive_mediator.py
"""

import random

from repro import Mediator, ObjectStoreWrapper
from repro.bench.history_bench import E5_POLICY
from repro.core.generic import GenericCoefficients
from repro.mediator.calibration import Calibrator
from repro.oo7 import TINY, load_database


def build() -> Mediator:
    mediator = Mediator(record_history=True, observability=True)
    # Deliberately mis-calibrated generic model (4x too optimistic).
    mediator.coefficients.default = GenericCoefficients().scaled(0.25)
    mediator.register(
        ObjectStoreWrapper("oo7", load_database(TINY), export_rules=False)
    )
    return mediator


def relative_error(estimated: float, actual: float) -> float:
    return abs(estimated - actual) / actual


def main() -> None:
    mediator = build()
    rng = random.Random(17)

    print("phase 1 — the same subquery, repeated:")
    sql = "SELECT * FROM AtomicParts WHERE Id <= 60"
    for run in range(1, 4):
        estimated = mediator.plan(sql).estimated_total_ms
        result = mediator.query(sql)
        print(
            f"  run {run}: estimated {estimated:9.1f} ms, "
            f"measured {result.elapsed_ms:9.1f} ms "
            f"(error {relative_error(estimated, result.elapsed_ms):5.1%})"
        )
    print("  -> after one execution the query-scope rule makes it exact.\n")

    print("phase 2 — ten different range queries, measured by the drift tracker:")
    for _ in range(10):
        constant = rng.randrange(50, 200)
        mediator.query(f"SELECT * FROM AtomicParts WHERE Id <= {constant}")
    drift = mediator.telemetry.drift
    print(drift.report())
    worst = drift.worst()
    print(f"  worst TotalTime rule: {worst.rule} (mean q-error {worst.mean_q:.2f})")
    fit = Calibrator(E5_POLICY).fit(drift.snapshot(), mediator.catalog.calibration)
    for update in fit.updates:
        print(f"  fitted {update.key.as_string()}: x{update.proposed:.2f}")

    print("\nphase 3 — a brand-new query, before vs after applying the fit:")
    sql = "SELECT * FROM AtomicParts WHERE Id <= 123"
    before = mediator.plan(sql).estimated_total_ms
    mediator.apply_calibration(fit.updates)
    after = mediator.plan(sql).estimated_total_ms
    actual = mediator.query(sql).elapsed_ms
    print(f"  measured:           {actual:9.1f} ms")
    print(
        f"  estimate before:    {before:9.1f} ms "
        f"(error {relative_error(before, actual):5.1%})"
    )
    print(
        f"  estimate after:     {after:9.1f} ms "
        f"(error {relative_error(after, actual):5.1%})"
    )
    print(
        "\n  -> 'we store only the adjusted parameters instead of new "
        "formulas' (§4.3.1)"
    )


if __name__ == "__main__":
    main()
