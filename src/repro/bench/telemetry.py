"""Experiment E9 — overhead and payoff of the telemetry subsystem.

The observability layer (``repro.obs``) promises two things:

* **zero perturbation** — telemetry reads the simulated clock, it never
  charges it, so every simulated measurement (``elapsed_ms``, saved ms,
  cache counters) must be bit-identical with telemetry on or off;
* **cheap when off** — with ``ObservabilityOptions(enabled=False)`` (the
  default) every instrumentation site short-circuits on the shared null
  tracer, so the *wall-clock* cost of the pipeline should be unchanged.

E9 measures both on the E8 federation workload: the same queries run
under observability off / on, repeated ``repetitions`` times with a
fresh federation per repetition (engine buffer state must not leak
across modes), and the per-repetition wall-clock medians are compared.
The "on" runs also report what the telemetry bought: span counts per
query, the metrics-registry cross-check against ``QueryResult``
diagnostics, and the number of (scope, rule) drift cells populated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

from repro.bench.harness import WORKLOAD, build_federation, format_table
from repro.mediator.executor import ExecutorOptions
from repro.obs import ObservabilityOptions


@dataclass
class TelemetryExperiment:
    """All E9 measurements."""

    repetitions: int = 0
    #: (mode, median wall ms / workload, median simulated ms / workload)
    mode_rows: list[tuple[str, float, float]] = field(default_factory=list)
    #: Wall-clock overhead of enabled telemetry, percent of the off mode.
    overhead_enabled_pct: float = 0.0
    #: Simulated totals must agree across modes (zero perturbation).
    simulated_ms_identical: bool = True
    #: (query, spans, submit spans, wave spans, drift observations)
    trace_rows: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    #: Registry counters equal to the summed QueryResult diagnostics.
    metrics_consistent: bool = True
    #: Number of (scope, source, rule, variable) drift cells populated.
    drift_cells: int = 0

    def report(self) -> str:
        overhead = format_table(
            ("mode", "wall ms / workload (median)", "simulated ms / workload"),
            self.mode_rows,
            title="E9a — telemetry wall-clock overhead "
            f"({self.repetitions} repetitions)",
        )
        traces = format_table(
            ("query", "spans", "submit spans", "wave spans", "drift obs"),
            self.trace_rows,
            title="E9b — what the enabled telemetry records",
        )
        return (
            f"{overhead}\n\n{traces}\n\nenabled-telemetry overhead: "
            f"{self.overhead_enabled_pct:+.1f}% wall-clock; "
            f"simulated clocks identical: {self.simulated_ms_identical}; "
            f"metrics cross-check: {self.metrics_consistent}; "
            f"drift cells: {self.drift_cells}"
        )

    def to_json_dict(self) -> dict:
        """The simulated half; wall-clock medians and the overhead
        percentage are readings of this host and stay on stdout."""
        return {
            "experiment": "E9",
            "repetitions": self.repetitions,
            "modes": [
                {"mode": mode, "simulated_ms": simulated}
                for mode, _wall, simulated in self.mode_rows
            ],
            "simulated_ms_identical": self.simulated_ms_identical,
            "metrics_consistent": self.metrics_consistent,
            "drift_cells": self.drift_cells,
            "traces": [
                {
                    "query": label,
                    "spans": spans,
                    "submit_spans": submits,
                    "wave_spans": waves,
                    "drift_observations": drift,
                }
                for label, spans, submits, waves, drift in self.trace_rows
            ],
        }


#: E9 runs the workload with cache + concurrent dispatch on, so the
#: telemetry has waves, cache hits and drift joins to record.
_EXECUTOR = ExecutorOptions(parallel_submits=True, cache_subanswers=True)


def _run_workload(observability: ObservabilityOptions | None):
    """One fresh federation through the whole workload; returns
    (wall seconds, total simulated ms, mediator)."""
    mediator = build_federation(_EXECUTOR, observability=observability)
    start = time.perf_counter()
    simulated = 0.0
    for _label, sql in WORKLOAD:
        simulated += mediator.query(sql).elapsed_ms
    return time.perf_counter() - start, simulated, mediator


def run_telemetry_experiment(repetitions: int = 9) -> TelemetryExperiment:
    experiment = TelemetryExperiment(repetitions=repetitions)
    modes: tuple[tuple[str, ObservabilityOptions | None], ...] = (
        ("off (default)", None),
        ("on (all layers)", ObservabilityOptions.all_on()),
    )
    medians: dict[str, float] = {}
    simulated_totals: dict[str, float] = {}
    for mode_label, observability in modes:
        walls: list[float] = []
        simulated = 0.0
        for _ in range(repetitions):
            wall_s, simulated, _mediator = _run_workload(observability)
            walls.append(wall_s * 1000.0)
        medians[mode_label] = median(walls)
        simulated_totals[mode_label] = simulated
        experiment.mode_rows.append(
            (mode_label, round(medians[mode_label], 2), round(simulated, 1))
        )
    baseline = medians["off (default)"]
    experiment.overhead_enabled_pct = round(
        (medians["on (all layers)"] / baseline - 1.0) * 100.0, 1
    ) if baseline > 0 else 0.0
    experiment.simulated_ms_identical = (
        len(set(simulated_totals.values())) == 1
    )

    # One instrumented pass per query for the payoff tables.
    mediator = build_federation(
        _EXECUTOR, observability=ObservabilityOptions.all_on()
    )
    telemetry = mediator.telemetry
    assert telemetry is not None and telemetry.drift is not None
    total_hits = total_misses = total_submits = 0
    for label, sql in WORKLOAD:
        drift_before = telemetry.drift.observations
        result = mediator.query(sql)
        total_hits += result.cache_hits
        total_misses += result.cache_misses
        spans = list(result.trace.walk()) if result.trace else []
        total_submits += sum(1 for s in spans if s.kind == "submit")
        drift_after = telemetry.drift.observations
        experiment.trace_rows.append(
            (
                label,
                len(spans),
                sum(1 for s in spans if s.kind == "submit"),
                sum(1 for s in spans if s.kind == "wave"),
                drift_after - drift_before,
            )
        )
    metrics = telemetry.metrics
    assert metrics is not None
    experiment.metrics_consistent = (
        metrics["repro_cache_hits_total"].total() == total_hits
        and metrics["repro_cache_misses_total"].total() == total_misses
        and metrics["repro_submits_total"].total() == total_submits
    )
    experiment.drift_cells = len(telemetry.drift)
    return experiment
