"""Experiment E10 — fault tolerance: answered-query rate and latency
versus fault probability.

The E8 three-branch federation runs under injected fault profiles: each
branch wrapper is decorated with a :class:`~repro.wrappers.faults.
FaultInjector` whose transient-error probability sweeps a grid.  For
every cell the same workload runs twice:

* **strict mode** — a submit that exhausts its retries fails the whole
  query; the *answered rate* drops with the fault probability;
* **partial mode** — the query completes with the surviving subtrees;
  everything answers, and the *complete rate* (answers that are not
  degraded) shows how often retries repaired the faults outright.

Latency is the mean simulated elapsed time of the answered queries —
retries, backoff sleeps and breaker fast-fails all charge the simulated
clock, so degradation cost is visible in the same milliseconds the cost
model predicts.  Everything is deterministic: per-wrapper fault seeds
derive from the grid cell, and backoff jitter runs on the scheduler's
seeded RNG.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.bench.harness import WORKLOAD, build_federation, format_table
from repro.errors import SubmitFailedError
from repro.mediator.executor import ExecutorOptions
from repro.mediator.resilience import (
    PARTIAL,
    STRICT,
    BreakerPolicy,
    ResilienceOptions,
    RetryPolicy,
)
from repro.wrappers.faults import FaultInjector, FaultProfile

#: The default fault-probability sweep (p = per-attempt transient-error
#: probability of *each* of the three branch wrappers).
PROBABILITIES: tuple[float, ...] = (0.0, 0.05, 0.15, 0.3, 0.5)

#: Simulated time a transient failure takes to surface at the wrapper.
ERROR_LATENCY_MS = 30.0


def _resilience(mode: str, seed: int) -> ResilienceOptions:
    return ResilienceOptions(
        retry=RetryPolicy(
            max_attempts=3,
            backoff_base_ms=50.0,
            backoff_multiplier=2.0,
            backoff_max_ms=500.0,
            jitter_ratio=0.2,
        ),
        breaker=BreakerPolicy(failure_threshold=5, cooldown_ms=2_000.0),
        mode=mode,
        seed=seed,
    )


def _faulted_federation(mode: str, probability: float, seed: int):
    def wrap(wrapper):
        return FaultInjector(
            wrapper,
            FaultProfile(
                error_probability=probability,
                error_latency_ms=ERROR_LATENCY_MS,
                # Distinct per-wrapper fault trains, reproducible per
                # cell (crc32, not hash(): PYTHONHASHSEED-independent).
                seed=seed * 1_000 + zlib.crc32(wrapper.name.encode()) % 997,
            ),
        )

    return build_federation(
        options=ExecutorOptions(resilience=_resilience(mode, seed)),
        wrap=wrap,
    )


@dataclass
class FaultCell:
    """Measurements of one (probability, mode-pair) grid cell."""

    probability: float
    queries: int = 0
    strict_answered: int = 0
    partial_complete: int = 0
    partial_degraded: int = 0
    mean_partial_elapsed_ms: float = 0.0
    retries: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    failed_submits: int = 0

    @property
    def strict_answered_rate(self) -> float:
        return self.strict_answered / self.queries if self.queries else 0.0

    @property
    def partial_complete_rate(self) -> float:
        return self.partial_complete / self.queries if self.queries else 0.0

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "queries": self.queries,
            "strict_answered_rate": self.strict_answered_rate,
            "partial_complete_rate": self.partial_complete_rate,
            "partial_degraded": self.partial_degraded,
            "mean_partial_elapsed_ms": self.mean_partial_elapsed_ms,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "breaker_trips": self.breaker_trips,
            "failed_submits": self.failed_submits,
        }


@dataclass
class FaultExperiment:
    """All E10 measurements."""

    cells: list[FaultCell] = field(default_factory=list)
    rounds: int = 0

    def report(self) -> str:
        rows = [
            (
                f"{cell.probability:.2f}",
                f"{cell.strict_answered_rate:.2f}",
                f"{cell.partial_complete_rate:.2f}",
                cell.partial_degraded,
                cell.mean_partial_elapsed_ms,
                cell.retries,
                cell.breaker_trips,
            )
            for cell in self.cells
        ]
        return format_table(
            (
                "fault p",
                "strict answered",
                "partial complete",
                "degraded",
                "mean ms (partial)",
                "retries",
                "trips",
            ),
            rows,
            title="E10 — answered-query rate and latency vs fault probability",
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E10",
            "rounds": self.rounds,
            "error_latency_ms": ERROR_LATENCY_MS,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def run_fault_experiment(
    probabilities: "tuple[float, ...]" = PROBABILITIES, rounds: int = 6
) -> FaultExperiment:
    """Sweep the fault-probability grid over the E8 workload."""
    experiment = FaultExperiment(rounds=rounds)
    for index, probability in enumerate(probabilities):
        cell = FaultCell(probability=probability)
        strict = _faulted_federation(STRICT, probability, seed=index + 1)
        partial = _faulted_federation(PARTIAL, probability, seed=index + 1)
        elapsed_total = 0.0
        for _round in range(rounds):
            for _label, sql in WORKLOAD:
                cell.queries += 1
                try:
                    strict.query(sql)
                    cell.strict_answered += 1
                except SubmitFailedError:
                    pass
                result = partial.query(sql)
                elapsed_total += result.elapsed_ms
                if result.degraded:
                    cell.partial_degraded += 1
                else:
                    cell.partial_complete += 1
        stats = partial.executor.scheduler.resilience_stats
        cell.retries = stats.total("retries")
        cell.timeouts = stats.total("timeouts")
        cell.breaker_trips = stats.total("breaker_trips")
        cell.failed_submits = stats.total("failed_submits")
        cell.mean_partial_elapsed_ms = (
            elapsed_total / cell.queries if cell.queries else 0.0
        )
        experiment.cells.append(cell)
    return experiment
