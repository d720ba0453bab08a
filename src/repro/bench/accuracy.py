"""Experiment E3 — estimation accuracy under the three configurations.

For every workload query and configuration, compare the optimizer's
estimated ``TotalTime`` of the chosen plan with its measured execution
time.  The paper's mechanism predicts a strict accuracy ordering:
``blended`` (wrapper rules) < ``calibrated`` (fitted coefficients) <
``generic`` (standard values) in relative error.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.federation import (
    MODELS,
    FederationExperiment,
    run_federation_experiment,
)
from repro.bench.harness import ERROR_HEADERS, ErrorSummary, format_table


@dataclass
class AccuracyReport:
    experiment: FederationExperiment

    def summary(self, model: str) -> ErrorSummary:
        return ErrorSummary.from_pairs(
            (r.estimated_ms, r.actual_ms) for r in self.experiment.for_model(model)
        )

    def report(self) -> str:
        summary = format_table(
            ERROR_HEADERS,
            [self.summary(model).row(model) for model in MODELS],
            title="E3 — estimated vs actual TotalTime of chosen plans",
        )
        rows = []
        for label in self.experiment.labels():
            row: list[object] = [label]
            for model in MODELS:
                record = self.experiment.record_for(model, label)
                row.append(record.estimated_ms)
                row.append(record.actual_ms)
            rows.append(row)
        headers = ["query"]
        for model in MODELS:
            headers += [f"{model} est", f"{model} act"]
        detail = format_table(headers, rows, title="E3 — per-query detail (ms)")
        return f"{summary}\n\n{detail}"

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E3",
            "summary": {
                model: self.summary(model).to_json_dict() for model in MODELS
            },
            "records": [
                {
                    "model": r.model,
                    "query": r.label,
                    "estimated_ms": r.estimated_ms,
                    "actual_ms": r.actual_ms,
                }
                for r in self.experiment.records
            ],
        }


def run_accuracy(**kwargs) -> AccuracyReport:
    return AccuracyReport(run_federation_experiment(**kwargs))
