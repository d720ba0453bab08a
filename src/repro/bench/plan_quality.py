"""Experiment E2 — plan quality under the three cost-model configurations.

The paper's motivating claim (§1, "we provide evidence of the benefits of
this new approach"): better cost information lets the mediator pick
better plans.  This experiment runs the federation workload under the
``generic`` / ``calibrated`` / ``blended`` configurations and reports the
*actual* execution time of each chosen plan — the end-to-end quantity the
user experiences.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.federation import (
    MODELS,
    FederationExperiment,
    run_federation_experiment,
)
from repro.bench.harness import format_table


@dataclass
class PlanQualityReport:
    experiment: FederationExperiment

    def report(self) -> str:
        rows = []
        for label in self.experiment.labels():
            row: list[object] = [label]
            for model in MODELS:
                row.append(self.experiment.record_for(model, label).actual_ms)
            rows.append(row)
        total_row: list[object] = ["TOTAL"]
        for model in MODELS:
            total_row.append(self.experiment.total_actual(model))
        rows.append(total_row)
        table = format_table(
            ("query", *(f"{m} (ms)" for m in MODELS)),
            rows,
            title="E2 — actual execution time of the chosen plan",
        )
        return (
            f"{table}\n\nblended vs generic total speedup: "
            f"{self.speedup_blended_vs_generic():.2f}x"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E2",
            "total_actual_ms": {
                model: self.experiment.total_actual(model) for model in MODELS
            },
            "records": [
                {
                    "model": r.model,
                    "query": r.label,
                    "actual_ms": r.actual_ms,
                    "rows": r.rows,
                    "candidates": r.candidates,
                    "pruned": r.pruned,
                }
                for r in self.experiment.records
            ],
        }

    def speedup_blended_vs_generic(self) -> float:
        return self.experiment.total_actual("generic") / max(
            1e-9, self.experiment.total_actual("blended")
        )


def run_plan_quality(**kwargs) -> PlanQualityReport:
    return PlanQualityReport(run_federation_experiment(**kwargs))
