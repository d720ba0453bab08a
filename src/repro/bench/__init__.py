"""Benchmark/experiment harness: one module per DESIGN.md experiment.

* :mod:`repro.bench.fig12` — the paper's Figure 12 (§5);
* :mod:`repro.bench.plan_quality` — E2, plan quality per cost model;
* :mod:`repro.bench.accuracy` — E3, estimation accuracy per cost model;
* :mod:`repro.bench.overhead` — E4, rule-machinery overhead + ablations;
* :mod:`repro.bench.history_bench` — E5, §4.3.1 historical costs.

Each module is runnable (``python -m repro.bench.fig12``) and backs a
pytest-benchmark target under ``benchmarks/``.
"""

from repro.bench.accuracy import AccuracyReport, run_accuracy
from repro.bench.bindjoin_bench import BindJoinResult, run_bindjoin_experiment
from repro.bench.clustering import ClusteringResult, run_clustering
from repro.bench.federation import (
    MODELS,
    WORKLOAD,
    build_engines,
    build_mediator,
    run_federation_experiment,
)
from repro.bench.fig12 import Fig12Result, run_fig12
from repro.bench.harness import ErrorSummary, format_table
from repro.bench.history_bench import HistoryResult, run_history
from repro.bench.overhead import OverheadResult, run_overhead
from repro.bench.plan_quality import PlanQualityReport, run_plan_quality

__all__ = [
    "AccuracyReport",
    "BindJoinResult",
    "run_bindjoin_experiment",
    "ClusteringResult",
    "run_clustering",
    "ErrorSummary",
    "Fig12Result",
    "HistoryResult",
    "MODELS",
    "OverheadResult",
    "PlanQualityReport",
    "WORKLOAD",
    "build_engines",
    "build_mediator",
    "format_table",
    "run_accuracy",
    "run_federation_experiment",
    "run_fig12",
    "run_history",
    "run_overhead",
    "run_plan_quality",
]
