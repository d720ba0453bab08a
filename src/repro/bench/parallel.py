"""Experiment E8 — concurrent submit dispatch and the subanswer cache.

The paper's execution model is sequential: ``TotalTime`` of a composed
plan adds the wrapper response times (§2.3).  A mediator that dispatches
independent subqueries concurrently waits only for the slowest branch —
``docs/execution.md`` describes the wave accounting.  This experiment
quantifies both extensions on a three-branch federation:

* **sequential vs concurrent dispatch** — the same union/join workload
  under ``ExecutorOptions()`` and ``ExecutorOptions(parallel_submits=
  True)``, on fresh engines per mode so buffer state is comparable;
  answers must be row-identical;
* **concurrency cap** — the wave serialized back down with
  ``max_concurrency=1`` must reproduce the sequential clock;
* **subanswer cache** — a repeated query served from the cache charges
  (nearly) zero time; hit/miss counters surface in ``QueryResult`` and
  ``explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import WORKLOAD, build_federation, format_table
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import QueryResult
from repro.mediator.optimizer import OptimizerOptions


@dataclass
class ParallelExperiment:
    """All E8 measurements."""

    #: (label, sequential ms, parallel ms, saved ms, rows identical)
    dispatch_rows: list[tuple[str, float, float, float, bool]] = field(
        default_factory=list
    )
    #: (label, sequential ms, capped-to-1 ms)
    cap_rows: list[tuple[str, float, float]] = field(default_factory=list)
    #: (run, elapsed ms, cache hits, cache misses)
    cache_rows: list[tuple[str, float, int, int]] = field(default_factory=list)
    explain_text: str = ""
    first_run: QueryResult | None = None
    second_run: QueryResult | None = None

    def report(self) -> str:
        return "\n\n".join(
            (
                format_table(
                    (
                        "query",
                        "sequential (ms)",
                        "concurrent (ms)",
                        "saved (ms)",
                        "rows ==",
                    ),
                    self.dispatch_rows,
                    title="E8a — sequential vs concurrent submit dispatch",
                ),
                format_table(
                    ("query", "sequential (ms)", "max_concurrency=1 (ms)"),
                    self.cap_rows,
                    title="E8b — a single slot reproduces the sequential clock",
                ),
                format_table(
                    ("run", "elapsed (ms)", "cache hits", "cache misses"),
                    self.cache_rows,
                    title="E8c — subanswer cache on a repeated query",
                ),
            )
        )

    def to_json_dict(self) -> dict:
        """Machine-readable form of every table (``BENCH_E8.json``)."""
        return {
            "experiment": "E8",
            "dispatch": [
                {
                    "query": label,
                    "sequential_ms": sequential,
                    "concurrent_ms": concurrent,
                    "saved_ms": saved,
                    "rows_identical": identical,
                }
                for label, sequential, concurrent, saved, identical
                in self.dispatch_rows
            ],
            "concurrency_cap": [
                {
                    "query": label,
                    "sequential_ms": sequential,
                    "capped_to_one_ms": capped,
                }
                for label, sequential, capped in self.cap_rows
            ],
            "cache": [
                {
                    "run": label,
                    "elapsed_ms": elapsed,
                    "cache_hits": hits,
                    "cache_misses": misses,
                }
                for label, elapsed, hits, misses in self.cache_rows
            ],
        }


def run_dispatch_comparison() -> ParallelExperiment:
    """Sequential vs concurrent dispatch plus the concurrency-cap check."""
    experiment = ParallelExperiment()
    parallel = ExecutorOptions(parallel_submits=True)
    serialized = ExecutorOptions(parallel_submits=True, max_concurrency=1)
    for label, sql in WORKLOAD:
        # One physical plan, executed under every mode: a parallel-aware
        # optimizer may legitimately pick a different plan, but the
        # dispatch comparison must hold the plan fixed.  Bind joins
        # serialize their probes behind the outer, so the planner sticks
        # to independent-submit joins here.
        planner = build_federation()
        planner.optimizer.options = OptimizerOptions(use_bind_join=False)
        plan = planner.plan(sql).plan
        sequential = build_federation().execute_plan(plan)
        concurrent = build_federation(parallel).execute_plan(plan)
        experiment.dispatch_rows.append(
            (
                label,
                round(sequential.elapsed_ms, 1),
                round(concurrent.elapsed_ms, 1),
                round(concurrent.parallel_saved_ms, 1),
                concurrent.rows == sequential.rows,
            )
        )
        capped = build_federation(serialized).execute_plan(plan)
        experiment.cap_rows.append(
            (label, round(sequential.elapsed_ms, 1), round(capped.elapsed_ms, 1))
        )
    return experiment


def run_cache_series(experiment: ParallelExperiment | None = None) -> ParallelExperiment:
    """The same query twice against one cache-enabled mediator."""
    if experiment is None:
        experiment = ParallelExperiment()
    mediator = build_federation(
        ExecutorOptions(parallel_submits=True, cache_subanswers=True)
    )
    sql = WORKLOAD[0][1]
    experiment.first_run = mediator.query(sql)
    experiment.second_run = mediator.query(sql)
    for label, run in (("first", experiment.first_run), ("second", experiment.second_run)):
        experiment.cache_rows.append(
            (label, round(run.elapsed_ms, 1), run.cache_hits, run.cache_misses)
        )
    experiment.explain_text = mediator.explain(sql)
    return experiment


def run_parallel_experiment() -> ParallelExperiment:
    return run_cache_series(run_dispatch_comparison())
