"""Experiment E4 — optimizer-side overhead of the rule machinery.

§3.3.2 warns that "the proliferation of query-specific cost rules ...
tends to slow down the cost estimate process.  In other words the cost
rules overriding mechanism should not induce significant workload on the
mediator site.  That is why we do not use the standard overriding
mechanism ... but implement our own efficient one based on kind of
virtual tables."  This experiment quantifies that, plus the §4.2/§4.3.2
optimizations:

* **dispatch index ablation** — per-estimate wall time as the number of
  registered predicate-scope rules grows, with the (source, operator)
  dispatch index on vs. a linear scan of all rules;
* **pruning ablation (§4.3.2)** — optimizer work (candidates, formula
  evaluations) with the branch-and-bound bound on vs. off;
* **required-variable propagation ablation (§4.2 Step 1)** — variables
  computed per estimate with demand-driven evaluation vs. the full
  traversal;
* **conflict-policy ablation** — formulas evaluated under lowest-value
  vs. first-match resolution;
* **subplan sharing** — formulas one ``optimize()`` evaluates, its
  candidates sharing one estimator memo, vs. the same candidates costed
  one ``estimate()`` at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.algebra.builders import scan
from repro.bench.harness import format_table
from repro.core.estimator import (
    ConflictPolicy,
    CostEstimator,
    EstimatorOptions,
)
from repro.core.generic import CoefficientSet, standard_repository
from repro.core.rules import rule, select_eq_pattern
from repro.core.statistics import AttributeStats, CollectionStats, StatisticsCatalog

#: Rule-set sizes for the dispatch-index scaling series.
DEFAULT_RULE_COUNTS = (10, 50, 200, 1000)


def _catalog() -> StatisticsCatalog:
    catalog = StatisticsCatalog()
    catalog.put(
        CollectionStats.from_extent(
            "Parts",
            10000,
            56,
            attributes=[
                AttributeStats(
                    "Id", indexed=True, count_distinct=10000, min_value=0,
                    max_value=9999,
                )
            ],
        )
    )
    return catalog


def build_estimator(
    rule_count: int,
    use_dispatch_index: bool = True,
    options: EstimatorOptions | None = None,
) -> CostEstimator:
    """An estimator whose repository holds ``rule_count`` predicate-scope
    rules for one source (each pinned to a different constant — the
    query-specific proliferation §3.3.2 describes)."""
    repository = standard_repository(use_dispatch_index=use_dispatch_index)
    for k in range(rule_count):
        repository.add_wrapper_rule(
            "src",
            rule(
                select_eq_pattern("Parts", "Id", k),
                [f"TotalTime = {100 + k}"],
                name=f"pinned-{k}",
            ),
        )
    return CostEstimator(
        repository, _catalog(), options=options, coefficients=CoefficientSet()
    )


def time_estimates(
    estimator: CostEstimator, constant: int, repetitions: int = 200
) -> float:
    """Mean wall-clock microseconds per estimate of ``select(Parts,
    Id = constant)`` submitted to the rule-heavy source."""
    plan = scan("Parts").where_eq("Id", constant).build()
    start = time.perf_counter()
    for _ in range(repetitions):
        estimator.estimate(plan, default_source="src")
    elapsed = time.perf_counter() - start
    return elapsed / repetitions * 1e6


@dataclass
class OverheadResult:
    """All E4 measurements."""

    dispatch_rows: list[tuple[int, float, float]] = field(default_factory=list)
    pruning_rows: list[tuple[str, int, int, int]] = field(default_factory=list)
    propagation_rows: list[tuple[str, int, int]] = field(default_factory=list)
    conflict_rows: list[tuple[str, int]] = field(default_factory=list)
    cache_rows: list[tuple[str, int]] = field(default_factory=list)

    def report(self) -> str:
        return "\n\n".join(
            (
                format_table(
                    ("rules", "indexed (µs/est)", "linear scan (µs/est)"),
                    self.dispatch_rows,
                    title="E4a — rule dispatch: virtual-table index vs linear scan",
                ),
                format_table(
                    ("pruning", "candidates", "pruned", "formulas evaluated"),
                    self.pruning_rows,
                    title="E4b — §4.3.2 branch-and-bound pruning",
                ),
                format_table(
                    ("propagation", "variables computed", "formulas evaluated"),
                    self.propagation_rows,
                    title="E4c — §4.2 required-variable propagation",
                ),
                format_table(
                    ("policy", "formulas evaluated"),
                    self.conflict_rows,
                    title="E4d — conflict policy",
                ),
                format_table(
                    ("subplan sharing", "formulas evaluated per optimize()"),
                    self.cache_rows,
                    title="E4e — cross-candidate subplan sharing "
                    "(one memo per optimize())",
                ),
            )
        )

    def to_json_dict(self) -> dict:
        """The work counters; E4a's microseconds are wall-clock readings
        and stay on stdout."""
        return {
            "experiment": "E4",
            "dispatch_rule_counts": [count for count, *_ in self.dispatch_rows],
            "pruning": [
                {
                    "pruning": label,
                    "candidates": candidates,
                    "pruned": pruned,
                    "formulas_evaluated": formulas,
                }
                for label, candidates, pruned, formulas in self.pruning_rows
            ],
            "propagation": [
                {
                    "propagation": label,
                    "variables_computed": variables,
                    "formulas_evaluated": formulas,
                }
                for label, variables, formulas in self.propagation_rows
            ],
            "conflict_policy": dict(self.conflict_rows),
            "subplan_sharing": dict(self.cache_rows),
        }


def run_dispatch_scaling(
    rule_counts: tuple[int, ...] = DEFAULT_RULE_COUNTS,
    repetitions: int = 100,
) -> list[tuple[int, float, float]]:
    rows = []
    for count in rule_counts:
        indexed = build_estimator(count, use_dispatch_index=True)
        linear = build_estimator(count, use_dispatch_index=False)
        rows.append(
            (
                count,
                time_estimates(indexed, count - 1, repetitions),
                time_estimates(linear, count - 1, repetitions),
            )
        )
    return rows


def run_pruning_ablation() -> list[tuple[str, int, int, int]]:
    """Optimize the federation three-way join with pruning on/off."""
    from repro.bench.federation import build_engines, build_mediator
    from repro.mediator.optimizer import OptimizerOptions

    sql = (
        "SELECT * FROM Orders, Suppliers, Tickets "
        "WHERE Orders.supplier = Suppliers.sid "
        "AND Tickets.supplier = Suppliers.sid AND Orders.qty < 50"
    )
    rows = []
    for use_pruning in (True, False):
        engines = build_engines()
        mediator = build_mediator("blended", engines)
        mediator.optimizer.options = OptimizerOptions(use_pruning=use_pruning)
        optimized = mediator.plan(sql)
        rows.append(
            (
                "on" if use_pruning else "off",
                optimized.stats.candidates_considered,
                optimized.stats.candidates_pruned,
                optimized.stats.formulas_evaluated,
            )
        )
    return rows


def run_propagation_ablation() -> list[tuple[str, int, int]]:
    rows = []
    for propagate in (True, False):
        estimator = build_estimator(
            0, options=EstimatorOptions(propagate_required=propagate)
        )
        plan = (
            scan("Parts").where_eq("Id", 5).keep("Id").submit_to("src").build()
        )
        estimator.estimate(plan)
        counters = estimator.last_counters
        rows.append(
            (
                "on" if propagate else "off",
                counters.variables_computed,
                counters.formulas_evaluated,
            )
        )
    return rows


def run_cache_ablation() -> list[tuple[str, int]]:
    """What sharing subplans across candidates saves: the formulas one
    ``optimize()`` evaluates (``"on"`` — all its candidates cost through
    one estimator memo) against the same candidates, same bounds, each
    costed by an ``estimate()`` call of its own (``"off"``)."""
    from repro.bench.federation import build_engines, build_mediator

    sql = (
        "SELECT * FROM Orders, Suppliers, Tickets "
        "WHERE Orders.supplier = Suppliers.sid "
        "AND Tickets.supplier = Suppliers.sid AND Orders.qty < 50"
    )
    mediator = build_mediator("blended", build_engines())
    estimator = mediator.estimator
    estimate = estimator.estimate
    candidates: list[tuple[object, dict]] = []

    def recording(plan, **kwargs):
        candidates.append((plan, kwargs))
        return estimate(plan, **kwargs)

    estimator.estimate = recording  # type: ignore[method-assign]
    try:
        shared = mediator.plan(sql).stats.formulas_evaluated
    finally:
        del estimator.estimate
    alone = 0
    for plan, kwargs in candidates:
        estimator.estimate(plan, **{**kwargs, "memo": None})
        alone += estimator.last_counters.formulas_evaluated
    return [("on", shared), ("off", alone)]


def run_conflict_ablation() -> list[tuple[str, int]]:
    rows = []
    for policy in (ConflictPolicy.LOWEST, ConflictPolicy.FIRST):
        estimator = build_estimator(
            0, options=EstimatorOptions(conflict_policy=policy)
        )
        plan = scan("Parts").where_eq("Id", 5).build()
        estimator.estimate(plan, default_source="src")
        rows.append((policy.value, estimator.last_counters.formulas_evaluated))
    return rows


def run_overhead(
    rule_counts: tuple[int, ...] = DEFAULT_RULE_COUNTS,
    repetitions: int = 100,
) -> OverheadResult:
    return OverheadResult(
        dispatch_rows=run_dispatch_scaling(rule_counts, repetitions),
        pruning_rows=run_pruning_ablation(),
        propagation_rows=run_propagation_ablation(),
        conflict_rows=run_conflict_ablation(),
        cache_rows=run_cache_ablation(),
    )
