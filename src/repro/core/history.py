"""Historical costs — the query-scope half of the §4.3.1 extension.

"A simple way to have very accurate cost is to extend the scope hierarchy
with a query scope.  In the query scope, specific rules match a wrapper
subquery exactly.  A new formula is added after a subquery has been
executed and the associated formula are now real costs, not estimates."
:class:`HistoryStore` turns each executed wrapper subquery into a
query-scope rule whose formulas are the measured constants.
Re-executing the same subquery *updates* the rule in place, so history
never proliferates rules for one subquery — addressing the HERMES
statistics-proliferation problem the paper discusses.

The other half, parameter adjustment ("we store only the adjusted
parameters instead of new formulas"), is the calibration overlay fitted
by :class:`repro.mediator.calibration.Calibrator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.algebra.logical import PlanNode, Submit
from repro.core.formulas import Number, Formula
from repro.core.rules import CostRule, OperatorPattern, Var
from repro.core.scopes import RuleRepository

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.catalog import MediatorCatalog
    from repro.wrappers.base import ExecutionResult


def plan_fingerprint(plan: PlanNode) -> str:
    """A structural identity for a subplan: operators, collections,
    predicates and constants — two subqueries with the same fingerprint
    are "identical" in the §4.3.1 sense."""
    children = ",".join(plan_fingerprint(child) for child in plan.children)
    return f"{plan.describe()}({children})"


class ExactSubplanPattern(OperatorPattern):
    """A rule head that matches one exact subplan (the query scope).

    Reuses the :class:`OperatorPattern` machinery (so scoped storage,
    ordering and matching all work unchanged) but unifies by structural
    fingerprint instead of argument patterns.
    """

    def __init__(self, plan: PlanNode) -> None:
        expected = 2 if plan.operator_name in ("join", "union") else 1
        object.__setattr__(self, "operator", plan.operator_name)
        object.__setattr__(
            self, "collections", tuple(Var(f"_Q{i}") for i in range(expected))
        )
        object.__setattr__(self, "predicate", None)
        object.__setattr__(self, "fingerprint", plan_fingerprint(plan))

    def specificity(self) -> tuple[int, int, int, int]:
        # Everything is bound in an exact match.
        return (9, 9, 9, 9)

    def match(self, node: PlanNode):
        if plan_fingerprint(node) == self.fingerprint:  # type: ignore[attr-defined]
            return {}
        return None

    def __str__(self) -> str:
        return f"exact[{self.fingerprint}]"  # type: ignore[attr-defined]


def _constant_formulas(values: dict[str, float]) -> list[Formula]:
    return [
        Formula(target=name, expression=Number(value), source=f"{name} = {value} (measured)")
        for name, value in values.items()
    ]


@dataclass
class HistoryEntry:
    """Bookkeeping for one recorded subquery."""

    rule: CostRule
    executions: int = 0
    last_total_ms: float = 0.0


class HistoryStore:
    """Query-scope rules recorded from real executions."""

    def __init__(self, repository: RuleRepository) -> None:
        self.repository = repository
        self._entries: dict[tuple[str, str], HistoryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def record(
        self,
        subplan: PlanNode,
        source: str,
        result: "ExecutionResult",
        object_size: int = 100,
    ) -> HistoryEntry:
        """Record one executed wrapper subquery.

        First execution installs a query-scope rule with the measured
        constants; later executions of the *same* subquery update the
        formulas in place ("two executions of the same subquery have the
        same cost regardless of differences in time").
        """
        fingerprint = plan_fingerprint(subplan)
        key = (source, fingerprint)
        values = {
            "TotalTime": float(result.total_time_ms),
            "TimeFirst": float(result.time_first_ms),
            "CountObject": float(result.count),
            "TotalSize": float(result.count * object_size),
        }
        entry = self._entries.get(key)
        if entry is None:
            rule = CostRule(
                head=ExactSubplanPattern(subplan),
                formulas=_constant_formulas(values),
                name=f"history[{fingerprint}]",
            )
            self.repository.add_query_rule(source, rule)
            entry = HistoryEntry(rule=rule)
            self._entries[key] = entry
        else:
            entry.rule.formulas = _constant_formulas(values)
        entry.executions += 1
        entry.last_total_ms = values["TotalTime"]
        return entry

    def record_plan(
        self,
        plan: PlanNode,
        execution: Any,
        catalog: "MediatorCatalog",
    ) -> int:
        """Record every Submit subquery of an executed plan.

        ``execution`` may carry per-submit measurements (the mediator
        executor's ``submit_log``); without them nothing is recorded.
        """
        recorded = 0
        submit_log = getattr(execution, "submit_log", None)
        if not submit_log:
            return 0
        for node, result in submit_log:
            assert isinstance(node, Submit)
            object_size = 100
            primary = node.child.primary_collection()
            if primary is not None and primary in catalog.statistics:
                object_size = max(1, catalog.statistics.get(primary).object_size)
            self.record(node.child, node.wrapper, result, object_size)
            recorded += 1
        return recorded
