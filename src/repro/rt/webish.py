"""A local "webish" source whose latency is genuinely spent.

The simulated :class:`~repro.wrappers.webish.WebSourceWrapper` *charges*
round trips on a sim clock; :class:`WebLatencyWrapper` actually sleeps
them: one request latency before any work, one response latency plus a
per-row transfer delay after it.  Rows live in memory and pushed-down
plans are evaluated in plain Python (scan, select, project — the thin
capability set of a web API), so the whole response time is dominated by
the injected latency, exactly the regime the paper's uniform
communication cost models.

The exported cost rules predict wall milliseconds from the same
constants the wrapper sleeps with, which makes it the easy half of the
E16 validation: if the measured time diverges from
``2 * Latency + rows * PerRow``, the backend's measurement path is
broken, not the model.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.algebra.logical import PlanNode, Project, Scan, Select, strip_submits
from repro.algebra.rowops import getter, test
from repro.core.statistics import AttributeStats, CollectionStats
from repro.errors import PlanError
from repro.sources.pages import Row
from repro.wrappers.base import CostInfoExport, ExecutionResult, Wrapper

#: What a typical web API lets a mediator push down.
WEB_OPERATIONS = frozenset({"scan", "select", "project"})


class WebLatencyWrapper(Wrapper):
    """In-memory collections behind real injected latency."""

    def __init__(
        self,
        name: str,
        collections: Mapping[str, Sequence[Row]],
        latency_ms: float = 15.0,
        per_row_ms: float = 0.02,
        object_size: int = 64,
    ) -> None:
        super().__init__(name, WEB_OPERATIONS)
        if latency_ms < 0 or per_row_ms < 0:
            raise ValueError("latencies must be non-negative")
        self.collections = {
            key: [dict(row) for row in rows]
            for key, rows in collections.items()
        }
        self.latency_ms = latency_ms
        self.per_row_ms = per_row_ms
        self.object_size = object_size

    # -- registration-time exports -------------------------------------------

    def _statistics(self, name: str) -> CollectionStats:
        rows = self.collections[name]
        attributes = []
        for column in (rows[0] if rows else {}):
            values = [row[column] for row in rows if row[column] is not None]
            attributes.append(
                AttributeStats(
                    name=column,
                    indexed=False,
                    count_distinct=max(1, len(set(values))),
                    min_value=min(values) if values else None,
                    max_value=max(values) if values else None,
                )
            )
        return CollectionStats.from_extent(
            name, len(rows), self.object_size, attributes
        )

    def cost_rules_cdl(self) -> str:
        parts = [
            f"// Wall-clock cost rules of webish source {self.name!r}: the",
            "// same constants the wrapper genuinely sleeps with.",
            f"var Latency = {self.latency_ms};",
            f"var PerRow = {self.per_row_ms};",
        ]
        for name, rows in self.collections.items():
            parts.append(
                f"costrule scan({name}) {{\n"
                f"    TimeFirst = Latency;\n"
                f"    TotalTime = 2 * Latency + {name}.CountObject * PerRow;\n"
                f"}}"
            )
            for column in (rows[0] if rows else {}):
                if not isinstance(rows[0][column], (int, float)):
                    continue
                parts.append(
                    f"costrule select({name}, {column} = V) {{\n"
                    f"    CountObject = {name}.CountObject"
                    f" / {name}.{column}.CountDistinct;\n"
                    f"    TotalSize = CountObject * {name}.ObjectSize;\n"
                    f"    TotalTime = 2 * Latency + CountObject * PerRow;\n"
                    f"    TimeFirst = Latency;\n"
                    f"}}"
                )
                span = f"({name}.{column}.Max - {name}.{column}.Min)"
                for op in ("<", "<=", ">", ">="):
                    if op in ("<", "<="):
                        fraction = f"(V - {name}.{column}.Min) / {span}"
                    else:
                        fraction = f"({name}.{column}.Max - V) / {span}"
                    parts.append(
                        f"costrule select({name}, {column} {op} V) {{\n"
                        f"    CountObject = {name}.CountObject"
                        f" * clamp01({fraction});\n"
                        f"    TotalSize = CountObject * {name}.ObjectSize;\n"
                        f"    TotalTime = 2 * Latency + CountObject * PerRow;\n"
                        f"    TimeFirst = Latency;\n"
                        f"}}"
                    )
        return "\n".join(parts)

    def export_cost_info(self) -> CostInfoExport:
        return CostInfoExport(
            statistics=[self._statistics(name) for name in self.collections],
            cdl_source=self.cost_rules_cdl(),
        )

    # -- query-time execution -------------------------------------------------

    def execute(self, plan: PlanNode) -> ExecutionResult:
        plan = strip_submits(plan)
        self.check_capabilities(plan)
        start = time.perf_counter()
        self._sleep(self.latency_ms)  # the request travels
        rows = self._evaluate(plan)
        time_first = (time.perf_counter() - start) * 1000.0
        # The response travels back, paying per-row transfer time.
        self._sleep(self.latency_ms + len(rows) * self.per_row_ms)
        total = (time.perf_counter() - start) * 1000.0
        return ExecutionResult(
            rows=rows,
            total_time_ms=total,
            time_first_ms=time_first,
            device_stats={"web_rows": len(rows)},
        )

    @staticmethod
    def _sleep(ms: float) -> None:
        if ms > 0:
            time.sleep(ms / 1000.0)

    def _evaluate(self, node: PlanNode) -> list[Row]:
        if isinstance(node, Scan):
            if node.collection not in self.collections:
                raise PlanError(
                    f"webish source {self.name!r} has no collection "
                    f"{node.collection!r}"
                )
            return [dict(row) for row in self.collections[node.collection]]
        if isinstance(node, Select):
            return list(filter(test(node.predicate), self._evaluate(node.child)))
        if isinstance(node, Project):
            columns = [(name, getter(node.source_of(name))) for name in node.attributes]
            return [
                {name: get(row) for name, get in columns}
                for row in self._evaluate(node.child)
            ]
        raise PlanError(
            f"webish source {self.name!r} cannot evaluate {node.operator_name!r}"
        )
