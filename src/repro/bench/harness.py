"""Shared experiment utilities for the benchmark suite.

Two halves:

* **reporting** — every experiment module produces a typed result with
  ``report()`` (the text ``python -m repro.bench`` prints and
  ``EXPERIMENTS.md`` records, built from :func:`format_table`) and
  ``to_json_dict()`` (the exact simulated values only);
* **workload construction** — the three-branch federation and its query
  mix used by E8 (concurrent dispatch), E10 (fault tolerance), and E11
  (the serving layer), plus the multi-tenant workload builder E11's
  closed-loop driver consumes.  One shared builder keeps the experiments
  comparable: they all measure the same federation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Any, Iterable, Sequence

from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.base import StorageWrapper


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned text table.

    Floats print with 1 decimal; everything else via ``str``.
    """
    rendered_rows = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if 0 < abs(value) < 1:
            return f"{value:.3g}"
        return f"{value:.1f}"
    return str(value)


@dataclass
class ErrorSummary:
    """Relative-error statistics of a series of (estimated, actual) pairs."""

    count: int
    mean_relative_error: float
    median_relative_error: float
    max_relative_error: float

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]]
    ) -> "ErrorSummary":
        errors = sorted(
            abs(estimated - actual) / actual
            for estimated, actual in pairs
            if actual > 0
        )
        if not errors:
            return cls(0, math.nan, math.nan, math.nan)
        return cls(
            count=len(errors),
            mean_relative_error=sum(errors) / len(errors),
            median_relative_error=median(errors),
            max_relative_error=errors[-1],
        )

    def row(self, label: str) -> list[Any]:
        return [
            label,
            self.count,
            round(self.mean_relative_error, 3),
            round(self.median_relative_error, 3),
            round(self.max_relative_error, 3),
        ]

    def to_json_dict(self) -> dict:
        return asdict(self)


ERROR_HEADERS = ("model", "queries", "mean rel err", "median rel err", "max rel err")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``q`` in [0, 1]) of a non-empty sample: the
    element at rank ``floor(q * n)``, clamped to the largest."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


# -- the shared three-branch federation (E8 / E10 / E11) ------------------------

#: Three branch offices with deliberately skewed device speeds: the slow
#: branch dominates a concurrent wave, so overlap saves the other two.
REGIONS: tuple[tuple[str, float], ...] = (
    ("east", 25.0),
    ("west", 10.0),
    ("north", 2.0),
)

#: The single-client workload: a three-wrapper union and a cross-wrapper
#: join (E8's measurement queries).
WORKLOAD: tuple[tuple[str, str], ...] = (
    (
        "three-way union",
        "SELECT oid, qty FROM OrdersEast "
        "UNION ALL SELECT oid, qty FROM OrdersWest "
        "UNION ALL SELECT oid, qty FROM OrdersNorth",
    ),
    (
        "cross-wrapper join",
        "SELECT * FROM Suppliers, OrdersWest "
        "WHERE OrdersWest.supplier = Suppliers.sid "
        "AND Suppliers.city = 'city1'",
    ),
)


def build_federation(
    options: ExecutorOptions | None = None,
    observability: bool = False,
    wrap=None,
) -> Mediator:
    """A fresh three-branch federation (fresh engines: comparisons across
    execution modes must not share wrapper-side buffer state).

    ``wrap`` optionally decorates each wrapper before registration —
    the E10 fault experiment injects faults this way.
    """
    mediator = Mediator(executor_options=options, observability=observability)
    for index, (region, io_ms) in enumerate(REGIONS):
        engine = StorageEngine(
            SimClock(CostProfile(io_ms=io_ms, cpu_ms_per_object=0.1 * (index + 1)))
        )
        engine.create_collection(
            f"Orders{region.capitalize()}",
            [
                {"oid": i, "supplier": i % 40, "qty": (i * (7 + index)) % 100}
                for i in range(600 + 200 * index)
            ],
            object_size=32,
            indexed_attributes=["oid"],
        )
        if region == "east":
            engine.create_collection(
                "Suppliers",
                [
                    {"sid": i, "city": f"city{i % 5}"}
                    for i in range(40)
                ],
                object_size=24,
                indexed_attributes=["sid"],
            )
        wrapper = StorageWrapper(region, engine)
        mediator.register(wrap(wrapper) if wrap is not None else wrapper)
    return mediator


# -- multi-tenant workloads (E11) -----------------------------------------------

#: Per-region single-wrapper queries — cheap, frequent "dashboard" reads
#: that a serving layer should interleave under the expensive federated
#: queries of WORKLOAD.
REGION_QUERIES: tuple[tuple[str, str], ...] = (
    ("east scan", "SELECT oid, qty FROM OrdersEast WHERE qty > 60"),
    ("west scan", "SELECT oid, qty FROM OrdersWest WHERE qty > 60"),
    ("north scan", "SELECT oid, qty FROM OrdersNorth WHERE qty > 60"),
)


@dataclass
class TenantWorkload:
    """One tenant's closed-loop client population for E11."""

    tenant: str
    #: Fair-share weight (maps to ``TenantPolicy.quota``).
    quota: float = 1.0
    #: Concurrent closed-loop clients (sessions) of this tenant.
    clients: int = 1
    #: Queries each client submits before stopping.
    queries_per_client: int = 4
    #: The (label, sql) mix; clients cycle through it round-robin, each
    #: client starting at its own offset so the mix stays interleaved.
    queries: "list[tuple[str, str]]" = field(default_factory=list)

    def query_at(self, client: int, index: int) -> "tuple[str, str]":
        return self.queries[(client + index) % len(self.queries)]


def build_tenant_workloads(
    clients: "tuple[int, int]" = (2, 3), queries_per_client: int = 4
) -> "list[TenantWorkload]":
    """The standard two-tenant E11 population.

    ``analytics`` runs the expensive federated WORKLOAD queries;
    ``dashboards`` hammers the cheap single-region scans.  ``clients``
    is the (analytics, dashboards) closed-loop client count.
    """
    return [
        TenantWorkload(
            tenant="analytics",
            clients=clients[0],
            queries_per_client=queries_per_client,
            queries=list(WORKLOAD),
        ),
        TenantWorkload(
            tenant="dashboards",
            clients=clients[1],
            queries_per_client=queries_per_client,
            queries=list(REGION_QUERIES),
        ),
    ]
