"""The wrapper interface (§2).

"Wrappers provide access to underlying data sources."  A wrapper exports
three things at registration (§2.1 Step 2): the schema of its collections,
its capabilities (the operations it can execute), and cost information —
statistics plus, optionally, a CDL document of cost rules, variables and
functions.  During query processing (§2.2 Steps 4–5) it accepts algebraic
subplans and returns rows.

:class:`StorageWrapper` is the standard implementation over a simulated
:class:`~repro.sources.storage_engine.StorageEngine`; the concrete
wrappers (object store, relational, flat file, web-ish) specialize what
they export.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.algebra.logical import PlanNode, strip_submits
from repro.algebra.rowops import timed_rows
from repro.cdl import CompiledCostInfo, compile_source
from repro.core.formulas import Value
from repro.core.statistics import CollectionStats
from repro.errors import CapabilityError
from repro.sources.pages import Row
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.interpreter import EngineExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.mediator.resilience import (
        PartialAnswer,
        ReplicaStats,
        ResilienceStats,
    )

#: The full mediator algebra; wrappers with fewer capabilities list a subset.
ALL_OPERATIONS = frozenset(
    {"scan", "select", "project", "sort", "distinct", "aggregate", "join", "union"}
)


@dataclass
class ExecutionResult:
    """Rows plus the measured response times (simulated ms).

    ``submit_log`` is filled by the *mediator* executor: one
    ``(Submit node, ExecutionResult)`` pair per dispatched subquery, the
    raw material of §4.3.1 history recording.  The cache and parallel
    counters are likewise mediator-side diagnostics (zero for plain
    wrapper executions).
    """

    rows: list[Row]
    total_time_ms: float
    time_first_ms: float = 0.0
    submit_log: list = field(default_factory=list)
    #: Subanswer-cache activity during this execution.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Simulated time the concurrent waves saved versus sequential dispatch.
    parallel_saved_ms: float = 0.0
    #: Device-level counters measured during the execution (page reads,
    #: objects processed) — surfaced as submit-span attributes by the
    #: telemetry layer.  ``None`` when the executing engine exports none.
    device_stats: dict[str, int] | None = None
    #: Degradation report when a mediator execution completed without
    #: some of its sources (``partial`` failure mode); ``None`` on a
    #: complete answer and on plain wrapper executions.
    partial: "PartialAnswer | None" = None
    #: Per-execution fault-handling counters (retries, timeouts, breaker
    #: activity); ``None`` when no resilience layer is configured.
    resilience: "ResilienceStats | None" = None
    #: True when this measurement's wall story involved fault handling
    #: (a retried attempt, a failover rescue, or a won hedge).  The
    #: calibration window skips tainted rows — fitting on fault-inflated
    #: or cross-replica actuals would corrupt the coefficients.
    fault_tainted: bool = False
    #: Per-execution replica-dispatch counters (selection, failover,
    #: hedging); ``None`` unless the catalog has replica sets.
    replication: "ReplicaStats | None" = None

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def degraded(self) -> bool:
        """True when the answer is missing at least one source."""
        return self.partial is not None and self.partial.degraded


@dataclass
class CostInfoExport:
    """The cost-information payload of registration (§2.1 Step 2)."""

    statistics: list[CollectionStats] = field(default_factory=list)
    cdl_source: str | None = None
    functions: dict[str, Callable[..., Value]] = field(default_factory=dict)
    variables: dict[str, Value] = field(default_factory=dict)
    #: Collection names served by the wrapper.  Sources that export no
    #: statistics (HTML files, §1) still name their collections here so
    #: the mediator can route queries; defaults to the statistics' names.
    collections: list[str] = field(default_factory=list)

    def collection_names(self) -> list[str]:
        names = list(self.collections)
        for stats in self.statistics:
            if stats.name not in names:
                names.append(stats.name)
        return names

    def compiled(self) -> CompiledCostInfo:
        """Compile the CDL part (if any) and merge the programmatic part.

        Python-side functions model the paper's §2.4 point that "the
        entire library of code in the mediator ... is available to the
        wrapper implementor": anything inexpressible in the formula
        grammar (histograms, adaptive logic) ships as a callable.
        """
        if self.cdl_source is not None:
            info = compile_source(
                self.cdl_source,
                known_collections={s.name for s in self.statistics},
                known_attributes={
                    a for s in self.statistics for a in s.attributes
                },
            )
        else:
            info = CompiledCostInfo()
        for stats in self.statistics:
            if all(existing.name != stats.name for existing in info.statistics):
                info.statistics.append(stats)
        info.functions.update(self.functions)
        info.variables.update(self.variables)
        return info


class Wrapper(ABC):
    """Abstract wrapper: what the mediator sees of one data source."""

    def __init__(self, name: str, capabilities: frozenset[str] = ALL_OPERATIONS):
        self.name = name
        self.capabilities = frozenset(capabilities)

    # -- registration-time exports -------------------------------------------

    @abstractmethod
    def export_cost_info(self) -> CostInfoExport:
        """Schema statistics and (optional) cost rules."""

    def collection_names(self) -> list[str]:
        return sorted(self.export_cost_info().collection_names())

    def unwrap(self) -> "Wrapper":
        """The innermost wrapper, past any decorators (fault injectors).

        Plain wrappers return themselves; decorating wrappers such as
        :class:`~repro.wrappers.faults.FaultInjector` override this to
        delegate inward.
        """
        return self

    # -- query-time execution ---------------------------------------------------

    @abstractmethod
    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Execute a subplan (without Submit nodes) and return rows and
        the measured response time."""

    def check_capabilities(self, plan: PlanNode) -> None:
        """Raise :class:`CapabilityError` if the plan uses an operator this
        wrapper cannot run (the paper assumes full capability; sources
        like flat files cannot honour that — see [KTV97])."""
        for node in plan.walk():
            if node.operator_name == "submit":
                continue
            if node.operator_name not in self.capabilities:
                raise CapabilityError(
                    f"wrapper {self.name!r} cannot execute "
                    f"{node.operator_name!r} (capabilities: "
                    f"{sorted(self.capabilities)})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class StorageWrapper(Wrapper):
    """A wrapper over a simulated storage engine.

    Subclasses override :meth:`cost_rules_cdl` to export rules; the base
    exports statistics only — the "calibration-like" end of the paper's
    spectrum (everything comes from the generic model).
    """

    def __init__(
        self,
        name: str,
        engine: StorageEngine,
        capabilities: frozenset[str] = ALL_OPERATIONS,
        export_statistics: bool = True,
    ) -> None:
        super().__init__(name, capabilities)
        self.engine = engine
        self.executor = EngineExecutor(engine)
        #: When False, registration exports collection names only — the
        #: "data sources do not report needed statistical information"
        #: case of §1 (the mediator falls back to §6 standard values).
        self.export_statistics = export_statistics

    def cost_rules_cdl(self) -> str | None:
        """CDL source of the wrapper's cost rules (None = none exported)."""
        return None

    def cost_functions(self) -> dict[str, Callable[..., Value]]:
        """Python-side functions referenced by the exported rules."""
        return {}

    def cost_variables(self) -> dict[str, Value]:
        return {}

    def export_cost_info(self) -> CostInfoExport:
        names = self.engine.collection_names()
        if not self.export_statistics:
            return CostInfoExport(collections=list(names))
        statistics = [self.engine.export_statistics(name) for name in names]
        return CostInfoExport(
            statistics=statistics,
            cdl_source=self.cost_rules_cdl(),
            functions=self.cost_functions(),
            variables=self.cost_variables(),
        )

    def execute(self, plan: PlanNode) -> ExecutionResult:
        plan = strip_submits(plan)
        self.check_capabilities(plan)
        clock = self.engine.clock
        start = clock.now_ms
        pages_before = clock.stats.page_reads
        objects_before = clock.stats.objects_processed
        rows, time_first, total = timed_rows(self.executor._run(plan), clock, start)
        return ExecutionResult(
            rows=rows,
            total_time_ms=total,
            time_first_ms=time_first,
            device_stats={
                "page_reads": clock.stats.page_reads - pages_before,
                "objects_processed": clock.stats.objects_processed
                - objects_before,
            },
        )
