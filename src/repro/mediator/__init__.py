"""The mediator: catalog, registration, optimizer, executor, facade."""

from repro.mediator.admin import AdminConsole, DriftReport
from repro.mediator.backend import MEDIATOR_PROFILE
from repro.mediator.cache import CacheStats, SubanswerCache
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.mediator import Mediator, QueryResult
from repro.mediator.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
    OptimizerStats,
)
from repro.mediator.queryspec import QuerySpec, UnionSpec
from repro.mediator.registration import register_wrapper
from repro.mediator.scheduler import DispatchOutcome, SubmitScheduler
from repro.obs import QueryTelemetry

__all__ = [
    "AdminConsole",
    "CacheStats",
    "DispatchOutcome",
    "DriftReport",
    "ExecutorOptions",
    "MEDIATOR_PROFILE",
    "QueryTelemetry",
    "UnionSpec",
    "Mediator",
    "MediatorCatalog",
    "MediatorExecutor",
    "OptimizationResult",
    "Optimizer",
    "OptimizerOptions",
    "OptimizerStats",
    "QueryResult",
    "QuerySpec",
    "SubanswerCache",
    "SubmitScheduler",
    "register_wrapper",
]
