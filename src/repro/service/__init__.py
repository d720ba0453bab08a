"""The federation serving layer (see ``docs/serving.md``).

Multi-tenant serving on top of one :class:`~repro.mediator.mediator.
Mediator`: sessions and prepared statements, a normalized-fingerprint
plan cache, cost-based admission control, and a fair-share inter-query
scheduler that interleaves submit waves of concurrent queries on the
shared simulated clock.
"""

from __future__ import annotations

from repro.service.admission import (
    ADMITTED,
    QUEUED,
    REJECTED,
    AdmissionController,
    AdmissionDecision,
    TenantPolicy,
    plan_wrappers,
)
from repro.service.plancache import PlanCache, PlanCacheStats
from repro.service.scheduler import FairShareScheduler, QueryTask, SchedulerStats
from repro.service.service import (
    FederationService,
    ServiceOptions,
    Ticket,
)
from repro.service.session import (
    PlanResolution,
    PreparedStatement,
    Session,
    SessionManager,
)

__all__ = [
    "ADMITTED",
    "AdmissionController",
    "AdmissionDecision",
    "FairShareScheduler",
    "FederationService",
    "PlanCache",
    "PlanCacheStats",
    "PlanResolution",
    "PreparedStatement",
    "QUEUED",
    "QueryTask",
    "REJECTED",
    "SchedulerStats",
    "ServiceOptions",
    "Session",
    "SessionManager",
    "TenantPolicy",
    "Ticket",
    "plan_wrappers",
]
