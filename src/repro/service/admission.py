"""Cost-based admission control.

The serving layer decides what to do with a query *before* running it,
using the same blended cost model the optimizer already trusts: every
submitted query is optimized (or served from the plan cache) first, and
its estimated TotalTime is weighed against configurable budgets.

Decisions, in the order they are checked:

* **reject: degraded** — every wrapper the chosen plan touches has an
  open circuit breaker; the query can only fail (or, with partial
  answers on, return nothing), so it is bounced immediately instead of
  occupying a slot;
* **reject: estimate_exceeds_budget** — the estimate alone is larger
  than the tenant's (or the service's) *total* outstanding-work budget,
  so the query could never be admitted no matter how long it queued;
* **admit** — the tenant and the service both have a free concurrency
  slot and enough headroom in their outstanding-estimated-ms budgets;
* **queue** — no headroom now, but the queue is not full;
* **reject: queue_full** — the tenant's queue is at ``max_queue_depth``.

Budgets are *estimate-denominated*: the controller tracks the sum of
estimated TotalTime of running queries ("outstanding ms"), not wall
time, so admission is deterministic and needs no feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algebra.logical import PlanNode, Submit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mediator.scheduler import SubmitScheduler

ADMITTED = "admitted"
QUEUED = "queued"
REJECTED = "rejected"


@dataclass
class TenantPolicy:
    """Per-tenant admission budgets and scheduling weight."""

    #: Fair-share weight: a tenant with quota 2.0 accumulates scheduling
    #: deficit twice as fast as one with quota 1.0 (see scheduler.py).
    quota: float = 1.0
    #: Max queries of this tenant running at once (None = no cap).
    max_concurrent: int | None = None
    #: Max summed estimated TotalTime (ms) of this tenant's running
    #: queries (None = no cap).
    max_outstanding_ms: float | None = None
    #: Max queries waiting in this tenant's queue (None = unbounded).
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.quota <= 0:
            raise ValueError(f"quota must be > 0, got {self.quota}")


#: Policy of a tenant without a ``set_policy`` entry.  Shared: read, never
#: mutated.
DEFAULT_POLICY = TenantPolicy()


@dataclass
class AdmissionDecision:
    """What the controller decided for one query, and why."""

    status: str
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.status == ADMITTED

    @property
    def queued(self) -> bool:
        return self.status == QUEUED

    @property
    def rejected(self) -> bool:
        return self.status == REJECTED


def plan_wrappers(plan: PlanNode) -> set[str]:
    """Every wrapper a plan submits to."""
    return {node.wrapper for node in plan.walk() if isinstance(node, Submit)}


@dataclass
class _Usage:
    """Live load the controller charges budgets against."""

    running: int = 0
    outstanding_ms: float = 0.0
    queued: int = 0


class AdmissionController:
    """Estimate-first admission against per-tenant and global budgets.

    The controller is pure bookkeeping: the scheduler calls
    :meth:`decide` at submit time, :meth:`on_start` / :meth:`on_finish`
    as queries enter and leave execution, and :meth:`on_queue` /
    :meth:`on_dequeue` around the wait queue.
    """

    def __init__(
        self,
        *,
        max_concurrent_queries: int | None = None,
        max_outstanding_ms: float | None = None,
    ) -> None:
        self.max_concurrent_queries = max_concurrent_queries
        self.max_outstanding_ms = max_outstanding_ms
        self.global_usage = _Usage()
        self._tenant_usage: dict[str, _Usage] = {}

    def usage(self, tenant: str) -> _Usage:
        usage = self._tenant_usage.get(tenant)
        if usage is None:
            usage = self._tenant_usage[tenant] = _Usage()
        return usage

    # -- the decision ---------------------------------------------------------

    def decide(
        self,
        tenant: str,
        policy: TenantPolicy,
        estimated_ms: float,
        plan: PlanNode | None = None,
        scheduler: "SubmitScheduler | None" = None,
    ) -> AdmissionDecision:
        degraded = self._degraded_reason(plan, scheduler)
        if degraded is not None:
            return AdmissionDecision(REJECTED, degraded)
        feasibility = self._feasibility_reason(policy, estimated_ms)
        if feasibility is not None:
            return AdmissionDecision(REJECTED, feasibility)
        if self._has_headroom(tenant, policy, estimated_ms):
            return AdmissionDecision(ADMITTED)
        usage = self.usage(tenant)
        if (
            policy.max_queue_depth is not None
            and usage.queued >= policy.max_queue_depth
        ):
            return AdmissionDecision(
                REJECTED,
                f"queue_full: tenant {tenant!r} already has {usage.queued} "
                f"queued queries (max_queue_depth={policy.max_queue_depth})",
            )
        return AdmissionDecision(QUEUED, "no_headroom")

    def _degraded_reason(
        self, plan: PlanNode | None, scheduler: "SubmitScheduler | None"
    ) -> str | None:
        if plan is None or scheduler is None:
            return None
        open_wrappers = set(scheduler.open_breaker_wrappers())
        if not open_wrappers:
            return None
        needed = plan_wrappers(plan)
        if not needed:
            return None
        catalog = getattr(scheduler, "catalog", None)

        def source_down(wrapper: str) -> bool:
            # A replicated source is only truly down when EVERY member
            # of its set has an open breaker — the scheduler fails over
            # to healthy siblings, so one open breaker is not fatal.
            if catalog is None:
                return wrapper in open_wrappers
            return all(
                member in open_wrappers
                for member in catalog.replica_members(wrapper)
            )

        if all(source_down(wrapper) for wrapper in needed):
            return (
                "degraded: every wrapper of the plan has an open breaker "
                f"({', '.join(sorted(needed))})"
            )
        return None

    def _feasibility_reason(
        self, policy: TenantPolicy, estimated_ms: float
    ) -> str | None:
        """A query whose estimate alone overflows a *total* budget would
        queue forever; bounce it at submit instead."""
        for scope, budget in (
            ("tenant", policy.max_outstanding_ms),
            ("service", self.max_outstanding_ms),
        ):
            if budget is not None and estimated_ms > budget:
                return (
                    f"estimate_exceeds_budget: estimated {estimated_ms:.0f} ms "
                    f"> {scope} budget {budget:.0f} ms"
                )
        return None

    def _has_headroom(
        self, tenant: str, policy: TenantPolicy, estimated_ms: float
    ) -> bool:
        usage = self.usage(tenant)
        if (
            self.max_concurrent_queries is not None
            and self.global_usage.running >= self.max_concurrent_queries
        ):
            return False
        if (
            policy.max_concurrent is not None
            and usage.running >= policy.max_concurrent
        ):
            return False
        if (
            self.max_outstanding_ms is not None
            and self.global_usage.outstanding_ms + estimated_ms
            > self.max_outstanding_ms
        ):
            return False
        if (
            policy.max_outstanding_ms is not None
            and usage.outstanding_ms + estimated_ms > policy.max_outstanding_ms
        ):
            return False
        return True

    # -- load bookkeeping ------------------------------------------------------

    def on_queue(self, tenant: str) -> None:
        self.usage(tenant).queued += 1

    def on_dequeue(self, tenant: str) -> None:
        self.usage(tenant).queued -= 1

    def on_start(self, tenant: str, estimated_ms: float) -> None:
        usage = self.usage(tenant)
        usage.running += 1
        usage.outstanding_ms += estimated_ms
        self.global_usage.running += 1
        self.global_usage.outstanding_ms += estimated_ms

    def on_finish(self, tenant: str, estimated_ms: float) -> None:
        usage = self.usage(tenant)
        usage.running -= 1
        usage.outstanding_ms -= estimated_ms
        self.global_usage.running -= 1
        self.global_usage.outstanding_ms -= estimated_ms
