"""Fault-tolerant dispatch policies and partial-answer semantics.

A production federation serving heavy traffic cannot fail a whole query
because one of its sources is slow or down — FedQPL models federation
members as independently-failing participants, and the XLive mediator
line makes per-source availability a first-class concern.  This module
holds everything the scheduler and executor need to degrade gracefully:

* :class:`RetryPolicy` — bounded attempts with exponential backoff (and
  optional deterministic jitter) charged on the *simulated* clock, plus a
  per-submit deadline that cancels a wrapper wait mid-flight;
* :class:`BreakerPolicy` / :class:`CircuitBreaker` — the classic
  closed → open → half-open state machine per wrapper, driven purely by
  the mediator's simulated clock, so a dead source stops consuming retry
  budget across a wave;
* :class:`ResilienceOptions` — the executor-level bundle (retry policy,
  breaker policy, ``strict`` vs ``partial`` failure mode);
* :class:`SubmitFailure` / :class:`PartialAnswer` — the structured
  degradation report attached to a query answered without all of its
  sources, including the documented soundness rule (see
  ``docs/resilience.md``):

  **Partial-answer reduction rule.**  A subtree is *missing* when every
  path to rows below it crosses a failed submit: a failed ``Submit`` is
  missing; a ``Union`` is missing only if both branches are; a ``Join``
  or ``BindJoin`` is missing if either side is (inner-join semantics);
  every other operator is missing iff its child is.  Missing union
  branches are dropped, joins over a missing side are pruned to zero
  rows.  Because all of those operators are monotone, every surviving
  row is a true answer row — the partial answer is a **sound lower
  bound** of the complete answer — *unless* an ``Aggregate`` sits above
  a failed submit, in which case aggregate values may be computed over
  partial groups and :attr:`PartialAnswer.sound_lower_bound` is False.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, fields
from typing import Any

from repro.algebra.logical import (
    Aggregate,
    BindJoin,
    Join,
    Scatter,
    PlanNode,
    Submit,
    Union,
)

#: Circuit-breaker states (plain strings: cheap, printable, JSON-ready).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff on the simulated clock.

    ``max_attempts`` counts *attempts*, not retries: 1 means fail on the
    first error, 3 means up to two retries.  ``deadline_ms`` caps the
    total simulated time one submit may spend *waiting* (wrapper waits,
    failure latencies, backoff sleeps; the serialized request/response
    messages are excluded — they share the mediator's network interface).
    A wrapper wait that would overrun the deadline is cancelled
    mid-flight: only the remaining budget is charged and the rows are
    discarded.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 100.0
    backoff_multiplier: float = 2.0
    backoff_max_ms: float = 5_000.0
    #: Symmetric jitter as a fraction of the computed delay (0 = none);
    #: drawn from the scheduler's seeded RNG, so runs stay reproducible.
    jitter_ratio: float = 0.0
    #: Per-submit wait budget in simulated ms; ``None`` = no deadline.
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter_ratio <= 1.0:
            raise ValueError(
                f"jitter_ratio must be in [0, 1], got {self.jitter_ratio}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")

    def backoff_ms(self, failed_attempts: int, rng: random.Random) -> float:
        """Backoff before the attempt after ``failed_attempts`` failures."""
        exponent = max(0, failed_attempts - 1)
        delay = min(
            self.backoff_max_ms,
            self.backoff_base_ms * self.backoff_multiplier**exponent,
        )
        if self.jitter_ratio > 0.0:
            delay *= 1.0 + self.jitter_ratio * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass
class BreakerPolicy:
    """Trip/cooldown knobs of the per-wrapper circuit breakers."""

    #: Consecutive failures that trip a closed breaker open.
    failure_threshold: int = 3
    #: Simulated ms an open breaker blocks before allowing one half-open
    #: probe.
    cooldown_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_ms < 0:
            raise ValueError(f"cooldown_ms must be >= 0, got {self.cooldown_ms}")


class CircuitBreaker:
    """Closed/open/half-open breaker for one wrapper, on simulated time.

    * **closed** — requests flow; ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — requests fast-fail without consuming retry budget until
      ``cooldown_ms`` of simulated time has passed, then the next
      :meth:`allow` transitions to half-open.
    * **half-open** — exactly *one* in-flight probe flows (concurrent
      requests in the same wave fast-fail while the probe is out);
      success closes the breaker, failure re-opens it with a fresh
      cooldown.

    State transitions are lock-guarded: on the real-time backend,
    branches of one wave record successes and failures for the same
    wrapper from concurrent pool threads, and the single-probe guarantee
    of the half-open state only holds if the check-and-set in
    :meth:`allow` is atomic.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms: float | None = None
        #: Lifetime closed→open (and half-open→open) transitions.
        self.trips = 0
        #: True while the single half-open probe is in flight.
        self._probe_in_flight = False
        self._lock = threading.Lock()

    def _blocked(self, now_ms: float) -> bool:
        if self.state == OPEN:
            assert self.opened_at_ms is not None
            return now_ms - self.opened_at_ms < self.policy.cooldown_ms
        # Only one probe tests the source: siblings dispatched while it
        # is out (e.g. the rest of a wave) fast-fail.
        return self.state == HALF_OPEN and self._probe_in_flight

    def blocked(self, now_ms: float) -> bool:
        """Would :meth:`allow` refuse a request right now?  Read-only:
        claims no probe (replica selection asks before it dispatches)."""
        with self._lock:
            return self._blocked(now_ms)

    def allow(self, now_ms: float) -> bool:
        """May a request flow at simulated time ``now_ms``?"""
        with self._lock:
            if self._blocked(now_ms):
                return False
            if self.state != CLOSED:
                # Cooled-down open, or half-open with no probe out:
                # this request is the single half-open probe.
                self.state = HALF_OPEN
                self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = CLOSED
            self.opened_at_ms = None
            self._probe_in_flight = False

    def record_failure(self, now_ms: float) -> bool:
        """Count a failure; returns True when this one tripped the
        breaker open (from closed *or* from a failed half-open probe)."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state == HALF_OPEN or (
                self.state == CLOSED
                and self.consecutive_failures >= self.policy.failure_threshold
            ):
                # A failed half-open probe re-opens with a *fresh* cooldown
                # (opened_at_ms restarts at now_ms).
                self.state = OPEN
                self.opened_at_ms = now_ms
                self.trips += 1
                self._probe_in_flight = False
                return True
            self._probe_in_flight = False
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures}, trips={self.trips})"
        )


#: Failure modes of the executor when a submit exhausts its retries.
STRICT = "strict"
PARTIAL = "partial"


@dataclass
class ResilienceOptions:
    """The executor-level fault-tolerance bundle.

    The options decide which policies the scheduler installs into its
    one per-submit sequence; ``None`` (the executor default) installs
    none.  The policies only act on failures: with options present but
    no faults occurring, clock totals and submit logs do not change.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: ``None`` disables circuit breakers (retries still apply).
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    #: ``strict`` — a failed submit raises :class:`~repro.errors.
    #: SubmitFailedError`; ``partial`` — the query completes with the
    #: surviving subtrees and a :class:`PartialAnswer` report.
    mode: str = STRICT
    #: Seed of the scheduler's jitter RNG.
    seed: int = 0
    #: Hedged submits: a successful wrapper wait longer than this many
    #: ms launches one backup submit at the cheapest healthy replica; the
    #: first result wins and the loser is cancelled — its unconsumed wait
    #: is never charged to the mediator clock (the work happened on a
    #: parallel timeline).  ``None`` disables hedging; only effective
    #: when the catalog has replica sets (hedging needs a second source
    #: to race).
    hedge_delay_ms: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, PARTIAL):
            raise ValueError(
                f"mode must be {STRICT!r} or {PARTIAL!r}, got {self.mode!r}"
            )
        if self.hedge_delay_ms is not None and self.hedge_delay_ms < 0:
            raise ValueError(
                f"hedge_delay_ms must be >= 0, got {self.hedge_delay_ms}"
            )


@dataclass
class SubmitFailure:
    """One submit that exhausted its retry budget (or was fast-failed)."""

    wrapper: str
    subquery: str
    #: ``node_id`` of the plan's Submit node; bind-join probe submits are
    #: synthesized at run time, so probes carry the BindJoin's id instead.
    node_id: int
    collection: str | None
    #: ``unavailable`` | ``transient`` | ``timeout`` | ``circuit_open``
    reason: str
    attempts: int
    #: True for a bind-join probe batch (the inner side of a dependent
    #: join, fetched per key batch).
    bindjoin_probe: bool = False
    #: Replica members tried (in dispatch order) before the branch was
    #: dropped; empty for unreplicated sources.
    replicas_tried: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "wrapper": self.wrapper,
            "subquery": self.subquery,
            "node_id": self.node_id,
            "collection": self.collection,
            "reason": self.reason,
            "attempts": self.attempts,
            "bindjoin_probe": self.bindjoin_probe,
            "replicas_tried": list(self.replicas_tried),
        }


@dataclass
class PartialAnswer:
    """What is missing from a degraded (``partial``-mode) answer."""

    failures: list[SubmitFailure] = field(default_factory=list)
    missing_wrappers: list[str] = field(default_factory=list)
    missing_collections: list[str] = field(default_factory=list)
    #: Union branches whose subtree was missing and therefore dropped.
    dropped_union_branches: int = 0
    #: Joins (and bind joins) reduced to zero rows by a missing side.
    pruned_joins: int = 0
    #: True when every operator above every failed submit is monotone:
    #: each returned row is a true answer row and the complete answer is
    #: a superset.  False when an Aggregate sits above a failure.
    sound_lower_bound: bool = True

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    def to_dict(self) -> dict[str, Any]:
        return {
            "failures": [f.to_dict() for f in self.failures],
            "missing_wrappers": list(self.missing_wrappers),
            "missing_collections": list(self.missing_collections),
            "dropped_union_branches": self.dropped_union_branches,
            "pruned_joins": self.pruned_joins,
            "sound_lower_bound": self.sound_lower_bound,
        }

    def describe(self) -> str:
        bound = (
            "sound lower bound"
            if self.sound_lower_bound
            else "NOT a sound lower bound (aggregate over missing data)"
        )
        return (
            f"partial answer: wrappers missing {self.missing_wrappers}, "
            f"collections missing {self.missing_collections}, "
            f"{self.dropped_union_branches} union branch(es) dropped, "
            f"{self.pruned_joins} join(s) pruned; {bound}"
        )


def _subtree_missing(node: PlanNode, failed_ids: set[int]) -> bool:
    """The reduction rule: does this subtree contribute zero rows?"""
    if isinstance(node, Submit):
        return node.node_id in failed_ids
    if isinstance(node, Union):
        return _subtree_missing(node.left, failed_ids) and _subtree_missing(
            node.right, failed_ids
        )
    if isinstance(node, Join):
        return _subtree_missing(node.left, failed_ids) or _subtree_missing(
            node.right, failed_ids
        )
    if isinstance(node, BindJoin):
        # The inner side is fetched per probe at run time; the plan-level
        # subtree is missing when the outer side is.
        return _subtree_missing(node.outer, failed_ids)
    if isinstance(node, Scatter):
        # An N-ary union over shards: missing only if every shard is.
        return all(
            _subtree_missing(branch, failed_ids) for branch in node.branches
        )
    children = node.children
    if not children:
        return False
    return all(_subtree_missing(child, failed_ids) for child in children)


def build_partial_answer(
    plan: PlanNode, failures: list[SubmitFailure]
) -> PartialAnswer:
    """Fold the recorded failures into the structured degradation report."""
    failed_ids = {f.node_id for f in failures if not f.bindjoin_probe}
    probe_join_ids = {f.node_id for f in failures if f.bindjoin_probe}
    missing_wrappers = sorted({f.wrapper for f in failures})
    missing_collections = sorted(
        {f.collection for f in failures if f.collection is not None}
    )
    dropped_union_branches = 0
    pruned_joins = len(probe_join_ids)
    sound = True
    for node in plan.walk():
        if isinstance(node, Union):
            for side in (node.left, node.right):
                if _subtree_missing(side, failed_ids):
                    dropped_union_branches += 1
        elif isinstance(node, Join):
            left = _subtree_missing(node.left, failed_ids)
            right = _subtree_missing(node.right, failed_ids)
            if left != right:  # one side missing -> join pruned to zero
                pruned_joins += 1
        elif isinstance(node, BindJoin):
            if _subtree_missing(node.outer, failed_ids):
                pruned_joins += 1
        elif isinstance(node, Scatter):
            # Each failed shard is one dropped branch of the N-ary
            # gather union — the answer is missing that shard's rows.
            for branch in node.branches:
                if _subtree_missing(branch, failed_ids):
                    dropped_union_branches += 1
        elif isinstance(node, Aggregate):
            subtree_ids = {
                child.node_id
                for child in node.walk()
                if isinstance(child, Submit)
            }
            if subtree_ids & failed_ids or (
                probe_join_ids
                & {c.node_id for c in node.walk() if isinstance(c, BindJoin)}
            ):
                sound = False
    return PartialAnswer(
        failures=list(failures),
        missing_wrappers=missing_wrappers,
        missing_collections=missing_collections,
        dropped_union_branches=dropped_union_branches,
        pruned_joins=pruned_joins,
        sound_lower_bound=sound,
    )


class _WrapperCounters:
    """What the per-wrapper stats dataclasses share.

    ``dict`` fields count events per wrapper, ``float`` fields accumulate
    milliseconds.  One record holds the events of one submit (on its
    :class:`~repro.mediator.scheduler.DispatchOutcome`), of one
    execution, or of a scheduler's lifetime; the last two are folds of
    the first, made on the dispatching thread with :meth:`add`.
    """

    def total(self, counter: str) -> int:
        """One event counter summed over every wrapper."""
        return sum(getattr(self, counter).values())

    def add(self, other) -> None:
        """Fold ``other``'s counts into this record (``None``: a submit
        with no such events)."""
        if other is None:
            return
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for wrapper, value in theirs.items():
                    mine[wrapper] = mine.get(wrapper, 0) + value
            else:
                setattr(self, f.name, mine + theirs)


@dataclass
class ResilienceStats(_WrapperCounters):
    """Fault-handling counters per wrapper: of one submit, of one
    execution (``ExecutionResult.resilience``), or of a scheduler's
    lifetime — the latter two fold the submits' own records."""

    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    #: Failed attempts per wrapper (transient + unavailable).
    attempt_errors: dict[str, int] = field(default_factory=dict)
    breaker_trips: dict[str, int] = field(default_factory=dict)
    breaker_fast_fails: dict[str, int] = field(default_factory=dict)
    failed_submits: dict[str, int] = field(default_factory=dict)
    backoff_ms: float = 0.0
    cancelled_wait_ms: float = 0.0


@dataclass
class ReplicaStats(_WrapperCounters):
    """Replica-dispatch counters per wrapper, folded like
    :class:`ResilienceStats`; only attached to results
    (``ExecutionResult.replication``) when the catalog actually has
    replica sets."""

    #: Submits served by each wrapper *as the optimizer's replica
    #: choice* (counted only for replicated sources).
    selected: dict[str, int] = field(default_factory=dict)
    #: Successful mid-query failovers, keyed by the replica that rescued
    #: the submit.
    failovers: dict[str, int] = field(default_factory=dict)
    #: Hedged backups launched, keyed by the backup wrapper.
    hedges_launched: dict[str, int] = field(default_factory=dict)
    #: Hedged backups that beat the primary, keyed by the backup wrapper.
    hedges_won: dict[str, int] = field(default_factory=dict)
    #: Simulated ms of loser work cancelled (never charged to the
    #: mediator clock — it happened on the losing parallel timeline).
    hedge_cancelled_ms: float = 0.0


__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "PARTIAL",
    "PartialAnswer",
    "ReplicaStats",
    "ResilienceOptions",
    "ResilienceStats",
    "RetryPolicy",
    "STRICT",
    "SubmitFailure",
    "build_partial_answer",
]
