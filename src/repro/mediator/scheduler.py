"""Concurrent dispatch of wrapper subqueries.

The sequential execution model (the seed executor, matching the paper's
additive ``TotalTime`` formulas) ships one subquery, waits for the full
wrapper response time, ships the next.  But independent ``Submit``
subtrees — the children of ``Join``/``Union`` access plans, and the probe
batches of a ``BindJoin`` — have no data dependencies between them: a
mediator that dispatches them concurrently waits only for the slowest
branch per concurrency slot (FedQPL's explicit *multiway* operators over
federation members model exactly this).

:class:`SubmitScheduler` implements both modes over an
:class:`~repro.mediator.backend.ExecutionBackend` (the simulated seed
stack by default; wall-clock thread-pool dispatch with ``repro.rt``):

* :meth:`dispatch_one` — the sequential model: request message + full
  wrapper wait + response message, per subquery;
* :meth:`dispatch_wave` — the concurrent model: request/response
  messages stay serialized (one mediator network interface) but the
  wrapper waits overlap, charged as the wave's list-scheduled makespan
  through :class:`~repro.sources.clock.ParallelClock`.

Both run **one per-submit sequence** (§2.2 Steps 4–5,
:meth:`SubmitScheduler._submit`): cache lookup → submit span → attempt
loop → replica failover → cache store → span close.  Where the costs
land — on the clock at once, or in a wave branch — is the ``charges``
strategy handed in; which fault-tolerance *policies* act inside the
sequence is decided once, at construction, from the
:class:`~repro.mediator.resilience.ResilienceOptions`:

* no options — one attempt, no breaker, no replica step;
* a retry policy — bounded attempts, exponential backoff charged on the
  backend's clock, a per-submit deadline that cancels a wrapper wait
  mid-flight;
* a breaker policy — a per-wrapper circuit breaker in front of the loop;
* **failover**, when the submit's wrapper is in a replica set — a submit
  that exhausts its budget (or fast-fails on an open breaker)
  re-dispatches against the next-cheapest healthy replica, rebinding the
  outcome's Submit to the rescuing wrapper so the submit log and drift
  join record where the rows actually came from; the attempt chain lands
  in the span tree and in :attr:`SubmitFailure.replicas_tried` when
  every member fails;
* **hedged submits**, with an opt-in ``ResilienceOptions.hedge_delay_ms``
  on a backend that models overlapping timelines — a wrapper wait that
  overruns the hedge delay launches one backup submit at the cheapest
  healthy replica; the first result wins and only the winner's duration
  is charged (the loser's remainder is recorded as cancelled hedge work,
  not mediator time).

**The fault contract.**  A wrapper fault never escapes a dispatch call:
it becomes a *failed* :class:`DispatchOutcome` that carries the
structured :class:`~repro.mediator.resilience.SubmitFailure` and the
original exception, and the consumer decides — the executor re-raises
the exception unchanged (no options), raises ``SubmitFailedError``
(``strict``) or degrades the answer (``partial``).  So a wave always
finishes its sibling branches, commits, and closes its spans.  Failed
attempts are never stored in the cache and never appear in the submit
log (history must only learn from real, successful measurements).  A
cache hit is served *before* any policy runs — it bypasses retry budget
and circuit breakers alike, because the memoized rows came from a past
successful execution and serving them during an outage is exactly the
point.

**What a submit cost** rides on its outcome: its retries, timeouts,
breaker activity, replica selection, failovers and hedges, and the wave
it rode.  The scheduler's lifetime stats and an execution's per-query
numbers are folds of these records, so they cannot disagree, however
many queries share the scheduler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import count
from typing import Callable, Sequence

from repro.algebra.logical import PlanNode, Project, Submit
from repro.core.statistics import StatisticsCatalog
from repro.mediator.backend import ExecutionBackend, SimBackend
from repro.mediator.cache import CacheEntry, SubanswerCache
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.resilience import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    ReplicaStats,
    ResilienceOptions,
    ResilienceStats,
    RetryPolicy,
    SubmitFailure,
)
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.sources.clock import WaveStats
from repro.wrappers.base import ExecutionResult

#: The attempt budget of a scheduler with no fault-tolerance options.
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)


def estimate_payload_bytes(
    statistics: StatisticsCatalog, subplan: PlanNode, row_count: int
) -> int:
    """Approximate result-transfer size of one wrapper subanswer.

    Width starts from the average object size of the subplan's primary
    collection (100 bytes when unknown).  When the subplan projects a
    narrow attribute list, only the projected share of the object is
    shipped: per-attribute width is derived from the statistics as
    ``object_size / attribute count`` (no finer per-attribute width is
    exported, §3.2), so a 2-of-8-attribute projection ships a quarter of
    the object.
    """
    width = 100.0
    stats = None
    primary = subplan.primary_collection()
    if primary is not None and primary in statistics:
        stats = statistics.get(primary)
        width = float(max(1, stats.object_size))
    projection = next(
        (node for node in subplan.walk() if isinstance(node, Project)), None
    )
    if projection is not None and stats is not None and stats.attributes:
        fraction = min(1.0, len(projection.attributes) / len(stats.attributes))
        width = max(1.0, width * fraction)
    return int(row_count * width)


@dataclass
class DispatchOutcome:
    """One dispatched (or cache-served, or failed) subquery."""

    submit: Submit
    result: ExecutionResult
    #: True when the subanswer came from the cache — no wrapper execution
    #: happened and nothing should be recorded in the submit log.
    cached: bool = False
    #: Wrapper executions this outcome took (>1 when a retry succeeded;
    #: 0 when the breaker fast-failed the submit).
    attempts: int = 1
    #: Set when the submit exhausted its attempts (or fast-failed);
    #: ``result`` is then an empty placeholder and must not be consumed
    #: as a real subanswer.
    failure: SubmitFailure | None = None
    #: The wrapper exception behind a failed outcome's last attempt
    #: (``None`` for a breaker fast-fail or a deadline cancel).
    fault: BaseException | None = None
    #: This submit's own fault-handling and replica-dispatch events;
    #: ``None`` when there were none (no record on the fault-free path).
    resilience: ResilienceStats | None = None
    replication: ReplicaStats | None = None
    #: The committed wave this submit rode in (``None`` for a sequential
    #: dispatch), and its own branch duration within it.
    wave: WaveStats | None = None
    branch_ms: float = 0.0

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def fold_into(
        self, resilience: ResilienceStats | None, replication: ReplicaStats | None
    ) -> None:
        """Add this submit's events to the given records (a ``None``
        record is not gathered)."""
        if resilience is not None:
            resilience.add(self.resilience)
        if replication is not None:
            replication.add(self.replication)


def wave_saving(outcomes: "Sequence[DispatchOutcome]") -> float:
    """The share of their waves' saving that ``outcomes`` earned.

    Per wave, ``saved_ms`` in proportion to the outcomes' own branch
    time.  Outcomes that are the whole wave get exactly its ``saved_ms``
    on the simulated backend, where both sums run in branch order.
    """
    saved = 0.0
    waves = {id(o.wave): o.wave for o in outcomes if o.wave is not None}
    for wave in waves.values():
        if wave.sequential_ms:
            own_ms = sum(o.branch_ms for o in outcomes if o.wave is wave)
            saved += wave.saved_ms * (own_ms / wave.sequential_ms)
    return saved


class SubmitScheduler:
    """Dispatches Submit nodes to wrappers on the backend's clock."""

    def __init__(
        self,
        catalog: MediatorCatalog,
        max_concurrency: int | None = None,
        cache: SubanswerCache | None = None,
        resilience: ResilienceOptions | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.catalog = catalog
        #: The time-and-dispatch seam (the seed sim stack by default).
        self.backend = backend if backend is not None else SimBackend()
        self.clock = self.backend.clock
        self.cache = cache
        self.parallel = self.backend.attach_waves(max_concurrency)
        self.last_wave: WaveStats | None = None
        self._sequential = self.backend.sequential_charges()
        #: Fault-tolerance options; the policies they install are
        #: resolved here, once.  Absent options install none.
        self.resilience = resilience
        self._retry = _ONE_ATTEMPT if resilience is None else resilience.retry
        self._breaker_policy = None if resilience is None else resilience.breaker
        #: Replica sets are consulted (failover, ``selected`` counts)
        #: only under fault-tolerance options.
        self._replica_step = resilience is not None
        # Hedging charges the winner of two modelled timelines; on a
        # wall clock the primary wait is spent before its length is known.
        self._hedge_delay_ms: float | None = (
            None
            if resilience is None or self.backend.real_time
            else resilience.hedge_delay_ms
        )
        #: Per-wrapper circuit breakers, created lazily on first dispatch.
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Lifetime fault-handling and replica-dispatch counters: the
        #: fold of every outcome the two dispatch modes returned.
        self.resilience_stats = ResilienceStats()
        self.replica_stats = ReplicaStats()
        #: Cost-based replica ordering, injected by the mediator:
        #: ``(submit, candidates) -> candidates ordered cheapest first``.
        #: ``None`` falls back to catalog order (primary first).
        self.replica_ranker: (
            Callable[[Submit, tuple[str, ...]], Sequence[str]] | None
        ) = None
        #: Numbers the submits that may retry; part of the per-submit
        #: jitter seed so same-wave retries against one wrapper don't
        #: thunder-herd on identical backoff schedules.  ``next`` on a
        #: ``count`` is atomic, so pool threads never share a number.
        self._dispatch_seq = count(1)
        #: Telemetry sink; the shared null tracer keeps every span site a
        #: constant-time no-op until the mediator injects a real one.
        self.tracer: SpanTracer = NULL_TRACER

    # -- cache plumbing -----------------------------------------------------

    def _cached_outcome(self, submit: Submit) -> DispatchOutcome | None:
        if self.cache is None:
            return None
        entry: CacheEntry | None = self.cache.lookup(submit.wrapper, submit.child)
        if self.tracer.enabled:
            self.tracer.event(
                "cache.hit" if entry is not None else "cache.miss",
                kind="cache",
                wrapper=submit.wrapper,
                subquery=submit.child.describe(),
            )
        if entry is None:
            return None
        # Copies keep cached subanswers immutable under downstream row
        # merging and client-side mutation.
        rows = [dict(row) for row in entry.rows]
        return DispatchOutcome(
            submit=submit,
            result=ExecutionResult(rows=rows, total_time_ms=0.0, time_first_ms=0.0),
            cached=True,
        )

    def _store(self, submit: Submit, result: ExecutionResult) -> None:
        if self.cache is not None:
            # Store copies: the caller's rows flow on to clients who may
            # mutate them in place.
            rows = [dict(row) for row in result.rows]
            self.cache.store(
                submit.wrapper, submit.child, rows, result.total_time_ms
            )

    # -- circuit breakers ---------------------------------------------------

    def _breaker(self, wrapper: str) -> CircuitBreaker | None:
        if self._breaker_policy is None:
            return None
        breaker = self.breakers.get(wrapper)
        if breaker is None:
            # setdefault: concurrent wave branches must share one breaker.
            breaker = self.breakers.setdefault(
                wrapper, CircuitBreaker(self._breaker_policy)
            )
        return breaker

    def open_breaker_wrappers(self) -> list[str]:
        """Wrappers whose breaker is currently not closed (degraded mode)."""
        return sorted(
            name for name, breaker in self.breakers.items() if breaker.state != CLOSED
        )

    def _record_failure(self, wrapper: str, breaker: CircuitBreaker | None) -> bool:
        """Count one failure against a wrapper's breaker; True (and
        traced) when it tripped the breaker open."""
        if breaker is not None and breaker.record_failure(self.clock.now_ms):
            if self.tracer.enabled:
                self.tracer.event("breaker.open", kind="breaker", wrapper=wrapper)
            return True
        return False

    # -- the per-submit sequence ---------------------------------------------

    def _submit(self, submit: Submit, charges) -> DispatchOutcome:
        """Ship one subquery and collect its subanswer (§2.2 Steps 4–5).

        The single sequence behind :meth:`dispatch_one` and every branch
        of :meth:`dispatch_wave`; ``charges`` says where the costs land.
        Never raises on a wrapper fault — see the module's fault contract.
        """
        cached = self._cached_outcome(submit)
        if cached is not None:
            return cached
        tracer = self.tracer
        span = (
            tracer.start(
                f"submit:{submit.wrapper}",
                kind="submit",
                **self._submit_open_attrs(submit),
            )
            if tracer.enabled
            else None
        )
        replicated = (
            self._replica_step
            and self.catalog.has_replicas()
            and len(self.catalog.replica_members(submit.wrapper)) > 1
        )
        outcome = self._attempt(
            submit, charges, self._hedge_delay_ms if replicated else None
        )
        if replicated:
            outcome = self._fail_over(submit, outcome, charges)
        response_bytes = (
            None
            if outcome.failed
            else estimate_payload_bytes(
                self.catalog.statistics, submit.child, len(outcome.result.rows)
            )
        )
        charges.finish(response_bytes)
        if response_bytes is not None:
            self._store(outcome.submit, outcome.result)
        if span is not None:
            tracer.end(span, **self._submit_close_attrs(outcome, response_bytes))
        return outcome

    @staticmethod
    def _submit_open_attrs(submit: Submit) -> dict:
        """Attributes a submit span opens with: enough identity to join
        it back to the estimated plan (node ids) and, for scatter
        branches, to the shard it targets."""
        attrs: dict = {
            "wrapper": submit.wrapper,
            "subquery": submit.child.describe(),
            "node_id": submit.node_id,
            "child_node_id": submit.child.node_id,
        }
        if submit.shard is not None:
            attrs["shard"] = submit.shard
            attrs["shard_of"] = submit.shard_of
        return attrs

    @staticmethod
    def _submit_close_attrs(
        outcome: DispatchOutcome, response_bytes: int | None
    ) -> dict:
        """Attributes a submit span closes with."""
        attrs: dict = {
            "attempts": outcome.attempts,
            "outcome": "failed" if outcome.failed else "ok",
        }
        failure = outcome.failure
        if failure is not None:
            attrs["reason"] = failure.reason
            if failure.replicas_tried:
                attrs["replicas_tried"] = ",".join(failure.replicas_tried)
        else:
            result = outcome.result
            attrs["served_by"] = outcome.submit.wrapper
            attrs["rows"] = len(result.rows)
            # A wave branch overlaps its siblings — the sim clock only
            # advances at commit — so wrapper_ms carries the wait that a
            # zero-length simulated span cannot show.
            attrs["wrapper_ms"] = result.total_time_ms
            attrs["payload_bytes"] = response_bytes
            if result.device_stats:
                attrs.update(result.device_stats)
        return attrs

    # -- the attempt loop -----------------------------------------------------

    def _failed(
        self,
        submit: Submit,
        reason: str,
        attempts: int,
        fault: BaseException | None,
        resilience: ResilienceStats,
    ) -> DispatchOutcome:
        return DispatchOutcome(
            submit=submit,
            result=ExecutionResult(rows=[], total_time_ms=0.0, time_first_ms=0.0),
            attempts=attempts,
            failure=SubmitFailure(
                wrapper=submit.wrapper,
                subquery=submit.child.describe(),
                node_id=submit.node_id,
                collection=submit.child.primary_collection(),
                reason=reason,
                attempts=attempts,
            ),
            fault=fault,
            resilience=resilience,
        )

    def _attempt(
        self, submit: Submit, charges, hedge_delay_ms: float | None
    ) -> DispatchOutcome:
        """Run one submit against its wrapper under the installed retry
        policy, behind the wrapper's breaker when there is one.

        Charges a request message per attempt plus the waits (wrapper
        time, failure latency, backoff, cancelled remainders) through
        ``charges``; the response message is the caller's to charge.
        The outcome carries the submit's own fault events.
        """
        policy = self._retry
        tracer = self.tracer
        name = submit.wrapper
        # Only a submit that may retry needs a jitter coordinate.
        dispatch_seq = next(self._dispatch_seq) if policy.max_attempts > 1 else 0
        breaker = self._breaker(name)
        if breaker is not None and not breaker.allow(self.clock.now_ms):
            if tracer.enabled:
                tracer.event("breaker.fast_fail", kind="breaker", wrapper=name)
            fast_fail = ResilienceStats(breaker_fast_fails={name: 1})
            return self._failed(submit, "circuit_open", 0, None, fast_fail)
        wrapper = self.catalog.wrapper(name)
        deadline = policy.deadline_ms
        waited = 0.0
        attempts = 0
        reason = "transient"
        fault: BaseException | None = None
        # This submit's fault events, allocated at its first failure.
        events: ResilienceStats | None = None
        while attempts < policy.max_attempts:
            attempts += 1
            charges.message()  # ship the subquery (again, on a retry)
            attempt = self.backend.measured_execute(
                wrapper,
                submit.child,
                budget_ms=(
                    None if deadline is None else max(0.0, deadline - waited)
                ),
            )
            wait = attempt.duration_ms
            overran = deadline is not None and waited + wait > deadline
            if attempt.error is None and not overran:
                result = attempt.result
                assert result is not None
                if hedge_delay_ms is None:
                    charges.wrapper_wait(wait)
                    outcome = DispatchOutcome(submit=submit, result=result)
                else:
                    outcome = self._hedged(
                        submit, result, wait, charges, hedge_delay_ms
                    )
                if breaker is not None:
                    breaker.record_success()  # a hedged primary did answer, late
                if attempts > 1 or outcome.submit is not submit:
                    # Retried and hedge-won submits carry fault latency
                    # in their wall story; mark the result so the
                    # calibration window can skip it.
                    outcome.result = replace(outcome.result, fault_tainted=True)
                outcome.attempts = attempts
                if events is not None:
                    events.add(outcome.resilience)  # a hedge's backup trip
                    outcome.resilience = events
                return outcome
            if events is None:
                events = ResilienceStats()
            if overran:
                # The deadline fires mid-wait: cancel the wrapper wait,
                # charge only the remaining budget, discard any rows.
                remaining = max(0.0, deadline - waited)
                charges.idle_wait(remaining)
                events.cancelled_wait_ms = wait - remaining
                events.timeouts[name] = 1
                reason, fault = "timeout", None
                if tracer.enabled:
                    tracer.event(
                        "submit.timeout",
                        kind="retry",
                        wrapper=name,
                        attempt=attempts,
                        cancelled_ms=wait - remaining,
                    )
            else:
                charges.wrapper_wait(wait)
                waited += wait
                reason, fault = attempt.error, attempt.fault
                # Every attempt so far failed: a timeout ends the loop.
                events.attempt_errors[name] = attempts
            if self._record_failure(name, breaker):
                trips = events.breaker_trips
                trips[name] = trips.get(name, 0) + 1
            if overran or (breaker is not None and breaker.state == OPEN):
                # No attempt can fit the spent wait budget, and a dead
                # source must not burn the rest of the retry budget.
                break
            if attempts < policy.max_attempts:
                backoff = policy.backoff_ms(
                    attempts, self._jitter_rng(name, dispatch_seq, attempts)
                )
                if deadline is not None:
                    backoff = min(backoff, deadline - waited)
                if backoff > 0:
                    charges.idle_wait(backoff)
                    events.backoff_ms += backoff
                    waited += backoff
                events.retries[name] = attempts
                if tracer.enabled:
                    tracer.event(
                        "retry",
                        kind="retry",
                        wrapper=name,
                        attempt=attempts + 1,
                        backoff_ms=backoff,
                        reason=reason,
                    )
        assert events is not None  # the loop only falls through on failure
        events.failed_submits[name] = 1
        return self._failed(submit, reason, attempts, fault, events)

    def _jitter_rng(self, wrapper: str, dispatch_seq: int, attempt: int) -> random.Random:
        """A fresh deterministic RNG per backoff draw, seeded from
        (options seed, wrapper, submit dispatch sequence, attempt index).
        String seeds hash stably across processes, and distinct submits
        retrying against the same wrapper de-synchronize instead of
        thunder-herding on one shared schedule."""
        assert self.resilience is not None
        return random.Random(
            f"{self.resilience.seed}:{wrapper}:{dispatch_seq}:{attempt}"
        )

    # -- replicas: candidates, hedging, failover ------------------------------

    def _replica_candidates(
        self, submit: Submit, exclude: Sequence[str]
    ) -> list[str]:
        """Healthy replica members to try for a submit, cheapest first
        (via the injected ranker; catalog order otherwise)."""
        now_ms = self.clock.now_ms
        candidates = []
        for member in self.catalog.replica_members(submit.wrapper):
            breaker = self.breakers.get(member)
            if member not in exclude and not (
                breaker is not None and breaker.blocked(now_ms)
            ):
                candidates.append(member)
        if len(candidates) > 1 and self.replica_ranker is not None:
            candidates = list(self.replica_ranker(submit, tuple(candidates)))
        return candidates

    def _rebound(self, submit: Submit, wrapper: str) -> Submit:
        """The same submit re-targeted at a replica.  The child subtree is
        *shared*, not cloned: downstream consumers (drift, profile) join
        on ``child.node_id``, which must keep naming the planned node."""
        return Submit(
            submit.child, wrapper, shard=submit.shard, shard_of=submit.shard_of
        )

    def _hedged(
        self,
        submit: Submit,
        result: ExecutionResult,
        wait: float,
        charges,
        delay_ms: float,
    ) -> DispatchOutcome:
        """Race a straggling (but successful) primary wait against one
        backup replica.  Charges the *winner's* duration — the primary
        wait itself when no hedge fires — and returns the outcome of the
        serving submit, carrying the hedge's events."""
        name = submit.wrapper
        candidates = (
            self._replica_candidates(submit, exclude=(name,))
            if wait > delay_ms
            else ()
        )
        if not candidates:
            charges.wrapper_wait(wait)
            return DispatchOutcome(submit=submit, result=result)
        backup_name = candidates[0]
        events = ReplicaStats(hedges_launched={backup_name: 1})
        tracer = self.tracer
        charges.message()  # the backup subquery ships too
        if tracer.enabled:
            tracer.event(
                "hedge.launch",
                kind="hedge",
                wrapper=name,
                backup=backup_name,
                delay_ms=delay_ms,
                primary_ms=wait,
            )
        backup_breaker = self._breaker(backup_name)
        backup = self.backend.measured_execute(
            self.catalog.wrapper(backup_name), submit.child
        )
        if backup.result is not None and delay_ms + backup.duration_ms < wait:
            # Backup wins: the mediator waited the delay (for the hedge
            # to fire) plus the backup's service time; the primary's
            # still-outstanding remainder is cancelled, never charged.
            winner_ms = delay_ms + backup.duration_ms
            charges.wrapper_wait(winner_ms)
            events.hedges_won[backup_name] = 1
            events.hedge_cancelled_ms = wait - winner_ms
            if backup_breaker is not None:
                backup_breaker.record_success()
            if tracer.enabled:
                tracer.event(
                    "hedge.won",
                    kind="hedge",
                    wrapper=name,
                    backup=backup_name,
                    winner_ms=winner_ms,
                    cancelled_ms=wait - winner_ms,
                )
            return DispatchOutcome(
                submit=self._rebound(submit, backup_name),
                result=backup.result,
                replication=events,
            )
        # Primary wins (or the backup faulted): charge the primary wait
        # as usual; all backup work happened on the losing timeline.
        charges.wrapper_wait(wait)
        events.hedge_cancelled_ms = backup.duration_ms
        outcome = DispatchOutcome(submit=submit, result=result, replication=events)
        if backup.result is None and self._record_failure(backup_name, backup_breaker):
            outcome.resilience = ResilienceStats(breaker_trips={backup_name: 1})
        return outcome

    def _fail_over(
        self, submit: Submit, outcome: DispatchOutcome, charges
    ) -> DispatchOutcome:
        """The replica step of a submit whose wrapper is in a replica set.

        A failed submit walks the remaining healthy members
        cheapest-first; a rescue rebinds the outcome's Submit to the
        serving wrapper (sharing the planned child subtree, so drift and
        profile joins keep working).  When every member fails, the plan
        submit's failure is returned with the full attempt chain in
        ``replicas_tried``.  Every attempt's events stay on the returned
        outcome.
        """
        if not outcome.failed:
            selected = ReplicaStats(selected={outcome.submit.wrapper: 1})
            selected.add(outcome.replication)  # a hedge's events
            outcome.replication = selected
            return outcome
        tracer = self.tracer
        tried = [submit.wrapper]
        first_failure = outcome.failure
        total_attempts = outcome.attempts
        # A failed attempt always carries its events (and never a hedge's).
        events = outcome.resilience
        assert first_failure is not None and events is not None
        while True:
            candidates = self._replica_candidates(submit, exclude=tried)
            if not candidates:
                break
            candidate = candidates[0]
            if tracer.enabled:
                tracer.event(
                    "failover.try",
                    kind="failover",
                    wrapper=submit.wrapper,
                    to=candidate,
                    reason=first_failure.reason,
                )
            alt = self._attempt(
                self._rebound(submit, candidate), charges, self._hedge_delay_ms
            )
            tried.append(candidate)
            total_attempts += alt.attempts
            events.add(alt.resilience)
            if not alt.failed:
                rescue = ReplicaStats(selected={candidate: 1}, failovers={candidate: 1})
                rescue.add(alt.replication)  # a hedge's events
                if tracer.enabled:
                    tracer.event(
                        "failover.rescued",
                        kind="failover",
                        wrapper=submit.wrapper,
                        to=candidate,
                        attempts=total_attempts,
                    )
                return DispatchOutcome(
                    submit=alt.submit,
                    result=replace(alt.result, fault_tainted=True),
                    attempts=total_attempts,
                    resilience=events,
                    replication=rescue,
                )
        if tracer.enabled and len(tried) > 1:
            tracer.event(
                "failover.exhausted",
                kind="failover",
                wrapper=submit.wrapper,
                replicas_tried=",".join(tried),
            )
        return replace(
            outcome,
            attempts=total_attempts,
            failure=replace(
                first_failure, attempts=total_attempts, replicas_tried=tuple(tried)
            ),
        )

    # -- the two dispatch modes -----------------------------------------------

    def dispatch_one(self, submit: Submit) -> DispatchOutcome:
        """The additive model: the mediator waits for the whole wrapper."""
        outcome = self._submit(submit, self._sequential)
        outcome.fold_into(self.resilience_stats, self.replica_stats)
        return outcome

    def dispatch_wave(self, submits: "list[Submit]") -> "list[DispatchOutcome]":
        """Dispatch independent subqueries as one concurrent wave.

        Wrapper waits are charged as the wave's makespan (max over
        branches, under the concurrency cap); request and response
        messages remain serialized per-branch charges.  Each outcome is
        stamped with the committed wave and its own branch duration (see
        :func:`wave_saving`).  The backend runs
        the branches: the sim backend executes them in input order (so
        results — and the wrapper engines' own clocks — stay
        deterministic, and a within-wave duplicate hits the cache its
        earlier sibling filled), the real backend fans them out on its
        thread pool (concurrent duplicates race and may both execute);
        either way outcomes return in input order.  The wave is committed
        and its span closed on every exit.
        """
        tracer = self.tracer
        wave_span = (
            tracer.start("wave", kind="wave", branches=len(submits))
            if tracer.enabled
            else None
        )
        branches = [self.backend.wave_charges(self.parallel) for _ in submits]
        outcomes: list[DispatchOutcome] = []
        self.parallel.begin_wave()
        try:
            outcomes = self.backend.run_wave(
                [
                    partial(self._submit, submit, charges)
                    for submit, charges in zip(submits, branches)
                ]
            )
        finally:
            wave = self.last_wave = self.parallel.commit_wave()
            for charges in branches:
                # Cache hits shipped nothing and failed submits have no
                # subanswer: neither has a response message to charge.
                if charges.response_bytes is not None:
                    self.parallel.charge_message(
                        payload_bytes=charges.response_bytes
                    )
            if wave_span is not None:
                tracer.end(
                    wave_span,
                    makespan_ms=wave.makespan_ms,
                    sequential_ms=wave.sequential_ms,
                    saved_ms=wave.saved_ms,
                    cached_branches=sum(1 for o in outcomes if o.cached),
                    failed_branches=sum(1 for o in outcomes if o.failed),
                )
        # Folded here, on the dispatching thread, once the pool is done.
        for outcome, charges in zip(outcomes, branches):
            outcome.wave, outcome.branch_ms = wave, charges.branch_ms
            outcome.fold_into(self.resilience_stats, self.replica_stats)
        return outcomes
