"""The mediator-side execution engine (§2.2, Steps 4–6).

Executes the chosen plan: ``Submit`` nodes dispatch their subtree to the
owning wrapper (Step 4) and collect the subanswer (Step 5); the operators
above the submits — the *composition subquery* — run at the mediator over
in-memory rows.  All time is accounted on the mediator's simulated clock:
wrapper execution advances it by the wrapper's measured response time,
communication charges the configured per-message/per-byte costs, and
local operators charge per-row CPU.

Dispatch goes through a :class:`~repro.mediator.scheduler.
SubmitScheduler`.  By default it runs the paper's sequential model
(additive ``TotalTime``); with ``ExecutorOptions(parallel_submits=True)``
independent Submit subtrees — and the probe batches of a ``BindJoin`` —
are dispatched as concurrent waves whose wrapper waits overlap (see
``docs/execution.md``).  An optional subanswer cache memoizes identical
wrapper subqueries within and across queries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Any, Iterator, Sequence

from repro.algebra.expressions import Or, conjunction, eq
from repro.algebra.logical import BindJoin, PlanNode, Scan, Scatter, Select, Submit
from repro.algebra.rowops import eval_charge, getter, handlers, merge_rows, timed_rows
from repro.errors import PlanError, SubmitFailedError
from repro.mediator.backend import ExecutionBackend
from repro.mediator.cache import SubanswerCache
from repro.mediator.catalog import MediatorCatalog
from repro.mediator.resilience import (
    PARTIAL,
    ReplicaStats,
    ResilienceOptions,
    ResilienceStats,
    SubmitFailure,
    build_partial_answer,
)
from repro.mediator.scheduler import DispatchOutcome, SubmitScheduler, wave_saving
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.sources.pages import Row
from repro.wrappers.base import ExecutionResult


@dataclass
class ExecutorOptions:
    """Execution-model knobs of the mediator engine.

    The defaults reproduce the paper's sequential, additive accounting
    exactly (the §2.3 numbers and all seed tests are unchanged).
    """

    #: Dispatch independent Submit subtrees (and BindJoin probe batches)
    #: as concurrent waves: the clock charges the max over the wave's
    #: wrapper times plus per-branch communication, instead of the sum.
    parallel_submits: bool = False
    #: Concurrency slots per wave; ``None`` means unbounded.
    max_concurrency: int | None = None
    #: Memoize identical wrapper subqueries (by plan fingerprint) within
    #: and across queries; hits skip wrapper execution entirely.
    cache_subanswers: bool = False
    #: Fault-tolerance policies (retry/backoff/deadline, circuit
    #: breakers, strict-vs-partial failure mode).  ``None`` installs
    #: none: a submit gets one attempt and a wrapper fault is re-raised
    #: unchanged.
    resilience: ResilienceOptions | None = None
    #: Execution backend the engine runs on.  ``None`` builds the
    #: default simulated stack (:class:`~repro.mediator.backend.
    #: SimBackend`); pass a :class:`~repro.rt.backend.RealTimeBackend`
    #: for wall-clock thread-pool dispatch against real sources.
    backend: ExecutionBackend | None = None


class MediatorExecutor:
    """Runs complete mediator plans."""

    def __init__(
        self,
        catalog: MediatorCatalog,
        options: ExecutorOptions | None = None,
        cache: SubanswerCache | None = None,
        backend: ExecutionBackend | None = None,
        scheduler: SubmitScheduler | None = None,
    ) -> None:
        self.catalog = catalog
        self.options = options if options is not None else ExecutorOptions()
        if cache is None and self.options.cache_subanswers:
            cache = SubanswerCache()
        self.cache = cache
        owns_scheduler = scheduler is None
        if owns_scheduler:
            scheduler = SubmitScheduler(
                catalog,
                max_concurrency=self.options.max_concurrency,
                cache=self.cache,
                resilience=self.options.resilience,
                backend=backend if backend is not None else self.options.backend,
            )
        #: The dispatcher: built here, or handed in (duck-typed) by a
        #: caller that shares one across executors — the serving layer.
        self.scheduler = scheduler
        self._owns_scheduler = owns_scheduler
        self.clock = scheduler.clock
        #: ``type(node) → handler``: the shared row operators over
        #: ``self._run(child)``, plus the nodes only the mediator runs.
        self._handlers = {
            **handlers(self._run, self.clock),
            Submit: self._run_submit,
            Scan: self._run_scan,
            BindJoin: self._run_bindjoin,
            Scatter: self._run_scatter,
        }
        self._submit_log: list[tuple[Submit, ExecutionResult]] = []
        #: The plan :meth:`stage` prepared (until :meth:`execute` walks
        #: it), its prefetch wave, the wave's outcomes by Submit node id,
        #: and the clock reading the execution's times count from.
        self._staged: PlanNode | None = None
        self._wave: list[Submit] = []
        self._prefetched: dict[int, DispatchOutcome] = {}
        self._start = 0.0
        #: Submit failures of the current execution (partial mode only).
        self._failures: list[SubmitFailure] = []
        #: Submits the current execution dispatched, how many of them the
        #: subanswer cache served, and the folds of their other events
        #: (a ``None`` record is not gathered for this executor).
        self._dispatched = 0
        self._cache_hits = 0
        self._saved_ms = 0.0
        self._resilience: ResilienceStats | None = None
        self._replication: ReplicaStats | None = None
        #: Telemetry sink; defaults to the shared no-op tracer.
        self.tracer: SpanTracer = NULL_TRACER
        self._trace_compose = False

    def set_tracer(self, tracer: SpanTracer, trace_compose: bool = True) -> None:
        """Install a span tracer on the executor and on the scheduler it
        built; a shared scheduler keeps the tracer of its owner."""
        self.tracer = tracer
        if self._owns_scheduler:
            self.scheduler.tracer = tracer
        self._trace_compose = tracer.enabled and trace_compose

    def stage(self, plan: PlanNode) -> "list[Submit]":
        """Begin an execution of ``plan`` and return its prefetch wave.

        Resets the per-execution state and starts the execution's clock.
        Under ``parallel_submits`` the wave is every Submit subtree of
        the plan: distinct Submit subtrees never depend on each other
        (wrapper subqueries are self-contained; only BindJoin
        parameterizes its probes, and those are built during the walk,
        not as plan Submits), so the whole set is one independent wave,
        sent before any row work (§2.2: subqueries out, subanswers back,
        then composition).  The sequential executor's wave is empty.

        A caller that dispatches the wave itself hands the outcomes to
        :meth:`deliver` and then walks the plan with :meth:`execute`.
        """
        self._submit_log = []
        self._prefetched = {}
        self._failures = []
        self._dispatched = self._cache_hits = 0
        self._saved_ms = 0.0
        self._resilience = (
            ResilienceStats() if self.options.resilience is not None else None
        )
        self._replication = ReplicaStats() if self.catalog.has_replicas() else None
        self._start = self.clock.now_ms
        self._wave = (
            [node for node in plan.walk() if isinstance(node, Submit)]
            if self.options.parallel_submits
            else []
        )
        self._staged = plan
        return self._wave

    def deliver(self, outcomes: "Sequence[DispatchOutcome]") -> None:
        """Hand the outcomes of the staged wave, in wave order, to the walk."""
        self._fold(outcomes)
        self._prefetched = {
            submit.node_id: outcome for submit, outcome in zip(self._wave, outcomes)
        }

    def execute(self, plan: PlanNode) -> ExecutionResult:
        """Execute a plan; returns rows plus mediator-measured times.

        A plan :meth:`stage` prepared is walked on the outcomes
        :meth:`deliver` handed over; any other plan is staged here and
        its wave dispatched on :attr:`scheduler` first.
        """
        if self._staged is not plan:
            wave = self.stage(plan)
            if wave:
                self.deliver(self.scheduler.dispatch_wave(wave))
        self._staged = None
        rows, time_first, total = timed_rows(self._run(plan), self.clock, self._start)
        return ExecutionResult(
            rows=rows,
            total_time_ms=total,
            time_first_ms=time_first,
            submit_log=list(self._submit_log),
            cache_hits=self._cache_hits,
            cache_misses=(
                self._dispatched - self._cache_hits if self.cache is not None else 0
            ),
            parallel_saved_ms=self._saved_ms,
            partial=(
                build_partial_answer(plan, self._failures)
                if self._failures
                else None
            ),
            resilience=self._resilience,
            replication=self._replication,
        )

    def _dispatch(
        self, submits: "list[Submit]", wave: bool
    ) -> "list[DispatchOutcome]":
        """The walk's own dispatches — sequential submits, Scatter
        fan-outs and BindJoin probes — go to the scheduler through here."""
        if wave:
            outcomes = self.scheduler.dispatch_wave(submits)
        else:
            outcomes = [self.scheduler.dispatch_one(submit) for submit in submits]
        self._fold(outcomes)
        return outcomes

    def _fold(self, outcomes: "Sequence[DispatchOutcome]") -> None:
        """Every outcome of the execution is folded here — the staged
        wave's and the walk's — so every dispatch number the execution
        reports comes from its own outcomes: each submit is one cache
        lookup (a hit when the outcome says so), carries its own fault
        and replica events, and earns its share of the waves it rode.
        (The cache's and the scheduler's own counters are shared by
        every query in flight.)"""
        self._dispatched += len(outcomes)
        for outcome in outcomes:
            self._cache_hits += outcome.cached
            outcome.fold_into(self._resilience, self._replication)
        self._saved_ms += wave_saving(outcomes)

    # -- operators ---------------------------------------------------------------

    def _run(self, node: PlanNode) -> Iterator[Row]:
        """Dispatch one plan node, optionally wrapped in a compose span.

        The traced path adds one generator layer per node; the default
        returns the operator's iterator untouched, so disabled telemetry
        costs nothing per row.
        """
        if not self._trace_compose or isinstance(node, Submit):
            # Submit spans are emitted by the scheduler (which also sees
            # cache hits and waves); composition spans cover the rest.
            return self._run_node(node)
        return self._traced_run(node)

    def _traced_run(self, node: PlanNode) -> Iterator[Row]:
        tracer = self.tracer
        span = tracer.start(
            f"compose:{node.operator_name}",
            kind="compose",
            node=node.describe(),
            node_id=node.node_id,
        )
        rows = 0
        try:
            for row in self._run_node(node):
                rows += 1
                yield row
        finally:
            tracer.end(span, rows=rows)

    def _run_node(self, node: PlanNode) -> Iterator[Row]:
        handler = self._handlers.get(type(node))
        if handler is None:
            raise PlanError(f"mediator cannot execute {node.operator_name!r}")
        return handler(node)

    def _run_scan(self, node: Scan) -> Iterator[Row]:
        raise PlanError(
            f"scan({node.collection}) reached the mediator executor "
            "without a submit — plans must route scans through wrappers"
        )

    def _consume(self, outcome: DispatchOutcome, **probe: Any) -> Sequence[Row]:
        """The subanswer rows of one outcome, for its consumer.

        A real execution is logged here, at consumption (not dispatch),
        so the log order matches the sequential executor's; cache hits
        are excluded — history must only learn from real, measured
        executions.  The outcome's submit (not the plan node) is logged:
        a failover or won hedge rebinds it to the replica that actually
        served the rows, while sharing the planned child subtree.

        A failed outcome is the consumer's half of the fault contract:
        with no resilience options the wrapper's own exception is
        re-raised unchanged; strict mode raises; partial mode records the
        failure (``probe`` fields rewritten) for the structured
        :class:`~repro.mediator.resilience.PartialAnswer` report, and the
        missing subtree contributes zero rows — union branches above drop
        out, joins above prune to empty.
        """
        if not outcome.failed:
            if not outcome.cached:
                self._submit_log.append((outcome.submit, outcome.result))
            return outcome.result.rows
        resilience = self.options.resilience
        if resilience is None:
            assert outcome.fault is not None
            raise outcome.fault
        failure = outcome.failure
        assert failure is not None
        if probe:
            failure = replace(failure, **probe)
        if resilience.mode != PARTIAL:
            raise SubmitFailedError(failure)
        self._failures.append(failure)
        return ()

    def _run_submit(self, node: Submit) -> Iterator[Row]:
        """The subanswer's own rows, dispatched at the *first pull*: a
        join drains its right input before it touches its left, so an
        eager dispatch here would reorder the submits (and every clock
        value after them).  The one-element ``map`` keeps that laziness
        without a generator frame between the rows and their consumer."""
        return chain.from_iterable(map(self._submit_rows, (node,)))

    def _submit_rows(self, node: Submit) -> Sequence[Row]:
        outcome = self._prefetched.pop(node.node_id, None)
        if outcome is None:
            (outcome,) = self._dispatch([node], wave=False)
        return self._consume(outcome)

    def _run_scatter(self, node: Scatter) -> Iterator[Row]:
        """Fan the shard submits out as one wave, gather in branch order.

        Scatter branches always dispatch concurrently — even under the
        sequential executor — because the fan-out is the operator's whole
        point; the parallel executor's global prefetch wave already
        covers them, in which case the stored outcomes are consumed here.
        Like Union, the gather itself charges nothing per row.  A failed
        shard is a dropped branch: strict mode raises, partial mode
        records it for the :class:`PartialAnswer`.
        """
        if self.tracer.enabled:
            self.tracer.event(
                "scatter",
                kind="scatter",
                collection=node.collection,
                shard_key=node.shard_key,
                node_id=node.node_id,
                branches=len(node.branches),
                total_shards=node.total_shards,
            )
        outcomes: list[DispatchOutcome]
        if all(branch.node_id in self._prefetched for branch in node.branches):
            outcomes = [
                self._prefetched.pop(branch.node_id) for branch in node.branches
            ]
        else:
            outcomes = self._dispatch(list(node.branches), wave=True)
        for outcome in outcomes:
            yield from self._consume(outcome)

    def _run_bindjoin(self, node: BindJoin) -> Iterator[Row]:
        """Dependent join: outer first, then keyed probe batches at the
        inner wrapper (one request per batch of distinct join keys)."""
        advance, cost = eval_charge(self.clock)
        outer_rows = list(self._run(node.outer))
        outer_key = getter(node.outer_attribute)
        outer_keys: list[Any] = []
        for row in outer_rows:
            advance(cost)
            outer_keys.append(outer_key(row))
        # Distinct non-null keys, in first-seen order.
        keys = [key for key in dict.fromkeys(outer_keys) if key is not None]
        inner_name = node.inner_attribute.name
        probes: list[Submit] = []
        for start in range(0, len(keys), node.batch_size):
            batch = keys[start : start + node.batch_size]
            key_predicate = eq(inner_name, batch[0])
            for key in batch[1:]:
                key_predicate = Or(key_predicate, eq(inner_name, key))
            predicates = [key_predicate]
            if node.inner_filters is not None:
                predicates.append(node.inner_filters)
            subplan = Select(Scan(node.inner_collection), conjunction(predicates))
            probes.append(Submit(subplan, node.wrapper))
        # The probe batches are mutually independent: one wave when the
        # executor is parallel, one dispatch each otherwise.
        outcomes = self._dispatch(
            probes, wave=self.options.parallel_submits and len(probes) > 1
        )
        inner_by_key: dict[Any, list[Row]] = {}
        inner_key = getter(inner_name)
        for outcome in outcomes:
            # Probe batches feed the §4.3.1 history like any other
            # dispatched subquery.  Their submits are synthesized at run
            # time, so their node ids are not in the plan: a failure is
            # reported under the BindJoin's identity (a failed probe
            # prunes the dependent join for that key batch).
            rows = self._consume(
                outcome,
                node_id=node.node_id,
                collection=node.inner_collection,
                bindjoin_probe=True,
            )
            for row in rows:
                inner_by_key.setdefault(inner_key(row), []).append(row)
        outer_label = node.outer.primary_collection() or "outer"
        for row, key in zip(outer_rows, outer_keys):
            advance(cost)
            for match in inner_by_key.get(key, ()):
                yield merge_rows(row, match, outer_label, node.inner_collection)
