"""``serve_mix`` — 4 logical closed-loop clients in two tenants, driven
from one thread through ``FederationService.submit(..., on_complete=
resubmit)`` / ``run()`` (the E11 driver idiom), ``max_concurrent_queries
= 4``, over the three-branch federation with the oo7 store beside it.

Why: the north-star entry point; ``session``/``plancache``,
``admission`` and ``svc_scheduler`` (one thread hand-off per wave) do
most of the work, and the plan cache is used two ways at once.  80 % of
operations come from a hot set of 32 statements (plan-cache reads);
20 % are oo7 point lookups whose keys cycle over a domain larger than
``plan_cache_entries``, so every one is a miss: parse + optimize +
insert + LRU eviction.  Every lookup returns one row, so the mix is
stationary.  Latency is what a client sees, submit to callback, while
three other operations share the driver thread, so it is an operation's
own work plus its neighbours': the places of a block cost 1.1 to 6.0 ms,
and hits and misses are found along that whole range.
``latency_p50_ms`` (≈ 3.6 ms) is the typical place,
``latency_p99_ms`` (≈ 5.7 ms) the slowest place of the block; which of
the plan cache's two uses a change touched is read from ``plancache.*``
and ``session.busy_ms`` of the traced run.

A round is built from blocks of 40 operations, each the 32 hot
statements once plus 8 fresh misses, in one order that every block
repeats: between two uses of a hot statement exactly 8 misses are
inserted, so with 64 cache entries a hot plan is never the LRU victim,
while a miss key recurs only after 199 other keys and is always evicted
first.  Because every block has the same order and every miss costs the
same, the service's schedule repeats with the block (checked on every
run): the operation completing at place p of one block has the same
statement class and the same operations in flight beside it as the one
at place p of any other block, so they are samples of one operation
(``same_operation``).

The benchmark seed chooses the keys of the lookups, hot and missing; the
order of a block is the same for every seed.  With four operations in
flight an operation's latency depends on its neighbours, so a seeded
order makes every seed a different workload: over ten seeds the slowest
place of the block, which is the round's p99, ranged from 6.0 to 9.1 ms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.bench.harness import build_federation
from repro.errors import AdmissionError
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.service import FederationService, ServiceOptions, TenantPolicy

from fixtures import federation_statements, oo7_config, oo7_wrapper
from harness import Workload
from oracles import Statement, engine_rows, rows_statement, verified_pass
from tracing import (
    OP,
    DispatchProxy,
    Recorder,
    TracedWrapper,
    registration_spans,
    traced_plan,
)

PLAN_CACHE_ENTRIES = 64
HOT = 32
MISSES_PER_BLOCK = 8
BLOCKS = 25  # x 40 operations = 1 000 per round
BLOCK_ORDER = 2  # seeds the one order of a block; the same for every run
TENANTS = ("analytics", "dashboards")
CLIENTS_PER_TENANT = 2


@dataclass
class Fixture:
    mediator: Mediator
    service: FederationService
    sessions: list
    ops: list[Statement]
    #: admitted / queued / rejected of the last round, from its tickets.
    admission: dict[str, int] = field(default_factory=dict)


class ServeMix(Workload):
    name = "serve_mix"
    clients = len(TENANTS) * CLIENTS_PER_TENANT
    #: The plan cache fills and the LRU order settles over the first rounds.
    warmup_rounds = 3

    def build(self, recorder, lap) -> Fixture:
        config = oo7_config(self.smoke)
        wrap = (lambda w: TracedWrapper(w, recorder)) if recorder is not None else None
        with registration_spans(recorder):
            mediator = build_federation(ExecutorOptions(parallel_submits=True), wrap=wrap)
            oo7 = oo7_wrapper(config)
            lap()
            mediator.register(wrap(oo7) if wrap is not None else oo7)
            lap()
        if recorder is not None:
            _trace_mediator(mediator, recorder)
        service = FederationService(
            mediator,
            ServiceOptions(
                max_concurrent_queries=self.clients,
                plan_cache_entries=PLAN_CACHE_ENTRIES,
            ),
        )
        sessions = []
        for tenant in TENANTS:
            service.set_policy(tenant, TenantPolicy(quota=1.0))
            sessions += [service.open_session(tenant) for _ in range(CLIENTS_PER_TENANT)]
        if recorder is not None:
            _trace_service(service, sessions, recorder)

        rng = random.Random(self.seed)
        blocks = 2 if self.smoke else BLOCKS
        parts = engine_rows(oo7, "AtomicParts")
        keys = rng.sample(range(config.num_atomic_parts), 8 + blocks * MISSES_PER_BLOCK)
        lookups = [
            rows_statement(
                "lookup",
                f"SELECT * FROM AtomicParts WHERE Id = {key}",
                [row for row in parts if row["Id"] == key],
            )
            for key in keys
        ]
        pools = federation_statements(mediator)
        hot = pools["scan"] + pools["point"] + pools["join"] + lookups[:8]
        hot += [
            rows_statement(
                "hot_range",
                f"SELECT Id, buildDate FROM AtomicParts WHERE Id < {bound}",
                [{"Id": r["Id"], "buildDate": r["buildDate"]} for r in parts if r["Id"] < bound],
            )
            for bound in (25, 50)
        ]
        assert len(hot) == HOT, len(hot)
        misses = lookups[8:]
        lap()
        # The verified pass goes through the mediator directly, leaving
        # the service's plan cache cold for the warm-up rounds to fill.
        verified_pass(hot + misses, lambda s: mediator.query(s.sql).rows, lap)
        ops: list[Statement] = []
        places = list(range(HOT + MISSES_PER_BLOCK))
        random.Random(BLOCK_ORDER).shuffle(places)
        for block in range(blocks):
            chunk = hot + misses[block * MISSES_PER_BLOCK : (block + 1) * MISSES_PER_BLOCK]
            ops += [chunk[place] for place in places]
        return Fixture(mediator, service, sessions, ops)

    def sequence(self, fixture: Fixture) -> list[str]:
        return [op.sql for op in fixture.ops]

    def same_operation(self, fixture: Fixture, order: list[int]) -> list:
        """The place within the block, once the schedule is seen to
        repeat with the block.  The first and the last block keep a key
        per completion: the four clients are starting up or running dry
        there."""
        block = HOT + MISSES_PER_BLOCK
        last = len(order) - block
        if any(order[k + block] - order[k] != block for k in range(last)):
            raise AssertionError("the service's schedule does not repeat with the block")
        return [k % block if block <= k < last else -1 - k for k in range(len(order))]

    def run_round(self, fixture: Fixture, recorder: Recorder | None, log) -> None:
        service, ops = fixture.service, fixture.ops
        cursor = 0

        def submit_next(session) -> None:
            nonlocal cursor
            while cursor < len(ops):
                number, op = cursor, ops[cursor]
                cursor += 1
                start = perf_counter()

                def done(ticket, op=op, start=start, number=number) -> None:
                    log.complete(start, number)
                    rows = ticket.result.rows if ticket.status == "done" else None
                    if rows is None or len(rows) != op.expected_count:
                        log.failed += 1
                    elif recorder is not None:
                        with recorder.span("oracle"):
                            log.failed += not op.verify(rows)
                    submit_next(session)

                try:
                    if recorder is None:
                        service.submit(session, op.sql, on_complete=done)
                    else:
                        recorder.op_id = number
                        with recorder.span("service.submit"):
                            service.submit(session, op.sql, on_complete=done)
                    return
                except AdmissionError:
                    # Rejected = failed; a closed-loop client moves on.
                    log.complete(start, number)
                    log.failed += 1

        for session in fixture.sessions:
            submit_next(session)
        if recorder is None:
            service.run()
        else:
            with recorder.span("service.run"):
                service.run()
        tickets = service.tickets
        fixture.admission = {
            "admission.admitted": sum(t.started_ms is not None for t in tickets),
            "admission.queued": sum(
                any(e["event"] == "queue" for e in t.events) for t in tickets
            ),
            "admission.rejected": sum(t.status == "rejected" for t in tickets),
        }
        # Tickets hold result rows; a long-lived service would page them out.
        tickets.clear()

    def counters(self, fixture: Fixture) -> dict[str, int]:
        cache = fixture.service.plan_cache.stats
        scheduler = fixture.service.scheduler.stats
        return {
            "plancache.hits": cache.hits,
            "plancache.misses": cache.misses,
            "plancache.sql_hits": cache.sql_hits,
            "svc_scheduler.rounds": scheduler.rounds,
            "svc_scheduler.waves": scheduler.waves_dispatched,
            "svc_scheduler.cross_query_waves": scheduler.cross_query_waves,
        }

    def extra_layer_metrics(self, fixture: Fixture, round_, untraced_wall_s) -> dict:
        deltas = round_.counter_deltas
        metrics: dict[str, float] = dict(deltas)
        lookups = deltas["plancache.hits"] + deltas["plancache.misses"]
        metrics["plancache.hit_ratio"] = deltas["plancache.hits"] / lookups
        metrics["plancache.size"] = len(fixture.service.plan_cache)
        metrics["svc_scheduler.max_in_flight"] = fixture.service.scheduler.stats.max_in_flight
        metrics.update(fixture.admission)
        # The same statements through Mediator.query, no service in
        # between (and no plan cache: every one is parsed and planned).
        # Blocks have identical composition, so a few of them stand for
        # the round; the quietest of three passes is kept.
        sample = fixture.ops[: 5 * (HOT + MISSES_PER_BLOCK)]
        direct = []
        for _ in range(3):
            start = perf_counter()
            for op in sample:
                fixture.mediator.query(op.sql)
            direct.append((perf_counter() - start) / len(sample))
        metrics["service.overhead_ratio"] = untraced_wall_s / len(fixture.ops) / min(direct)
        return metrics


def _trace_mediator(mediator: Mediator, recorder: Recorder) -> None:
    """Dispatch proxy on the shared scheduler (installed before the
    service takes its reference) and ``parse``/``plan`` spans on this
    mediator instance, which is how the session layer reaches them."""
    mediator.executor.scheduler = DispatchProxy(mediator.executor.scheduler, recorder)
    plan = mediator.plan

    def plan_with_probe(query):
        if not recorder.active or isinstance(query, str):
            return plan(query)
        return traced_plan(recorder, plan, mediator.estimator, query)

    mediator.parse = _spanned(mediator.parse, "sqlfe", recorder)
    mediator.plan = plan_with_probe


def _trace_service(service: FederationService, sessions: list, recorder: Recorder) -> None:
    """``Session.resolve`` spans per session, and ``executor`` spans for
    the per-task executors the service builds (reached through the
    scheduler's public ``on_start`` hook).

    A task's executor runs on its own strict-handoff thread and blocks
    in every dispatch while the coordinator — and the other tasks — run.
    Its span is therefore cut into *segments* that stop at each dispatch
    and resume after it: exactly one thread runs at any instant, so
    segments never overlap anything else and plain sums stay exact.
    """
    for session in sessions:
        session.resolve = _spanned(session.resolve, "session", recorder)

    on_start = service.scheduler.on_start

    def start(task) -> None:
        if recorder.active:
            _segment_executor(task.executor, recorder)
        on_start(task)

    service.scheduler.on_start = start


def _spanned(call, name: str, recorder: Recorder):
    def spanned(*args):
        if not recorder.active:
            return call(*args)
        with recorder.span(name):
            return call(*args)

    return spanned


def _segment_executor(executor, recorder: Recorder) -> None:
    execute, proxy = executor.execute, executor.scheduler
    op_id = recorder.op_id
    open_segment: list = []

    def resume() -> None:
        record = recorder.open("executor")
        record[OP] = op_id
        open_segment.append(record)

    def pause() -> None:
        recorder.close(open_segment.pop())

    class Segmenting:
        def dispatch_one(self, submit):
            pause()
            try:
                return proxy.dispatch_one(submit)
            finally:
                resume()

        def dispatch_wave(self, submits):
            pause()
            try:
                return proxy.dispatch_wave(submits)
            finally:
                resume()

        def __getattr__(self, name):
            return getattr(proxy, name)

    def segmented_execute(plan):
        recorder.add("executor.calls")
        resume()
        try:
            result = execute(plan)
        finally:
            pause()
        recorder.add("executor.rows_out", len(result.rows))
        return result

    executor.scheduler = Segmenting()
    executor.execute = segmented_execute
