"""``query_sim`` — 1 client; operation = ``Mediator.query(sql)`` from SQL
text over the oo7 ``SMALL`` object store on the simulated backend.

Why: ``executor`` composition (join, sort, project) and the simulated
``wrappers``/``sources`` dominate — the heavy classes (Q7's ordered scan
of every atomic part, Q8's join) cost ≈ 45 ms each against ≈ 2–6 ms of
planning — so an estimator gain should barely show here, while a
dispatch-path or interpreter change shows fully.  It is the
no-regression guard for the dispatch-path collapse.

Lookups are 62 % of operations, so p50 lies inside the lookup band; the
two heavy classes are 3 % each, so p99 lies inside the heavy band.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.mediator.mediator import Mediator

from fixtures import oo7_config, oo7_statements, oo7_wrapper
from harness import Workload, expand_mix, replay
from oracles import Statement, verified_pass
from tracing import DispatchProxy, TracedWrapper, registration_spans, traced_plan

LOOKUPS = 40

#: Operations per round by class (sums to 500; see README.md, "Criteria
#: not met", for why not 1 000).
SHARES = {"q1": 310, "q2": 90, "q3": 30, "q4": 20, "q5": 18, "q7": 16, "q8": 16}


@dataclass
class Fixture:
    mediator: Mediator
    ops: list[Statement]


def traced_query(recorder, mediator: Mediator, sql: str):
    """``Mediator.query`` split at its public seams: parse → plan →
    ``MediatorExecutor.execute``."""
    with recorder.span("sqlfe"):
        spec = mediator.parse(sql)
    optimized = traced_plan(recorder, mediator.plan, mediator.estimator, spec)
    recorder.add("executor.calls")
    with recorder.span("executor"):
        rows = mediator.executor.execute(optimized.plan).rows
    recorder.add("executor.rows_out", len(rows))
    return rows


class QuerySim(Workload):
    name = "query_sim"

    def build(self, recorder, lap) -> Fixture:
        config = oo7_config(self.smoke)
        mediator = Mediator()
        source = wrapper = oo7_wrapper(config)
        lap()
        if recorder is not None:
            wrapper = TracedWrapper(wrapper, recorder)
            mediator.executor.scheduler = DispatchProxy(
                mediator.executor.scheduler, recorder
            )
        with registration_spans(recorder):
            mediator.register(wrapper)
        lap()
        pools = oo7_statements(source, config, self.seed, LOOKUPS)
        lap()
        for statements in pools.values():
            verified_pass(statements, lambda s: mediator.query(s.sql).rows, lap)
        ops = expand_mix(pools, SHARES, random.Random(self.seed), self.smoke)
        return Fixture(mediator, ops)

    def sequence(self, fixture: Fixture) -> list[str]:
        return [op.sql for op in fixture.ops]

    def run_round(self, fixture: Fixture, recorder, log) -> None:
        mediator = fixture.mediator
        replay(
            fixture.ops,
            lambda op: mediator.query(op.sql).rows,
            lambda op: traced_query(recorder, mediator, op.sql),
            lambda op, rows: len(rows) == op.expected_count,
            lambda op, rows: op.verify(rows),
            recorder,
            log,
        )
