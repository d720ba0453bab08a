"""``plan_mix`` — 1 client; operation = ``Mediator.plan(spec)``.

Why: ``optimizer`` + ``estimator`` do ~100 % of the work and nothing
else runs, so this is the workload an estimator or enumeration change
must move.  Specs are pre-parsed and drawn from the widest plan mix the
repo builds through public builders: oo7 Q1–Q8, the three-branch
federation (union / join / scans / lookups), a four-shard federation
(pruned and scattered) and a federation with a replica set.

Class shares put p50 inside the ≈2 ms band (single-collection oo7
selects, 60 % of operations, preceded by 25 % sub-millisecond plans) and
p99 inside the ≈6 ms band (two- and three-way joins, 15 %).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.bench.harness import build_federation
from repro.bench.sharding import build_sharded_federation
from repro.core.history import plan_fingerprint
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator

from fixtures import (
    add_north_replica,
    federation_statements,
    oo7_config,
    oo7_statements,
    oo7_wrapper,
    sharded_statements,
)
from harness import Workload, expand_mix, replay
from oracles import Statement, count_only, engine_rows, hash_join, verified_pass
from tracing import registration_spans, traced_plan

SHARDS = 4
SHARD_ROWS = 2000
LOOKUPS = 20

#: Operations per round by class (sums to 1 000).
SHARES = {
    # < 1 ms: single-wrapper scans and lookups, pruned shard lookups
    "scan": 120, "point": 40, "shard_point": 50, "q7": 40,
    # ≈ 2 ms: oo7 selects, federation union/join, scatters, replica binding
    "q1": 200, "q2": 50, "q3": 50, "q8": 50, "union": 50, "join": 50,
    "shard_scan": 50, "shard_range": 50, "replica_scan": 25, "replica_union": 25,
    # ≈ 6 ms: multi-way joins
    "q4": 50, "q5": 50, "join3": 50,
}  # fmt: skip

JOIN3 = (
    "SELECT * FROM Suppliers, OrdersEast, OrdersWest "
    "WHERE OrdersWest.supplier = Suppliers.sid "
    "AND OrdersEast.supplier = Suppliers.sid "
    "AND Suppliers.city = 'city1' AND OrdersEast.oid < 10"
)


@dataclass
class Fixture:
    mediators: dict[str, Mediator]
    ops: list[Statement]


class PlanMix(Workload):
    name = "plan_mix"

    def build(self, recorder, lap) -> Fixture:
        config = oo7_config(self.smoke)
        options = ExecutorOptions(parallel_submits=True)
        with registration_spans(recorder):
            oo7 = Mediator()
            oo7_source = oo7_wrapper(config)
            lap()
            oo7.register(oo7_source)
            lap()
            federation = build_federation(options)
            sharded = build_sharded_federation(SHARDS, SHARD_ROWS)
            replicated = build_federation(options)
            add_north_replica(replicated)
            lap()
        mediators = {
            "main": oo7,
            "federation": federation,
            "sharded": sharded,
            "replicated": replicated,
        }
        pools = oo7_statements(oo7_source, config, self.seed, LOOKUPS)
        pools.update(federation_statements(federation, "federation"))
        pools["join3"] = [_join3(federation)]
        pools.update(sharded_statements(sharded, SHARDS, "sharded"))
        on_replicas = federation_statements(replicated, "replicated")
        pools["replica_scan"] = [
            s for s in on_replicas["scan"] if "OrdersNorth" in s.sql
        ]
        pools["replica_union"] = on_replicas["union"]
        lap()

        # The verified pass: parse, plan and *execute* every distinct
        # statement once — a plan is right when its answer is right.
        # What each timed operation then checks is that it chose that
        # same verified plan again.
        def answer(statement: Statement):
            mediator = mediators[statement.target]
            statement.spec = mediator.parse(statement.sql)
            optimized = mediator.plan(statement.spec)
            statement.plan_estimate = optimized.estimated_total_ms
            statement.plan_fingerprint = plan_fingerprint(optimized.plan)
            return mediator.executor.execute(optimized.plan).rows

        for statements in pools.values():
            verified_pass(statements, answer, lap)
        ops = expand_mix(pools, SHARES, random.Random(self.seed), self.smoke)
        return Fixture(mediators, ops)

    def sequence(self, fixture: Fixture) -> list[str]:
        return [f"{op.target}: {op.sql}" for op in fixture.ops]

    def run_round(self, fixture: Fixture, recorder, log) -> None:
        mediators = fixture.mediators
        replay(
            fixture.ops,
            lambda op: mediators[op.target].plan(op.spec),
            lambda op: traced_plan(
                recorder,
                mediators[op.target].plan,
                mediators[op.target].estimator,
                op.spec,
            ),
            lambda op, optimized: optimized.estimated_total_ms == op.plan_estimate,
            lambda op, optimized: plan_fingerprint(optimized.plan)
            == op.plan_fingerprint,
            recorder,
            log,
        )


def _join3(federation: Mediator) -> Statement:
    """The three-way join.  ``oid``/``supplier``/``qty`` collide between
    the two Orders branches, so the merged column names are the
    program's choice: the oracle is the row count."""
    east_wrapper = federation.catalog.wrapper("east")
    suppliers = [r for r in engine_rows(east_wrapper, "Suppliers") if r["city"] == "city1"]
    east = [r for r in engine_rows(east_wrapper, "OrdersEast") if r["oid"] < 10]
    west = Counter(
        r["supplier"] for r in engine_rows(federation.catalog.wrapper("west"), "OrdersWest")
    )
    expected = sum(
        west[match["sid"]] for match in hash_join(east, suppliers, "supplier", "sid")
    )
    return Statement("join3", JOIN3, expected, count_only(expected), "federation")
