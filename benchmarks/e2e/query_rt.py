"""``query_rt`` — 1 client, ``RealTimeBackend(max_workers=2)``,
``ExecutorOptions(parallel_submits=True)``; operation =
``Mediator.query(sql)`` over a real SQLite file (oo7 ``AtomicParts`` +
``Connections``) and a web source that genuinely sleeps its latency.

Why: the only path where time is really spent and threads really run —
``rt`` and ``dispatch`` do most of the work and wall time is dominated
by source latency, so a CPU-side optimisation should move
``cpu_ms_per_op`` but not ``latency_p50_ms``.

SQLite selects are 65 % of operations (p50 lies inside their band), web
selects 25 %, and the cross-source join — a two-branch wave on the
thread pool — 10 % (p99 lies inside its band).  The SQLite wrapper's
cost rules are probe-calibrated at construction, so every rebuild
asserts that each statement's chosen plan equals the first build's:
drift in the fitted coefficients cannot silently change the work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.core.history import plan_fingerprint
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.rt import RealTimeBackend, SQLiteWrapper, WebLatencyWrapper

from fixtures import DATA_SEED, oo7_config
from harness import Workload, expand_mix, replay
from oracles import Statement, hash_join, rows_statement, sqlite_rows, verified_pass
from query_sim import traced_query
from tracing import DispatchProxy, TracedWrapper, registration_spans

WEB_LATENCY_MS = 2.0
WEB_PER_ROW_MS = 0.005
TAGS = 400
DISTINCT = 16  # distinct literals per class

#: Operations per round by class (sums to 500; see README.md, "Criteria
#: not met", for why not 1 000).
SHARES = {
    "sq_point": 150, "sq_range50": 100, "sq_range500": 25, "sq_conn": 50,
    "web_point": 75, "web_range": 50,
    "join": 50,
}  # fmt: skip


@dataclass
class Fixture:
    mediator: Mediator
    backend: RealTimeBackend
    sqlite: SQLiteWrapper
    ops: list[Statement]


class QueryRt(Workload):
    name = "query_rt"
    #: The pool threads of a wave really run beside the driver.
    one_cpu = False

    def __init__(self, seed: int, smoke: bool, work_dir: str) -> None:
        super().__init__(seed, smoke, work_dir)
        #: sql → plan fingerprint chosen by this process's first build.
        self.first_plans: dict[str, str] = {}

    def build(self, recorder, lap) -> Fixture:
        config = oo7_config(self.smoke)
        path = os.path.join(self.work_dir, f"query_rt-{self.seed}.db")
        backend = RealTimeBackend(max_workers=2)
        sqlite = SQLiteWrapper(
            "rt_sqlite",
            path=path,
            config=config,
            seed=DATA_SEED,
            extents=("AtomicParts", "Connections"),
        )
        lap()
        tags = [
            {"partId": i, "tag": f"t{i % 7}", "score": (i * 13) % 100}
            for i in range(TAGS)
        ]
        web = WebLatencyWrapper(
            "rt_web", {"Tags": tags}, latency_ms=WEB_LATENCY_MS, per_row_ms=WEB_PER_ROW_MS
        )
        mediator = Mediator(
            executor_options=ExecutorOptions(parallel_submits=True, backend=backend)
        )
        sources = [sqlite, web]
        if recorder is not None:
            sources = [TracedWrapper(source, recorder) for source in sources]
            mediator.executor.scheduler = DispatchProxy(
                mediator.executor.scheduler, recorder
            )
        with registration_spans(recorder):
            for source in sources:
                mediator.register(source)
        lap()
        fixture = Fixture(mediator, backend, sqlite, [])

        def answer(statement: Statement):
            result = mediator.query(statement.sql)
            chosen = plan_fingerprint(result.plan)
            if self.first_plans.setdefault(statement.sql, chosen) != chosen:
                raise AssertionError(f"plan changed between rebuilds: {statement.sql}")
            return result.rows

        try:
            pools = self._statements(path, config.num_atomic_parts, tags)
            lap()
            for statements in pools.values():
                verified_pass(statements, answer, lap)
        except BaseException:
            self.close(fixture)
            raise
        fixture.ops = expand_mix(pools, SHARES, random.Random(self.seed), self.smoke)
        return fixture

    def _statements(self, path: str, parts: int, tags: list[dict]) -> dict:
        """Literals come from the seed; result sizes do not depend on them
        (ids are dense), so every seed does the same amount of work."""
        rng = random.Random(self.seed)

        def on_sqlite(label: str, sql: str) -> Statement:
            # The subset is plain SQL: the oracle runs the very same text
            # directly on the wrapper's database file.
            return rows_statement(label, sql, sqlite_rows(path, sql))

        pools: dict[str, list[Statement]] = {label: [] for label in SHARES}
        for key in rng.sample(range(parts), DISTINCT):
            pools["sq_point"].append(
                on_sqlite("sq_point", f"SELECT * FROM AtomicParts WHERE Id = {key}")
            )
            pools["sq_conn"].append(
                on_sqlite("sq_conn", f"SELECT * FROM Connections WHERE fromId = {key}")
            )
        for width, label, columns in (
            (50, "sq_range50", "*"),
            (500, "sq_range500", "Id, buildDate"),
        ):
            width = min(width, parts // 4)  # the smoke extent is small
            for low in rng.sample(range(parts - width), DISTINCT // 4):
                pools[label].append(
                    on_sqlite(
                        label,
                        f"SELECT {columns} FROM AtomicParts "
                        f"WHERE Id BETWEEN {low} AND {low + width - 1}",
                    )
                )
        for key in rng.sample(range(TAGS), DISTINCT):
            pools["web_point"].append(
                rows_statement(
                    "web_point",
                    f"SELECT * FROM Tags WHERE partId = {key}",
                    [row for row in tags if row["partId"] == key],
                )
            )
        for bound in (20, 40):
            pools["web_range"].append(
                rows_statement(
                    "web_range",
                    f"SELECT * FROM Tags WHERE partId <= {bound}",
                    [row for row in tags if row["partId"] <= bound],
                )
            )
            parts_rows = sqlite_rows(path, f"SELECT * FROM AtomicParts WHERE Id <= {bound}")
            pools["join"].append(
                rows_statement(
                    "join",
                    "SELECT * FROM AtomicParts, Tags WHERE AtomicParts.Id = Tags.partId "
                    f"AND AtomicParts.Id <= {bound} AND Tags.partId <= {bound}",
                    hash_join(parts_rows, tags, "Id", "partId"),
                )
            )
        return pools

    def close(self, fixture: Fixture) -> None:
        fixture.backend.close()
        fixture.sqlite.close()
        if os.path.exists(fixture.sqlite.path):
            os.unlink(fixture.sqlite.path)

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

    def extra_layer_metrics(self, fixture: Fixture, round_, untraced_wall_s) -> dict:
        layers, counts = round_.layers, round_.counts
        web = layers.get("wrapper:rt_web", {"calls": 0, "busy_ms": 0.0})
        wave = layers["wave"]
        return {
            "rt.sqlite_busy_ms": layers.get("wrapper:rt_sqlite", {"busy_ms": 0.0})["busy_ms"],
            "rt.web_busy_ms": web["busy_ms"],
            # What the web source was told to sleep, from its constants.
            "rt.web_injected_ms": web["calls"] * 2 * WEB_LATENCY_MS
            + counts.get("rows:rt_web", 0) * WEB_PER_ROW_MS,
            "rt.wave_overlap": wave["child_ms"] / wave["busy_ms"] if wave["busy_ms"] else 0.0,
        }
