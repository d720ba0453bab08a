"""Backend seam equivalence: the refactored sim path IS the seed path.

Two guarantees, both parametrized over every executor shape (sequential,
concurrent waves, armed resilience, sharded overlay, idle replicas with
a hedge-armed policy):

* **golden** — the current tree reproduces, byte for byte, transcripts
  captured from the pre-refactor seed tree (rows, submit subtrees,
  simulated latencies, estimates, clock counters; see
  ``seed_workload.py`` for the capture procedure);
* **explicit-backend identity** — constructing the executor with an
  explicit :class:`~repro.mediator.backend.SimBackend` produces exactly
  what the default (backend-less) construction produces, so the seam's
  default wiring adds nothing.

A third check runs the serving layer on the real-time backend: query
tasks on their runner threads beside real dispatch pool threads must
answer exactly what SQLite and a plain Python join answer.
"""

import json
import sqlite3
from collections import Counter

import pytest

from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.mediator import Mediator
from repro.oo7 import schema
from repro.rt import RealTimeBackend, SQLiteWrapper, WebLatencyWrapper
from repro.service import FederationService, ServiceOptions
from tests.rt.seed_workload import (
    CONFIGS,
    GOLDEN_PATH,
    build_mediator,
    run_workload,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_sim_backend_matches_seed_transcripts(config, golden):
    transcript = run_workload(build_mediator(**CONFIGS[config]))
    assert json.loads(json.dumps(transcript)) == golden[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_explicit_sim_backend_is_default(config):
    from repro.mediator.backend import SimBackend

    explicit = build_mediator(**CONFIGS[config])
    executor = explicit.executor
    rebuilt = MediatorExecutor(
        executor.catalog,
        options=executor.options,
        backend=SimBackend(),
    )
    explicit.executor = rebuilt
    rebuilt.scheduler.replica_ranker = explicit.optimizer.rank_replicas
    explicit.optimizer.health_view = rebuilt.scheduler.open_breaker_wrappers
    assert run_workload(explicit) == run_workload(
        build_mediator(**CONFIGS[config])
    )


def test_answers_are_complete(golden):
    # Sanity: "byte-identical" must not mean "identically empty".
    for config, transcript in golden.items():
        assert all(len(entry["rows"]) > 0 for entry in transcript[:-1]), config
        assert all(not entry["degraded"] for entry in transcript[:-1]), config


TAGS = [{"partId": i, "tag": f"t{i % 3}"} for i in range(0, 200, 2)]
#: Single-source statements: the same text run by ``sqlite3`` itself on
#: the wrapper's file gives the expected answer.
SQLITE_STATEMENTS = (
    "SELECT Id, type FROM AtomicParts WHERE Id <= 40",
    "SELECT * FROM AtomicParts WHERE Id > 100",
)
CROSS_SOURCE = (
    "SELECT * FROM AtomicParts, Tags "
    "WHERE AtomicParts.Id = Tags.partId AND AtomicParts.Id <= 50"
)


def _multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


@pytest.fixture(scope="module")
def real_sources():
    """The SQLite wrapper, the web wrapper, and every statement's
    expected answer computed without the mediator."""
    sqlite = SQLiteWrapper(
        "oo7_db", config=schema.TINY, seed=7, extents=("AtomicParts",)
    )
    web = WebLatencyWrapper("web", {"Tags": TAGS}, latency_ms=0.5)
    connection = sqlite3.connect(sqlite.path)
    connection.row_factory = sqlite3.Row
    try:
        expected = {
            sql: _multiset(dict(row) for row in connection.execute(sql))
            for sql in SQLITE_STATEMENTS
        }
        parts = [
            dict(row)
            for row in connection.execute(
                "SELECT * FROM AtomicParts WHERE Id <= 50"
            )
        ]
    finally:
        connection.close()
    tags_by_part: dict = {}
    for tag in TAGS:
        tags_by_part.setdefault(tag["partId"], []).append(tag)
    expected[CROSS_SOURCE] = _multiset(
        {**part, **tag} for part in parts for tag in tags_by_part.get(part["Id"], ())
    )
    yield sqlite, web, expected
    sqlite.close()


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "wave"])
@pytest.mark.parametrize("concurrency", [1, 8])
def test_service_on_the_real_backend_answers_like_sqlite(
    real_sources, concurrency, parallel
):
    sqlite, web, expected = real_sources
    with RealTimeBackend(max_workers=2) as backend:
        mediator = Mediator(
            executor_options=ExecutorOptions(
                parallel_submits=parallel, backend=backend
            )
        )
        mediator.register(sqlite)
        mediator.register(web)
        service = FederationService(
            mediator, ServiceOptions(max_concurrent_queries=concurrency)
        )
        for tenant in ("a", "b", "c", "d"):
            session = service.open_session(tenant)
            for sql in expected:
                service.submit(session, sql)
        service.run()
    assert len(service.tickets) == 4 * len(expected)
    for ticket in service.tickets:
        assert ticket.status == "done", ticket.error
        assert _multiset(ticket.result.rows) == expected[ticket.result.sql]
    assert service.scheduler.stats.max_in_flight == min(concurrency, 12)
