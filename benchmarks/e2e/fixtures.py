"""Statement pools the workloads draw from, each statement with its oracle.

Data is generated with a fixed seed (``DATA_SEED``): the benchmark seed
chooses *which* statements run and in what order (lookup keys, document
ids, shuffle), never how much data there is — so the work of a round is
the same for every seed and runs with different seeds are comparable.
"""

from __future__ import annotations

from repro.mediator.mediator import Mediator
from repro.oo7 import schema
from repro.oo7.generator import load_database
from repro.oo7.workload import build_workload
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers import ObjectStoreWrapper
from repro.wrappers.base import StorageWrapper

from oracles import (
    Statement,
    count_only,
    engine_rows,
    hash_join,
    multiset,
    project,
    rows_statement,
    same_rows,
    sorted_by,
)

DATA_SEED = 7


def oo7_config(smoke: bool) -> schema.OO7Config:
    return schema.TINY if smoke else schema.SMALL


def oo7_wrapper(config: schema.OO7Config) -> ObjectStoreWrapper:
    return ObjectStoreWrapper("oo7", load_database(config, DATA_SEED))


def oo7_statements(
    wrapper: ObjectStoreWrapper, config: schema.OO7Config, rng_seed: int, lookups: int
) -> dict[str, list[Statement]]:
    """OO7 Q1–Q8 by class.  Counts are ``expected_rows`` of
    ``repro.oo7.workload`` (computed from the generator); full-row
    oracles are evaluated here over the rows stored in the source."""
    parts = engine_rows(wrapper, "AtomicParts")
    pools: dict[str, list[Statement]] = {}
    for query in build_workload(config, DATA_SEED, lookups=lookups, rng_seed=rng_seed):
        label = query.label.split(".")[0].lower()
        if label == "q1":
            key = int(query.sql.rsplit("=", 1)[1])
            verify = same_rows([row for row in parts if row["Id"] == key])
        elif label in ("q2", "q3"):
            low, high = (
                int(text) for text in query.sql.rsplit("BETWEEN", 1)[1].split("AND")
            )
            verify = same_rows(
                [row for row in parts if low <= row["buildDate"] <= high]
            )
        elif label == "q7":
            want = multiset(project(parts, ("Id", "buildDate")))
            verify = lambda rows, want=want: (  # noqa: E731
                sorted_by(rows, "buildDate") and multiset(rows) == want
            )
        elif label == "q8":
            documents = engine_rows(wrapper, "Documents")
            pairs = len(hash_join(parts, documents, "partOf", "compPartId"))
            verify = same_rows([{"pairs": pairs}])
        else:  # q4, q5: joins whose merged column names are the program's
            verify = count_only(query.expected_rows)
        pools.setdefault(label, []).append(
            Statement(label, query.sql, query.expected_rows, verify)
        )
    return pools


# -- the three-branch federation of repro.bench.harness ------------------------

REGIONS = ("East", "West", "North")


def federation_statements(
    federation: Mediator, target: str = "main"
) -> dict[str, list[Statement]]:
    """Union / join / region scans / point lookups over the federation,
    with expected rows evaluated in plain Python over the rows stored in
    the three source engines."""
    orders = {
        region: engine_rows(federation.catalog.wrapper(region.lower()), f"Orders{region}")
        for region in REGIONS
    }
    suppliers = engine_rows(federation.catalog.wrapper("east"), "Suppliers")
    city1 = [row for row in suppliers if row["city"] == "city1"]
    pools: dict[str, list[Statement]] = {
        "union": [
            rows_statement(
                "union",
                "SELECT oid, qty FROM OrdersEast "
                "UNION ALL SELECT oid, qty FROM OrdersWest "
                "UNION ALL SELECT oid, qty FROM OrdersNorth",
                [
                    row
                    for region in REGIONS
                    for row in project(orders[region], ("oid", "qty"))
                ],
                target,
            )
        ],
        "join": [
            rows_statement(
                "join",
                "SELECT * FROM Suppliers, OrdersWest "
                "WHERE OrdersWest.supplier = Suppliers.sid "
                "AND Suppliers.city = 'city1'",
                hash_join(orders["West"], city1, "supplier", "sid"),
                target,
            )
        ],
        "scan": [],
        "point": [],
    }
    for index, region in enumerate(REGIONS):
        rows = orders[region]
        for threshold in (60, 70, 80, 90):
            pools["scan"].append(
                rows_statement(
                    "scan",
                    f"SELECT oid, qty FROM Orders{region} WHERE qty > {threshold}",
                    project(
                        [row for row in rows if row["qty"] > threshold], ("oid", "qty")
                    ),
                    target,
                )
            )
        for oid in (17 + index, 230 + index, 411 + index):
            pools["point"].append(
                rows_statement(
                    "point",
                    f"SELECT oid, qty FROM Orders{region} WHERE oid = {oid}",
                    project([row for row in rows if row["oid"] == oid], ("oid", "qty")),
                    target,
                )
            )
    return pools


def add_north_replica(federation: Mediator) -> None:
    """A faster copy of the north branch, registered as its replica, so
    plans over ``OrdersNorth`` go through replica binding."""
    rows = engine_rows(federation.catalog.wrapper("north"), "OrdersNorth")
    engine = StorageEngine(SimClock(CostProfile(io_ms=1.0, cpu_ms_per_object=0.1)))
    engine.create_collection(
        "OrdersNorth", rows, object_size=32, indexed_attributes=["oid"]
    )
    federation.register_replica(StorageWrapper("north_b", engine), of="north")


def sharded_statements(
    mediator: Mediator, shards: int, target: str
) -> dict[str, list[Statement]]:
    """Pruned lookups, ranges and full scatters over the hash-partitioned
    ``Orders``; the logical rows are the union of the shard engines'."""
    rows = [
        row
        for index in range(shards)
        for row in engine_rows(mediator.catalog.wrapper(f"node{index}"), f"Orders#{index}")
    ]
    return {
        "shard_point": [
            rows_statement(
                "shard_point",
                f"SELECT * FROM Orders WHERE oid = {oid}",
                [row for row in rows if row["oid"] == oid],
                target,
            )
            for oid in (48, 311, 1250)
        ],
        "shard_range": [
            rows_statement(
                "shard_range",
                f"SELECT * FROM Orders WHERE oid < {bound}",
                [row for row in rows if row["oid"] < bound],
                target,
            )
            for bound in (100, 40)
        ],
        "shard_scan": [
            rows_statement(
                "shard_scan",
                f"SELECT * FROM Orders WHERE qty > {threshold}",
                [row for row in rows if row["qty"] > threshold],
                target,
            )
            for threshold in (66, 80)
        ],
    }
