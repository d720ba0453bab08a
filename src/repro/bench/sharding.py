"""E12 — sharded federations: scatter-gather vs shard pruning.

Sweeps shard count × shard-key alignment over a hash-partitioned
collection.  *Alignment* is the fraction of the workload whose predicate
is an equality on the shard key — those queries prune to the owning
shard; the rest pay the full scatter.  The experiment verifies the
Snippets 2–3 cost shape end to end: both the estimated and the simulated
TotalTime drop as alignment rises, and the per-query branch count falls
from S toward 1.

Run: ``python -m repro.bench --only E12 [--fast] [--out-dir DIR]`` →
``BENCH_E12.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.logical import Submit
from repro.bench.harness import format_table
from repro.mediator.catalog import PartitionScheme, Shard
from repro.mediator.mediator import Mediator
from repro.sources.relationaldb import RelationalDatabase
from repro.wrappers import RelationalWrapper

#: Rows in the logical collection (split across the shards).
ROW_COUNT = 2_000
SHARD_COUNTS = (1, 2, 4, 8)
ALIGNMENTS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Queries per cell; keys are deterministic so every cell sees the same
#: aligned lookups.
QUERIES_PER_CELL = 8


def build_sharded_federation(
    shards: int, rows: int, observability: bool = False
) -> Mediator:
    """One wrapper ("node<i>") per shard of a hash-partitioned Orders.

    Rows are placed exactly where the scheme routes them (``oid % S``),
    so shard pruning is sound by construction.  ``observability`` passes
    through to the mediator.
    """
    mediator = Mediator(observability=observability)
    for index in range(shards):
        db = RelationalDatabase()
        db.create_table(
            f"Orders#{index}",
            [
                {"oid": i, "supplier": i % 50, "qty": (i * 7) % 100}
                for i in range(rows)
                if i % shards == index
            ],
            row_size=32,
            indexed_columns=["oid"],
        )
        mediator.register(RelationalWrapper(f"node{index}", db))
    mediator.register_partitioned(
        PartitionScheme(
            collection="Orders",
            shard_key="oid",
            shards=tuple(
                Shard(collection=f"Orders#{i}", wrapper=f"node{i}")
                for i in range(shards)
            ),
        )
    )
    return mediator


def cell_workload(alignment: float, rows: int) -> list[str]:
    """The query mix of one cell: ``alignment`` × aligned key lookups,
    the rest shard-key-oblivious scans (full scatter)."""
    aligned = round(alignment * QUERIES_PER_CELL)
    queries = []
    for index in range(QUERIES_PER_CELL):
        if index < aligned:
            key = (index * 37 + 11) % rows
            queries.append(f"SELECT * FROM Orders WHERE oid = {key}")
        else:
            queries.append(f"SELECT * FROM Orders WHERE qty > {60 + index}")
    return queries


@dataclass
class ShardingCell:
    """One (shard count, alignment) measurement."""

    shards: int
    alignment: float
    queries: int
    mean_estimated_ms: float
    mean_simulated_ms: float
    mean_branches: float

    def to_json_dict(self) -> dict:
        return {
            "shards": self.shards,
            "alignment": self.alignment,
            "queries": self.queries,
            "mean_estimated_ms": round(self.mean_estimated_ms, 3),
            "mean_simulated_ms": round(self.mean_simulated_ms, 3),
            "mean_branches": round(self.mean_branches, 3),
        }


@dataclass
class ShardingExperiment:
    cells: list[ShardingCell]
    row_count: int
    #: For every multi-shard count, estimated AND simulated mean
    #: TotalTime strictly drop as alignment rises.
    pruning_wins: bool

    def report(self) -> str:
        table = format_table(
            (
                "shards",
                "alignment",
                "est TotalTime ms",
                "sim TotalTime ms",
                "branches/query",
            ),
            [
                [
                    cell.shards,
                    cell.alignment,
                    round(cell.mean_estimated_ms, 1),
                    round(cell.mean_simulated_ms, 1),
                    round(cell.mean_branches, 2),
                ]
                for cell in self.cells
            ],
            title=(
                f"E12 — scatter-gather vs shard pruning "
                f"({self.row_count} rows; mean over "
                f"{QUERIES_PER_CELL} queries)"
            ),
        )
        return (
            f"{table}\n\npruning beats full scatter everywhere: "
            f"{self.pruning_wins}"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E12",
            "row_count": self.row_count,
            "pruning_wins": self.pruning_wins,
            "cells": [cell.to_json_dict() for cell in self.cells],
        }


def _monotone_decreasing(values: list[float]) -> bool:
    return all(later < earlier for earlier, later in zip(values, values[1:]))


def run_sharding_experiment(
    rows: int = ROW_COUNT,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    alignments: tuple[float, ...] = ALIGNMENTS,
) -> ShardingExperiment:
    cells: list[ShardingCell] = []
    for shards in shard_counts:
        for alignment in alignments:
            mediator = build_sharded_federation(shards, rows)
            estimated: list[float] = []
            simulated: list[float] = []
            branches: list[int] = []
            for sql in cell_workload(alignment, rows):
                result = mediator.query(sql)
                estimated.append(result.estimated_ms)
                simulated.append(result.elapsed_ms)
                branches.append(
                    sum(
                        1
                        for node in result.plan.walk()
                        if isinstance(node, Submit)
                    )
                )
            count = len(estimated)
            cells.append(
                ShardingCell(
                    shards=shards,
                    alignment=alignment,
                    queries=count,
                    mean_estimated_ms=sum(estimated) / count,
                    mean_simulated_ms=sum(simulated) / count,
                    mean_branches=sum(branches) / count,
                )
            )
    pruning_wins = True
    for shards in shard_counts:
        if shards == 1:
            continue
        column = [c for c in cells if c.shards == shards]
        if not _monotone_decreasing([c.mean_estimated_ms for c in column]):
            pruning_wins = False
        if not _monotone_decreasing([c.mean_simulated_ms for c in column]):
            pruning_wins = False
    return ShardingExperiment(
        cells=cells, row_count=rows, pruning_wins=pruning_wins
    )
