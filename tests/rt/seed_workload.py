"""The seed workload of the backend-equivalence suite.

The execution-backend refactor routes every time-and-dispatch effect of
the executor/scheduler through :class:`~repro.mediator.backend.
ExecutionBackend`.  The refactored sim backend must stay **byte
identical** to the seed path — same rows, same submit subtrees, same
simulated latencies, same clock counters — across every executor shape
grown so far: sequential, concurrent waves, armed resilience, a sharded
overlay, and an idle replica set with a hedge-armed policy.

``golden_seed_transcripts.json`` was captured by running this module's
``capture()`` against the *pre-refactor* tree (the seed path, commit
306dc17) — ``python -m tests.rt.seed_workload`` regenerates it.  The
test in ``test_backend_equivalence.py`` replays the same workload on the
current tree and compares transcripts for equality, so any accounting
drift the seam introduces fails loudly with a structural diff.

Everything here is deterministic: simulated clocks, seeded fault
injectors with probability zero, and plain-JSON transcripts (floats
round-trip exactly through ``json``).
"""

from __future__ import annotations

import json
import os

from repro.algebra.logical import Submit
from repro.mediator.catalog import PartitionScheme, Shard
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    BreakerPolicy,
    ResilienceOptions,
    RetryPolicy,
)
from repro.oo7 import TINY, load_database
from repro.wrappers import ObjectStoreWrapper
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_seed_transcripts.json")

#: Fully armed, never firing: retries, breakers and deadlines are live
#: on every dispatch but no fault ever occurs (error probability zero).
ARMED = ResilienceOptions(
    retry=RetryPolicy(
        max_attempts=5,
        backoff_base_ms=100.0,
        jitter_ratio=0.3,
        deadline_ms=1e9,
    ),
    breaker=BreakerPolicy(failure_threshold=1, cooldown_ms=10.0),
    mode="partial",
)

#: Armed plus a hair-trigger hedge policy with nobody to hedge to.
HEDGED = ResilienceOptions(
    retry=ARMED.retry,
    breaker=ARMED.breaker,
    mode="partial",
    hedge_delay_ms=0.001,
)

#: Every access shape the executor dispatches: single-wrapper scans and
#: filters, a point lookup, a same-wrapper join, a cross-wrapper join
#: (mediator-side composition), and an aggregate.
WORKLOAD = (
    ("scan-filter", "SELECT * FROM Orders WHERE qty > 90"),
    ("point-lookup", "SELECT * FROM Orders WHERE oid = 123"),
    ("oo7-select", "SELECT * FROM AtomicParts WHERE Id <= 40"),
    (
        "join",
        "SELECT * FROM Suppliers, Orders "
        "WHERE Orders.supplier = Suppliers.sid AND Suppliers.city = 'city1'",
    ),
    (
        "cross-join",
        "SELECT * FROM AtomicParts, Suppliers "
        "WHERE AtomicParts.partOf = Suppliers.sid AND AtomicParts.Id <= 40",
    ),
    (
        "aggregate",
        "SELECT supplier, COUNT(*) AS n FROM Orders GROUP BY supplier",
    ),
)


def build_mediator(
    *,
    resilience: ResilienceOptions | None = None,
    inject: bool = False,
    parallel: bool = False,
    cache: bool = False,
    sharded: bool = False,
    idle_replica: bool = False,
) -> Mediator:
    mediator = Mediator(
        executor_options=ExecutorOptions(
            resilience=resilience,
            parallel_submits=parallel,
            cache_subanswers=cache,
        )
    )
    for wrapper in (build_oo7_wrapper(), build_sales_wrapper()):
        if inject:
            wrapper = FaultInjector(wrapper, FaultProfile(error_probability=0.0))
        mediator.register(wrapper)
    if sharded:
        # The overlay layout: one shard pointing at the very collection
        # the seed path reads — partitioned in name only.
        mediator.register_partitioned(
            PartitionScheme(
                collection="Orders",
                shard_key="oid",
                shards=(Shard(collection="Orders", wrapper="sales"),),
            )
        )
    if idle_replica:
        # The workload's sales queries never touch this set, but its
        # presence flips has_replicas() on, arming every replica path.
        mediator.register_replica(
            ObjectStoreWrapper("oo7_b", load_database(TINY)), of="oo7"
        )
    return mediator


#: config name -> mediator-builder kwargs.  One entry per executor shape
#: the equivalence suite must preserve.
CONFIGS: dict[str, dict] = {
    "sequential": {},
    "parallel": {"parallel": True, "cache": True},
    "armed": {"resilience": ARMED, "inject": True, "parallel": True},
    "sharded": {"sharded": True, "parallel": True},
    "replicated": {
        "idle_replica": True,
        "resilience": HEDGED,
        "inject": True,
        "parallel": True,
    },
}


def submit_log(result) -> list[list[str]]:
    """The dispatched subqueries: each Submit's full pushed subtree."""
    return [
        [inner.describe() for inner in node.walk()]
        for node in result.plan.walk()
        if isinstance(node, Submit)
    ]


def transcript_entry(label: str, result) -> dict:
    return {
        "label": label,
        "rows": result.rows,
        "elapsed_ms": result.elapsed_ms,
        "time_first_ms": result.time_first_ms,
        "estimated_ms": result.estimated_ms,
        "submits": submit_log(result),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "parallel_saved_ms": result.parallel_saved_ms,
        "degraded": result.degraded,
    }


def clock_totals(mediator: Mediator) -> dict:
    clock = mediator.executor.clock
    return {
        "clock_total": clock.now_ms,
        "wait_ms": clock.stats.wait_ms,
        "messages": clock.stats.messages,
        "bytes": clock.stats.bytes_shipped,
    }


def run_workload(mediator: Mediator) -> list:
    transcript: list = [
        transcript_entry(label, mediator.query(sql)) for label, sql in WORKLOAD
    ]
    transcript.append(clock_totals(mediator))
    return transcript


def capture() -> dict[str, list]:
    """Run every config; returns ``{config: transcript}`` (JSON-safe)."""
    return {
        name: run_workload(build_mediator(**kwargs))
        for name, kwargs in CONFIGS.items()
    }


def main() -> None:  # pragma: no cover - fixture (re)generation entry
    transcripts = capture()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(transcripts, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
