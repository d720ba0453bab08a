"""Experiment E15 — replicated sources: availability under a mid-run
replica kill and tail latency under hedged submits.

Two scenarios over a two-member replica set (a primary and a slightly
more expensive replica of the same ``Orders`` collection):

* **availability** — the primary is killed (``unavailable``) mid-run.
  The replicated federation keeps answering complete, non-degraded
  answers: the first post-kill submit burns its retry budget, trips the
  primary's breaker and fails over; every later query is planned
  straight onto the surviving member because the optimizer's health view
  excludes breaker-open replicas at costing time.  The replica-less
  control degrades every affected query instead.

* **hedging** — the primary suffers rare 10× latency spikes
  (``latency_probability`` ≈ 8%).  A sweep over ``ResilienceOptions.
  hedge_delay_ms`` launches a backup submit at the replica for
  straggling waits; first result wins, the loser's
  unconsumed remainder is cancelled.  The report records, per delay, the
  p99 simulated TotalTime and the extra wrapper work (total wrapper
  executions versus the unhedged control) — the classic tail-vs-work
  tradeoff curve.

Everything is deterministic: fault trains are seeded per scenario and
all latencies are simulated milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import format_table, percentile
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    PARTIAL,
    BreakerPolicy,
    ResilienceOptions,
    RetryPolicy,
)
from repro.sources.clock import CostProfile, SimClock
from repro.sources.storage_engine import StorageEngine
from repro.wrappers.base import StorageWrapper
from repro.wrappers.faults import FaultInjector, FaultProfile

#: Replica device speeds: the replica is a touch slower, so the
#: optimizer binds the primary while both are healthy.
PRIMARY_IO_MS = 8.0
REPLICA_IO_MS = 10.0

#: The hedge-delay sweep (simulated ms).  Normal scan waits
#: sit near 270 ms and 10x spikes near 2,700 ms, so the grid brackets
#: the useful band: too low hedges healthy scans (wasted work), too high
#: leaves most of the spike unhedged.
HEDGE_DELAYS: tuple[float, ...] = (300.0, 600.0, 1_200.0, 2_400.0)

#: Straggler profile of the hedging scenario.
SPIKE_MULTIPLIER = 10.0
SPIKE_PROBABILITY = 0.08

#: Single-submit reads: every query exercises the replicated source.
WORKLOAD: tuple[tuple[str, str], ...] = (
    ("scan-filter", "SELECT oid, qty FROM Orders WHERE qty > 70"),
    ("point-lookup", "SELECT * FROM Orders WHERE oid = 111"),
    ("narrow-scan", "SELECT oid FROM Orders WHERE qty < 15"),
)


def _store_wrapper(name: str, io_ms: float) -> StorageWrapper:
    engine = StorageEngine(
        SimClock(CostProfile(io_ms=io_ms, cpu_ms_per_object=0.1))
    )
    engine.create_collection(
        "Orders",
        [
            {"oid": i, "supplier": i % 40, "qty": (i * 7) % 100}
            for i in range(400)
        ],
        object_size=32,
        indexed_attributes=["oid"],
    )
    return StorageWrapper(name, engine)


def _resilience(hedge_delay_ms: float | None = None) -> ResilienceOptions:
    return ResilienceOptions(
        retry=RetryPolicy(max_attempts=2, backoff_base_ms=25.0),
        breaker=BreakerPolicy(failure_threshold=2, cooldown_ms=1e9),
        mode=PARTIAL,
        hedge_delay_ms=hedge_delay_ms,
    )


def _build(
    replicated: bool,
    primary_profile: FaultProfile,
    hedge_delay_ms: float | None = None,
) -> "tuple[Mediator, FaultInjector, FaultInjector | None]":
    mediator = Mediator(
        executor_options=ExecutorOptions(resilience=_resilience(hedge_delay_ms))
    )
    primary = FaultInjector(_store_wrapper("store", PRIMARY_IO_MS), primary_profile)
    mediator.register(primary)
    replica: FaultInjector | None = None
    if replicated:
        replica = FaultInjector(_store_wrapper("store_b", REPLICA_IO_MS))
        mediator.register_replica(replica, of="store")
    return mediator, primary, replica


@dataclass
class AvailabilityResult:
    """One arm of the mid-run-kill scenario."""

    label: str
    queries: int = 0
    complete: int = 0
    degraded: int = 0
    failovers: int = 0
    replica_served: int = 0

    @property
    def complete_rate(self) -> float:
        return self.complete / self.queries if self.queries else 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "queries": self.queries,
            "complete": self.complete,
            "degraded": self.degraded,
            "complete_rate": self.complete_rate,
            "failovers": self.failovers,
            "replica_served": self.replica_served,
        }


@dataclass
class HedgeCell:
    """One point of the hedge-delay sweep (or the unhedged control)."""

    delay_ms: float | None
    queries: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    hedges_launched: int = 0
    hedges_won: int = 0
    wrapper_executions: int = 0
    #: Wrapper executions beyond the control run, as a fraction of it.
    extra_work: float = 0.0

    def to_dict(self) -> dict:
        return {
            "delay_ms": self.delay_ms,
            "queries": self.queries,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "wrapper_executions": self.wrapper_executions,
            "extra_work": self.extra_work,
        }


@dataclass
class ReplicationExperiment:
    """All E15 measurements."""

    availability: list[AvailabilityResult] = field(default_factory=list)
    hedging: list[HedgeCell] = field(default_factory=list)
    best_delay_ms: float | None = None
    p99_improvement: float = 0.0
    rounds: int = 0

    def report(self) -> str:
        availability = format_table(
            ("arm", "queries", "complete", "degraded", "failovers", "replica served"),
            [
                (
                    arm.label,
                    arm.queries,
                    f"{arm.complete_rate:.3f}",
                    arm.degraded,
                    arm.failovers,
                    arm.replica_served,
                )
                for arm in self.availability
            ],
            title="E15a — availability across a mid-run replica kill",
        )
        hedging = format_table(
            ("hedge delay", "p50 ms", "p99 ms", "launched", "won", "extra work"),
            [
                (
                    "off" if cell.delay_ms is None else f"{cell.delay_ms:.0f}",
                    cell.p50_ms,
                    cell.p99_ms,
                    cell.hedges_launched,
                    cell.hedges_won,
                    f"{cell.extra_work:.3f}",
                )
                for cell in self.hedging
            ],
            title="E15b — tail latency vs hedge delay (10x spikes, p=0.08)",
        )
        footer = (
            f"best delay: {self.best_delay_ms} ms, "
            f"p99 improvement over unhedged: {self.p99_improvement:.1%}"
        )
        return "\n\n".join((availability, hedging, footer))

    def to_json_dict(self) -> dict:
        return {
            "experiment": "E15",
            "rounds": self.rounds,
            "availability": [arm.to_dict() for arm in self.availability],
            "hedging": [cell.to_dict() for cell in self.hedging],
            "best_delay_ms": self.best_delay_ms,
            "p99_improvement": self.p99_improvement,
        }


def _run_availability(replicated: bool, rounds: int) -> AvailabilityResult:
    """Run the workload; kill the primary halfway through."""
    mediator, primary, _replica = _build(replicated, FaultProfile())
    arm = AvailabilityResult(label="replicated" if replicated else "control")
    total = rounds * len(WORKLOAD)
    kill_at = total // 2
    for index in range(total):
        if index == kill_at:
            primary.set_profile(FaultProfile(unavailable=True))
        _label, sql = WORKLOAD[index % len(WORKLOAD)]
        result = mediator.query(sql)
        arm.queries += 1
        if result.degraded:
            arm.degraded += 1
        else:
            arm.complete += 1
    stats = mediator.executor.scheduler.replica_stats
    arm.failovers = stats.total("failovers")
    arm.replica_served = stats.selected.get("store_b", 0)
    return arm


def _run_hedge_cell(delay_ms: float | None, rounds: int, seed: int) -> HedgeCell:
    """One sweep point: straggling primary, hedge at ``delay_ms``."""
    spikes = FaultProfile(
        latency_multiplier=SPIKE_MULTIPLIER,
        latency_probability=SPIKE_PROBABILITY,
        seed=seed,
    )
    mediator, primary, replica = _build(True, spikes, hedge_delay_ms=delay_ms)
    cell = HedgeCell(delay_ms=delay_ms)
    latencies: list[float] = []
    for _round in range(rounds):
        for _label, sql in WORKLOAD:
            latencies.append(mediator.query(sql).elapsed_ms)
    cell.queries = len(latencies)
    cell.p50_ms = percentile(latencies, 0.50)
    cell.p99_ms = percentile(latencies, 0.99)
    stats = mediator.executor.scheduler.replica_stats
    cell.hedges_launched = stats.total("hedges_launched")
    cell.hedges_won = stats.total("hedges_won")
    assert replica is not None
    cell.wrapper_executions = primary.log.executions + replica.log.executions
    return cell


def run_replication_experiment(
    rounds: int = 40,
    hedge_delays: "tuple[float, ...]" = HEDGE_DELAYS,
    hedge_seed: int = 7,
) -> ReplicationExperiment:
    """Both scenarios; returns the full E15 record."""
    experiment = ReplicationExperiment(rounds=rounds)
    experiment.availability = [
        _run_availability(replicated=False, rounds=rounds),
        _run_availability(replicated=True, rounds=rounds),
    ]
    control = _run_hedge_cell(None, rounds, hedge_seed)
    experiment.hedging.append(control)
    best: HedgeCell | None = None
    for delay in hedge_delays:
        cell = _run_hedge_cell(delay, rounds, hedge_seed)
        if control.wrapper_executions:
            cell.extra_work = (
                cell.wrapper_executions - control.wrapper_executions
            ) / control.wrapper_executions
        experiment.hedging.append(cell)
        # Best = lowest p99 among delays within the 10% extra-work budget.
        if cell.extra_work <= 0.10 and (best is None or cell.p99_ms < best.p99_ms):
            best = cell
    if best is not None and control.p99_ms > 0:
        experiment.best_delay_ms = best.delay_ms
        experiment.p99_improvement = 1.0 - best.p99_ms / control.p99_ms
    return experiment
