"""The run shape every workload shares (see README.md, "Run shape").

One run = set-up (a cold build, then timed in-process rebuilds) →
warm-up rounds → ``gc.collect(); gc.freeze()`` → at least nine timed
rounds, every round replaying the *same* seeded operation sequence from
the same collector state.

Interference on this host only ever slows work down, it changes from one
operation to the next, and it never leaves a whole round alone: ten runs
of an unchanged ``plan_mix`` had rounds of 1.87-3.51 s, and no statistic
of whole rounds repeated within a tenth (README.md, "Why not a statistic
of whole rounds").  So each operation is timed on its own, and what is
kept is its **fastest** execution — what it costs when the host leaves
it alone, the rule ``timeit`` gives for the same reason.  The reported
round is the one composed of those executions; nothing in it is scaled
or modelled, every number in it was measured.  Set-up is treated the
same way, lap by lap across the rebuilds (``timed_builds`` says where a
lap ends).  Every real round's own values
are kept beside the result — median, quartiles, the whole series — as
the record of what the host was doing.

A traced run alternates untraced and traced rounds in one process, so
``trace.overhead_pct`` compares like with like, and reports the ledger
of its fastest traced round — one real round, so the layers sum to its
wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable

from tracing import END, NAME, OP, PARENT, START, Recorder, ledger

#: Timed rounds are never fewer than this, whatever ``--seconds`` says.
MIN_ROUNDS = 9
#: In-process rebuilds behind ``setup_s`` (the cold build is extra).
REBUILDS = 15
#: A traced run spends less on set-up: its product is the ledger.
TRACED_REBUILDS = 2
MIN_TRACED_ROUNDS = 3


def fastest(rows: list[list[float]], keys: list) -> list[float]:
    """For every position of equally long rows (one per round, or one per
    rebuild), the fastest measurement any row has at a position with the
    same key."""
    best: dict[Any, float] = {}
    for row in rows:
        for key, value in zip(keys, row, strict=True):
            if value < best.get(key, math.inf):
                best[key] = value
    return [best[key] for key in keys]


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles of per-round values, for the detail output."""
    if len(values) < 2:  # --smoke runs one round
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def intervals(start: float, marks: list[float], end: float) -> list[float]:
    """Consecutive differences of ``start, *marks, end``."""
    points = [start, *marks, end]
    return [b - a for a, b in zip(points, points[1:])]


class RoundLog:
    """What a workload records while it replays one round."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.order: list[int] = []
        self.failed = 0

    def complete(self, start: float, number: int) -> None:
        """Operation ``number`` of the sequence, begun at ``start``, has
        just completed."""
        now = perf_counter()
        self.latencies_ms.append((now - start) * 1e3)
        self.walls.append(now)
        self.cpus.append(process_time())
        self.order.append(number)


class Workload:
    """What the harness needs from a workload (see the four modules)."""

    name = ""
    #: Closed-loop clients (stated in the output).
    clients = 1
    #: Rounds discarded before timing; enough for the program to become
    #: stationary (plan cache at capacity, sliding windows full).
    warmup_rounds = 1
    #: A workload that runs one thread at a time stays on one CPU.  A
    #: second CPU adds nothing to it, while the host runs its two virtual
    #: CPUs at different speeds from minute to minute and wakes an idle
    #: one slowly: eight runs of ``plan_mix`` on one seed read 565-620
    #: operations/s where the scheduler was free to migrate them and
    #: 565-586 on one CPU; ``serve_mix``, with a thread hand-off per
    #: wave, 702-1115 against 1081-1131.
    one_cpu = True

    def __init__(self, seed: int, smoke: bool, work_dir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir

    def build(self, recorder: Recorder | None, lap: Callable[[], None]) -> Any:
        """Everything needed before the first timed operation: data
        generation → wrappers → registration → service/session → one
        verified pass over every distinct statement.  Raises when an
        oracle disagrees.  With a recorder, installs the tracing proxies.
        Calls ``lap()`` at the same points of every build, so rebuilds
        can be compared lap by lap."""
        raise NotImplementedError

    def close(self, fixture: Any) -> None:
        """Release what ``build`` opened (files, pools)."""

    def sequence(self, fixture: Any) -> list[str]:
        """The SQL text of one round's operations, in order."""
        raise NotImplementedError

    def same_operation(self, fixture: Any, order: list[int]) -> list:
        """One key per completion of a round (``order`` holds their
        sequence numbers), equal where two completions are executions of
        the same operation: the same statement in the same program state
        with the same operations in flight beside it.  With one client
        nothing is in flight beside it, so the key is the statement."""
        sequence = self.sequence(fixture)
        return [sequence[number] for number in order]

    def run_round(self, fixture: Any, recorder: Recorder | None, log: RoundLog) -> None:
        """Replay the sequence once, calling ``log.complete`` as each
        operation completes (the order of completions is the same in
        every round) and counting failed operations in ``log.failed``.
        Untraced: row counts are checked.  Traced: full oracle
        verification of every answer."""
        raise NotImplementedError

    def counters(self, fixture: Any) -> dict[str, int]:
        """Cumulative public counters that are free to read (plan-cache
        and scheduler stats); the harness differences them per round."""
        return {}

    def extra_layer_metrics(
        self, fixture: Any, round_: "Round", untraced_wall_s: float
    ) -> dict[str, float]:
        """Workload-specific per-layer metrics of the fastest traced round;
        ``untraced_wall_s`` is the composed untraced round's wall time."""
        return {}


@dataclass
class Round:
    latencies_ms: list[float]  # per operation, in completion order
    wall_intervals: list[float]  # between completions, plus the tail
    cpu_intervals: list[float]
    failed: int
    #: Sequence numbers in completion order: columns of different rounds
    #: may only be compared if this is the same in all of them.
    order: list[int]
    counter_deltas: dict[str, int]
    #: Traced rounds only.
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies_ms)

    @property
    def wall_s(self) -> float:
        return sum(self.wall_intervals)

    def summary(self) -> dict[str, float]:
        """The round's own end-to-end values (for the detail output)."""
        return end_to_end(self.latencies_ms, self.wall_intervals, self.cpu_intervals)


def end_to_end(
    latencies_ms: list[float], wall_intervals: list[float], cpu_intervals: list[float]
) -> dict[str, float]:
    ordered = sorted(latencies_ms)
    ops = len(ordered)
    return {
        "throughput_ops_s": ops / sum(wall_intervals),
        "latency_p50_ms": nearest_rank(ordered, 0.50),
        "latency_p99_ms": nearest_rank(ordered, 0.99),
        "cpu_ms_per_op": sum(cpu_intervals) * 1e3 / ops,
    }


def fastest_summary(rounds: list[Round], keys: list) -> dict[str, float]:
    """End-to-end values of the round composed of each operation's
    fastest execution across ``rounds``; ``keys[k]`` says which
    operations are the same one as the k-th to complete."""
    tailed = [*keys, "after the last completion"]
    return end_to_end(
        fastest([r.latencies_ms for r in rounds], keys),
        fastest([r.wall_intervals for r in rounds], tailed),
        fastest([r.cpu_intervals for r in rounds], tailed),
    )


def one_round(
    workload: Workload, fixture: Any, recorder: Recorder | None, spans_out: list
) -> Round:
    if recorder is not None:
        recorder.active = True
    log = RoundLog()
    # Every round starts from the same collector state, so collections
    # fall on the same operations in every round and their cost stays in
    # those operations' fastest times.
    gc.collect()
    before = workload.counters(fixture)
    cpu_start = process_time()
    start = perf_counter()
    workload.run_round(fixture, recorder, log)
    end = perf_counter()
    cpu_end = process_time()
    after = workload.counters(fixture)
    round_ = Round(
        latencies_ms=log.latencies_ms,
        wall_intervals=intervals(start, log.walls, end),
        cpu_intervals=intervals(cpu_start, log.cpus, cpu_end),
        failed=log.failed,
        order=log.order,
        counter_deltas={key: after[key] - before[key] for key in after},
    )
    if recorder is not None:
        recorder.active = False
        spans, counts = recorder.take()
        round_.layers = ledger(spans)
        round_.counts = dict(counts)
        spans_out.append(spans)
    return round_


def timed_builds(
    workload: Workload, recorder: Recorder | None, rebuilds: int
) -> tuple[Any, float, list[list[float]]]:
    """A cold build and ``rebuilds`` rebuilds; returns the last fixture,
    the cold build's time and every rebuild's lap intervals.  Each build
    starts from a collected heap and the previous fixture is released
    first, so a rebuild neither pays for nor is helped by its
    predecessor.

    A lap ends where the workload says so (one per stage and per verified
    statement) and wherever the collector starts a collection.  Starting
    from a collected heap, a build allocates the same objects in the same
    order every time, so its collections fall at the same points of its
    work: they cut the stages that are one long call into the program
    (data generation, statistics) into pieces of a millisecond or so,
    the only grain at which this host is ever quiet.  Should the rebuilds
    of a run not be cut into equally many laps, the workload's own laps
    are used alone."""
    cold_s = 0.0
    stage_laps: list[list[float]] = []
    fine_laps: list[list[float]] = []
    fixture = None
    for build in range(1 + rebuilds):
        if fixture is not None:
            workload.close(fixture)
            fixture = None
        gc.collect()
        stages: list[float] = []
        marks: list[float] = []

        def lap() -> None:
            now = perf_counter()
            stages.append(now)
            marks.append(now)

        def collection(phase: str, info: dict) -> None:
            if phase == "start":
                marks.append(perf_counter())

        gc.callbacks.append(collection)
        start = perf_counter()
        try:
            fixture = workload.build(recorder, lap)
        finally:
            gc.callbacks.remove(collection)
        end = perf_counter()
        if build == 0:
            cold_s = end - start
        else:
            stage_laps.append(intervals(start, stages, end))
            fine_laps.append(intervals(start, marks, end))
    same_cuts = len({len(laps) for laps in fine_laps}) == 1
    return fixture, cold_s, fine_laps if same_cuts else stage_laps


def run(workload: Workload, seconds: float, traced: bool, out_dir: str) -> dict:
    """One complete run of one workload; returns the result document."""
    recorder = Recorder() if traced else None
    if workload.smoke:  # one rebuild, no warm-up, one round
        rebuilds, warmups, min_rounds, seconds = 1, 0, 1, 0.0
    elif traced:
        rebuilds, warmups, min_rounds = TRACED_REBUILDS, workload.warmup_rounds, MIN_TRACED_ROUNDS
    else:
        rebuilds, warmups, min_rounds = REBUILDS, workload.warmup_rounds, MIN_ROUNDS
    fixture, cold_s, rebuild_laps = timed_builds(workload, recorder, rebuilds)
    setup_spans: list[list] = []
    setup_counts: dict[str, int] = {}
    if recorder is not None:
        recorder.active = False
        setup_spans, counts = recorder.take()
        setup_counts = dict(counts)
    try:
        sequence = workload.sequence(fixture)
        spans_out: list[list] = []
        for _ in range(warmups):
            one_round(workload, fixture, None, spans_out)
        gc.collect()
        gc.freeze()
        rounds: list[Round] = []
        traced_rounds: list[Round] = []
        deadline = perf_counter() + seconds
        pass_s = 0.0
        while len(rounds) < min_rounds or perf_counter() + pass_s < deadline:
            start = perf_counter()
            rounds.append(one_round(workload, fixture, None, spans_out))
            if recorder is not None:
                traced_rounds.append(one_round(workload, fixture, recorder, spans_out))
            pass_s = perf_counter() - start
        keys = workload.same_operation(fixture, rounds[0].order)
        summary = fastest_summary(rounds, keys)
        wall_s = rounds[0].ops / summary["throughput_ops_s"]
        if traced:
            # One real round, so that its layers sum to its wall time.
            ledger_round = min(traced_rounds, key=lambda r: r.wall_s)
            extra = workload.extra_layer_metrics(fixture, ledger_round, wall_s)
    finally:
        workload.close(fixture)

    all_rounds = rounds + traced_rounds
    failed = sum(r.failed for r in all_rounds)
    stationary = _stationary(rounds) and _stationary(traced_rounds)
    document: dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "clients": workload.clients,
        "traced": traced,
        "ops_per_round": rounds[0].ops,
        "rounds": len(rounds),
        "sequence_digest": hashlib.sha256("\n".join(sequence).encode()).hexdigest()[:16],
        "stationary": stationary,
        "correct": failed == 0 and stationary,
        "attempted": sum(r.ops for r in all_rounds),
        "failed": failed,
    }
    per_round = [r.summary() for r in rounds]
    throughputs = [entry["throughput_ops_s"] for entry in per_round]
    if not traced:
        metrics = summary
        metrics["setup_s"] = sum(fastest(rebuild_laps, list(range(len(rebuild_laps[0])))))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        document["metrics"] = metrics
        rebuild_s = [sum(laps) for laps in rebuild_laps]
        document["detail"] = {
            name: quartiles([entry[name] for entry in per_round]) for name in per_round[0]
        }
        document["detail"]["setup_s"] = quartiles(rebuild_s)
        document["detail"]["setup_cold_s"] = cold_s
        document["series"] = {
            name: [entry[name] for entry in per_round] for name in per_round[0]
        }
        document["series"]["setup_s"] = rebuild_s
    else:
        metrics = _layer_metrics(ledger_round)
        metrics.update(_registration_metrics(setup_spans, setup_counts, 1 + rebuilds))
        metrics.update(extra)
        third = max(1, len(throughputs) // 3)
        first = sum(throughputs[:third]) / third
        last = sum(throughputs[-third:]) / third
        spread = quartiles(throughputs)
        traced_wall_s = rounds[0].ops / fastest_summary(traced_rounds, keys)["throughput_ops_s"]
        metrics.update(
            {
                "setup.cold_s": cold_s,
                "run.drift_pct": (last / first - 1.0) * 100.0,
                "run.round_iqr_pct": (spread["q3"] - spread["q1"]) / spread["median"] * 100.0,
                "trace.overhead_pct": (traced_wall_s / wall_s - 1.0) * 100.0,
            }
        )
        document["metrics"] = metrics
        document["count_digest"] = {
            "optimizer.candidates": ledger_round.counts.get("optimizer.candidates", 0),
            "estimator.formulas_evaluated": ledger_round.counts.get(
                "estimator.formulas_evaluated", 0
            ),
            "plancache.misses": int(extra.get("plancache.misses", 0)),
            "dispatch.submits": ledger_round.counts.get("dispatch.submits", 0),
        }
        _write_spans(out_dir, workload, [setup_spans] + spans_out)
    return document


def _stationary(rounds: list[Round]) -> bool:
    """Every round did exactly the same counted work — the proof that
    the program had stopped warming up before timing began."""
    return all(
        r.counter_deltas == rounds[0].counter_deltas
        and r.counts == rounds[0].counts
        and r.order == rounds[0].order
        for r in rounds
    )


def _layer_metrics(round_: Round) -> dict[str, float]:
    layers, counts = round_.layers, round_.counts
    zero = {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}

    def of(layer: str, field_: str) -> float:
        return layers.get(layer, zero)[field_]

    candidates = counts.get("optimizer.candidates", 0)
    simulated = [
        key
        for key in layers
        if key.startswith("wrapper:") and not key.startswith("wrapper:rt_")
    ]
    total_self = sum(
        entry["self_ms"]
        for key, entry in layers.items()
        if ":" not in key and key != "wave"
    )
    return {
        "sqlfe.calls": of("sqlfe", "calls"),
        "sqlfe.busy_ms": of("sqlfe", "busy_ms"),
        "optimizer.calls": of("optimizer", "calls"),
        "optimizer.busy_ms": of("optimizer", "busy_ms"),
        "optimizer.candidates": candidates,
        "optimizer.pruned": counts.get("optimizer.pruned", 0),
        "optimizer.us_per_candidate": (
            of("optimizer", "busy_ms") * 1e3 / candidates if candidates else 0.0
        ),
        "estimator.calls": of("estimator", "calls"),
        "estimator.busy_ms": of("estimator", "busy_ms"),
        "estimator.variables_computed": counts.get("estimator.variables_computed", 0),
        "estimator.formulas_evaluated": counts.get("estimator.formulas_evaluated", 0),
        "executor.calls": counts.get("executor.calls", 0),
        "executor.busy_ms": of("executor", "busy_ms"),
        "executor.self_ms": of("executor", "self_ms"),
        "executor.rows_out": counts.get("executor.rows_out", 0),
        "dispatch.calls": of("dispatch", "calls"),
        "dispatch.submits": counts.get("dispatch.submits", 0),
        "dispatch.busy_ms": of("dispatch", "busy_ms"),
        "dispatch.self_ms": of("dispatch", "self_ms"),
        "wrappers.calls": sum(layers[key]["calls"] for key in simulated),
        "wrappers.busy_ms": sum(layers[key]["busy_ms"] for key in simulated),
        "wrappers.rows": sum(
            counts.get("rows:" + key.split(":", 1)[1], 0) for key in simulated
        ),
        "session.calls": of("session", "calls"),
        "session.busy_ms": of("session", "busy_ms"),
        "service.submit_busy_ms": of("service.submit", "busy_ms"),
        "service.run_busy_ms": of("service.run", "busy_ms"),
        "ledger.coverage": total_self / (round_.wall_s * 1e3),
    }


def _registration_metrics(
    spans: list[list], counts: dict[str, int], builds: int
) -> dict[str, float]:
    """Per-build registration work, from the spans of every build."""
    entry = ledger(spans).get("registration")
    if entry is None:
        return {}
    return {
        "registration.calls": entry["calls"] / builds,
        "registration.busy_ms": entry["busy_ms"] / builds,
        "registration.rules": counts.get("registration.rules", 0) / builds,
    }


def _write_spans(out_dir: str, workload: Workload, batches: list[list]) -> None:
    """Spans were kept in memory; write them out now the run is over."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-{workload.seed}.jsonl")
    with open(path, "w") as handle:
        for batch_number, spans in enumerate(batches):
            index = {id(span): number for number, span in enumerate(spans)}
            for span in spans:
                parent = span[PARENT]
                handle.write(
                    json.dumps(
                        {
                            "round": batch_number - 1,  # -1 = set-up
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": index.get(id(parent), -1),
                            "op_id": span[OP],
                        }
                    )
                    + "\n"
                )


def expand_mix(pools: dict[str, list], shares: dict[str, int], rng, smoke: bool) -> list:
    """One round's operation sequence: ``shares[label]`` operations of
    each class (a twentieth of that for ``--smoke``), cycling through the
    class's distinct statements, then a seeded shuffle.  Exact class
    counts — not sampled ones — keep the work identical across seeds, so
    only order and literals vary."""
    ops: list = []
    for label, count in shares.items():
        pool = pools[label]
        if smoke:
            count = max(1, count // 20)
        ops.extend(pool[i % len(pool)] for i in range(count))
    rng.shuffle(ops)
    return ops


def replay(ops, run_op, traced_op, check, verify, recorder, log: RoundLog) -> None:
    """One single-client closed-loop round over ``ops``.

    Untraced: ``run_op(op)`` is timed and its result passed to the cheap
    ``check``.  Traced: ``traced_op(op)`` runs inside an ``op`` span and
    the full ``verify`` runs in an ``oracle`` span.  An operation that
    raises or fails its check is a failed operation.
    """
    for number, op in enumerate(ops):
        try:
            if recorder is None:
                start = perf_counter()
                result = run_op(op)
                log.complete(start, number)
                ok = check(op, result)
            else:
                recorder.op_id = number
                with recorder.span("op"):
                    start = perf_counter()
                    result = traced_op(op)
                    log.complete(start, number)
                    with recorder.span("oracle"):
                        ok = verify(op, result)
        except Exception:  # noqa: BLE001 - the round must go on; it is counted
            if len(log.latencies_ms) <= number:
                log.complete(start, number)
            if log.failed == 0:
                traceback.print_exc()
            ok = False
        log.failed += not ok
