"""The one experiment entry point: ``python -m repro.bench``.

Options:
    --fast            reduced scales (each registry row's ``fast`` overrides)
    --only E8,E12     run only the listed experiment ids
    --out-dir DIR     also write each ``to_json_dict()`` to
                      ``DIR/BENCH_<id>.json``

Every experiment returns a result with ``report()`` — all the text it
prints, wall-clock readings included — and ``to_json_dict()`` — the
exact simulated values only, equal run to run.  The ``--fast`` JSON of
every experiment is committed under ``benchmarks/expected/`` and
compared by ``tests/bench/test_expected_outputs.py``; regenerate with
``python -m repro.bench --fast --out-dir benchmarks/expected``.  A
result may also carry ``passed``; a false one fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench.accuracy import run_accuracy
from repro.bench.bindjoin_bench import run_bindjoin_experiment
from repro.bench.calibration import run_calibration_experiment
from repro.bench.clustering import run_clustering
from repro.bench.fig12 import run_fig12
from repro.bench.history_bench import run_history
from repro.bench.overhead import run_overhead
from repro.bench.parallel import run_parallel_experiment
from repro.bench.plan_quality import run_plan_quality
from repro.bench.realtime import run_realtime
from repro.bench.replication import run_replication_experiment
from repro.bench.resilience import run_fault_experiment
from repro.bench.serving import run_serving_experiment
from repro.bench.sharding import run_sharding_experiment
from repro.bench.telemetry import run_telemetry_experiment
from repro.oo7 import SMALL, TINY


@dataclass(frozen=True)
class Experiment:
    """One registry row.  The full scale is ``runner``'s own defaults;
    ``fast`` holds the keyword overrides of the ``--fast`` scale."""

    id: str
    title: str
    runner: Callable[..., Any]
    fast: dict[str, Any] = field(default_factory=dict)

    def run(self, fast: bool) -> Any:
        return self.runner(**(self.fast if fast else {}))


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "E1",
        "Figure 12 (§5) — index scan: experiment / calibration / Yao rule",
        run_fig12,
        {"config": SMALL},
    ),
    Experiment(
        "E2",
        "plan quality per cost-model configuration",
        run_plan_quality,
        {"config": TINY},
    ),
    Experiment(
        "E3",
        "estimation accuracy per configuration",
        run_accuracy,
        {"config": TINY},
    ),
    Experiment(
        "E4",
        "rule-machinery overhead and ablations",
        run_overhead,
        {"rule_counts": (10, 100), "repetitions": 20},
    ),
    Experiment("E5", "historical costs (§4.3.1)", run_history),
    Experiment("E6", "clustering (§7)", run_clustering, {"count": 1400}),
    Experiment(
        "E7",
        "bind joins (§7 ADT motivation)",
        run_bindjoin_experiment,
        {"key_counts": (10, 100)},
    ),
    Experiment(
        "E8",
        "concurrent submit dispatch + subanswer cache",
        run_parallel_experiment,
    ),
    Experiment(
        "E9",
        "telemetry overhead and payoff",
        run_telemetry_experiment,
        {"repetitions": 5},
    ),
    Experiment(
        "E10",
        "fault matrix: answered-query rate vs fault probability",
        run_fault_experiment,
        {"probabilities": (0.0, 0.15, 0.5), "rounds": 2},
    ),
    Experiment(
        "E11",
        "the serving layer: multi-tenant throughput and fairness",
        run_serving_experiment,
        {
            "ladder": (1, 2, 4),
            "throughput_clients": (1, 2),
            "throughput_queries": 2,
            "burst_clients": 3,
            "burst_queries": 2,
        },
    ),
    Experiment(
        "E12",
        "sharded federations: scatter-gather vs shard pruning",
        run_sharding_experiment,
        {"rows": 400, "shard_counts": (1, 4), "alignments": (0.0, 0.5, 1.0)},
    ),
    Experiment(
        "E13",
        "online recalibration: drift recovery without re-registration",
        run_calibration_experiment,
        {"cadence": 6, "shifted_windows": 8},
    ),
    Experiment(
        "E15",
        "replicated sources: failover availability and hedged tails",
        run_replication_experiment,
        {"rounds": 20, "hedge_delays": (300.0, 1_200.0)},
    ),
    Experiment(
        "E16",
        "real-time backend: predicted cost vs measured wall time",
        run_realtime,
        {
            "config": TINY,
            "selectivities": (0.05, 0.2, 0.45, 0.7),
            "repeats": 3,
            "latency_ms": 4.0,
        },
    ),
)


def select(only: str | None) -> tuple[Experiment, ...]:
    """The registry rows named by a comma-separated ``--only`` value
    (all of them for ``None``), in registry order."""
    if only is None:
        return EXPERIMENTS
    wanted = {part.strip() for part in only.split(",")}
    unknown = wanted - {experiment.id for experiment in EXPERIMENTS}
    if unknown:
        raise ValueError(
            f"unknown experiment id(s) {', '.join(sorted(unknown))}; known: "
            + ", ".join(experiment.id for experiment in EXPERIMENTS)
        )
    return tuple(e for e in EXPERIMENTS if e.id in wanted)


def write_json(out_dir: str, filename: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--only", metavar="IDS")
    parser.add_argument("--out-dir", metavar="DIR")
    args = parser.parse_args(argv)
    try:
        selected = select(args.only)
    except ValueError as error:
        parser.error(str(error))
    failed = []
    for experiment in selected:
        print(f"\n{'#' * 72}\n# {experiment.id} — {experiment.title}\n{'#' * 72}")
        result = experiment.run(args.fast)
        print(result.report())
        if args.out_dir is not None:
            write_json(
                args.out_dir, f"BENCH_{experiment.id}.json", result.to_json_dict()
            )
        if not getattr(result, "passed", True):
            failed.append(experiment.id)
    if failed:
        print(f"\nFAIL: {', '.join(failed)} below the acceptance bar")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
