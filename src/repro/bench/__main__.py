"""Run every experiment and print all tables: ``python -m repro.bench``.

Options:
    --fast            use reduced scales (TINY OO7, fewer repetitions)
    --out-dir DIR     also write machine-readable results (currently
                      ``BENCH_E8.json``, ``BENCH_E9.json``,
                      ``BENCH_E10.json``, ``BENCH_E11.json``,
                      ``BENCH_E12.json``, ``BENCH_E13.json``,
                      ``BENCH_E14.json``, ``BENCH_E15.json`` and
                      ``BENCH_E16.json``) into DIR
"""

from __future__ import annotations

import json
import os
import sys

from repro.bench.accuracy import run_accuracy
from repro.bench.bindjoin_bench import run_bindjoin_experiment
from repro.bench.calibration import run_calibration_experiment
from repro.bench.clustering import run_clustering
from repro.bench.fig12 import run_fig12
from repro.bench.history_bench import run_history
from repro.bench.hotpath import run_hotpath_experiment
from repro.bench.overhead import run_overhead
from repro.bench.parallel import run_parallel_experiment
from repro.bench.plan_quality import run_plan_quality
from repro.bench.realtime import run_realtime
from repro.bench.replication import HEDGE_DELAYS, run_replication_experiment
from repro.bench.resilience import PROBABILITIES, run_fault_experiment
from repro.bench.serving import run_serving_experiment
from repro.bench.sharding import run_sharding_experiment
from repro.bench.telemetry import run_telemetry_experiment
from repro.oo7 import PAPER, SMALL, TINY


def banner(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def write_json(out_dir: str | None, filename: str, payload: dict) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")


def parse_out_dir(argv: list[str]) -> str | None:
    if "--out-dir" not in argv:
        return None
    index = argv.index("--out-dir")
    if index + 1 >= len(argv):
        raise SystemExit("--out-dir requires a directory argument")
    return argv[index + 1]


def main() -> None:
    fast = "--fast" in sys.argv
    out_dir = parse_out_dir(sys.argv)
    oo7_config = SMALL if fast else PAPER

    banner("Figure 12 (§5) — index scan: experiment / calibration / Yao rule")
    fig12 = run_fig12(config=oo7_config)
    print(fig12.table())
    print()
    print(fig12.error_table())

    banner("E2 — plan quality per cost-model configuration")
    quality = run_plan_quality(config=TINY if fast else SMALL)
    print(quality.table())
    print(
        f"\nblended vs generic total speedup: "
        f"{quality.speedup_blended_vs_generic():.2f}x"
    )

    banner("E3 — estimation accuracy per configuration")
    accuracy = run_accuracy(config=TINY if fast else SMALL)
    print(accuracy.table())
    print()
    print(accuracy.detail_table())

    banner("E4 — rule-machinery overhead and ablations")
    overhead = run_overhead(
        rule_counts=(10, 100) if fast else (10, 50, 200, 1000),
        repetitions=20 if fast else 100,
    )
    print(overhead.dispatch_table())
    print()
    print(overhead.pruning_table())
    print()
    print(overhead.propagation_table())
    print()
    print(overhead.conflict_table())
    print()
    print(overhead.cache_table())

    banner("E5 — historical costs (§4.3.1)")
    history = run_history(config=TINY)
    print(history.convergence_table())
    print()
    print(history.generalization_table())

    banner("E7 — bind joins (§7 ADT motivation)")
    bindjoin = run_bindjoin_experiment(
        key_counts=(10, 100) if fast else (10, 50, 200, 1000)
    )
    print(bindjoin.table())
    print(
        f"\nmax bind-join speedup: {bindjoin.max_speedup():.0f}x; "
        f"optimizer correct everywhere: {bindjoin.all_choices_correct}"
    )

    banner("E6 — clustering (§7)")
    clustering = run_clustering(count=1400 if fast else 7000)
    print(clustering.table())
    print(
        "\nmean rel err — scattered rule "
        f"{clustering.scattered_rule_error.mean_relative_error:.3f}, "
        f"clustered rule "
        f"{clustering.clustered_rule_error.mean_relative_error:.3f}, "
        f"single calibrated model on clustered "
        f"{clustering.calibration_error_on_clustered.mean_relative_error:.3f}"
    )

    banner("E8 — concurrent submit dispatch + subanswer cache")
    parallel = run_parallel_experiment()
    print(parallel.dispatch_table())
    print()
    print(parallel.cap_table())
    print()
    print(parallel.cache_table())
    write_json(out_dir, "BENCH_E8.json", parallel.to_json_dict())

    banner("E9 — telemetry overhead and payoff")
    telemetry = run_telemetry_experiment(repetitions=5 if fast else 9)
    print(telemetry.overhead_table())
    print()
    print(telemetry.trace_table())
    print(
        f"\nenabled-telemetry overhead: "
        f"{telemetry.overhead_enabled_pct:+.1f}% wall-clock; "
        f"simulated clocks identical: {telemetry.simulated_ms_identical}"
    )
    write_json(out_dir, "BENCH_E9.json", telemetry.to_json_dict())

    banner("E10 — fault matrix: answered-query rate vs fault probability")
    faults = run_fault_experiment(
        probabilities=(0.0, 0.15, 0.5) if fast else PROBABILITIES,
        rounds=2 if fast else 6,
    )
    print(faults.table())
    write_json(out_dir, "BENCH_E10.json", faults.to_json_dict())

    banner("E11 — the serving layer: multi-tenant throughput and fairness")
    serving = run_serving_experiment(fast=fast)
    print(serving.throughput_table())
    print()
    print(serving.fairness_table())
    print()
    print(serving.backpressure_table())
    write_json(out_dir, "BENCH_E11.json", serving.to_json_dict())

    banner("E13 — online recalibration: drift recovery without re-registration")
    calibration = run_calibration_experiment(fast=fast)
    print(calibration.table())
    print(f"\n{calibration.summary()}")
    write_json(out_dir, "BENCH_E13.json", calibration.to_json_dict())

    banner("E12 — sharded federations: scatter-gather vs shard pruning")
    sharding = run_sharding_experiment(fast=fast)
    print(sharding.table())
    print(
        f"\npruning beats full scatter everywhere: {sharding.pruning_wins}"
    )
    write_json(out_dir, "BENCH_E12.json", sharding.to_json_dict())

    banner("E14 — plans costed per second (optimizer hot path, wall clock)")
    hotpath = run_hotpath_experiment(fast=fast)
    print(hotpath.table())
    print(f"\n{hotpath.summary()}")
    write_json(out_dir, "BENCH_E14.json", hotpath.to_json_dict())

    banner("E15 — replicated sources: failover availability and hedged tails")
    replication = run_replication_experiment(
        rounds=20 if fast else 40,
        hedge_delays=(300.0, 1_200.0) if fast else HEDGE_DELAYS,
    )
    print(replication.table())
    write_json(out_dir, "BENCH_E15.json", replication.to_json_dict())

    banner("E16 — real-time backend: predicted cost vs measured wall time")
    realtime = run_realtime(fast=fast)
    print(realtime.table())
    write_json(out_dir, "BENCH_E16.json", realtime.to_json_dict())


if __name__ == "__main__":
    main()
