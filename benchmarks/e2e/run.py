#!/usr/bin/env python3
"""One wall-clock benchmark for the mediator (see README.md beside this file).

    python3 benchmarks/e2e/run.py                  # every workload, both runs
    python3 benchmarks/e2e/run.py --smoke          # the same in a few seconds
    python3 benchmarks/e2e/run.py --selfcheck      # two sets must agree
    python3 benchmarks/e2e/run.py --workload plan_mix --seed 3 --seconds 15 --trace 0

The last form is the contract ``BENCHMARK.json`` names: it prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every run of a workload happens in a fresh child interpreter
(``PYTHONHASHSEED=0``, one driver thread), so workloads cannot disturb
each other's heap, caches or peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("plan_mix", "query_sim", "query_rt", "serve_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1 round, tiny fixtures")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run everything twice; fail unless the two sets agree within bounds",
    )
    parser.add_argument("--out-dir", default=".e2e_bench")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child(args)
    if args.selfcheck:
        return selfcheck(args, spec)
    if args.workload is not None and args.trace is not None:
        return contract_run(args, spec)
    return full_run(args, spec)


# -- the child: one run of one workload ----------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from plan_mix import PlanMix
    from query_rt import QueryRt
    from query_sim import QuerySim
    from serve_mix import ServeMix

    classes = {c.name: c for c in (PlanMix, QuerySim, QueryRt, ServeMix)}
    out_dir = os.path.abspath(args.out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    workload = classes[args.workload](args.seed, args.smoke, work_dir)
    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    document = harness.run(workload, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(document))
    return 0


def spawn(args, workload: str, trace: int) -> dict:
    """Run one child to completion and return its result document."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out-dir", args.out_dir,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the parent: reporting ------------------------------------------------------


def declared(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def named_metrics(spec: dict, trace: int, document: dict) -> dict:
    """The run's metrics under exactly the declared names, with units.
    A per-layer metric a workload never exercises reads 0."""
    names = {metric["name"] for metric in declared(spec, trace)}
    unknown = set(document["metrics"]) - names
    if unknown:
        raise SystemExit(f"error: metrics not in BENCHMARK.json: {sorted(unknown)}")
    if not trace and names - set(document["metrics"]):
        raise SystemExit("error: an end-to-end metric is missing from the run")
    return {
        metric["name"]: {
            "value": document["metrics"].get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in declared(spec, trace)
    }


def report(spec: dict, trace: int, document: dict) -> None:
    kind = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(
        f"\n== {document['workload']} · {kind} · seed {document['seed']} · "
        f"{document['clients']} closed-loop client(s) · {document['rounds']} rounds "
        f"x {document['ops_per_round']} ops · sequence {document['sequence_digest']}"
    )
    print(
        f"   attempted {document['attempted']}  failed {document['failed']}  "
        f"oracle+stationarity {'ok' if document['correct'] else 'FAILED'}"
    )
    detail = document.get("detail", {})
    for name, entry in named_metrics(spec, trace, document).items():
        if trace and entry["value"] == 0:
            continue
        line = f"   {name:32s} {entry['value']:>14.4f} {entry['unit']}"
        if name in detail:
            d = detail[name]
            line += f"    rounds: median {d['median']:.4f}, IQR {d['q1']:.4f}..{d['q3']:.4f}"
        print(line)
    if "count_digest" in document:
        print(f"   determinism digest: {document['sequence_digest']} "
              + " ".join(f"{k}={v}" for k, v in document["count_digest"].items()))


def contract_run(args, spec: dict) -> int:
    document = spawn(args, args.workload, args.trace)
    report(spec, args.trace, document)
    print(
        json.dumps(
            {
                "correct": bool(document["correct"]),
                "attempted": int(document["attempted"]),
                "failed": int(document["failed"]),
                "metrics": named_metrics(spec, args.trace, document),
            }
        )
    )
    return 0 if document["correct"] else 1


def full_run(args, spec: dict) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    correct = True
    for workload in workloads:
        digests = set()
        for trace in traces:
            document = spawn(args, workload, trace)
            report(spec, trace, document)
            correct &= bool(document["correct"])
            digests.add(document["sequence_digest"])
        if len(digests) > 1:
            print(f"error: {workload}: runs with one seed replayed different sequences")
            correct = False
    print("\nall oracle checks passed" if correct else "\nFAILED")
    return 0 if correct else 1


def selfcheck(args, spec: dict) -> int:
    """Two sets of untraced runs, alternating workload order; every
    end-to-end metric of every workload must agree within its bound."""
    sets = []
    for order in (list(WORKLOADS), list(reversed(WORKLOADS))):
        results = {}
        for workload in order:
            document = spawn(args, workload, 0)
            if not document["correct"]:
                raise SystemExit(f"error: {workload} failed its oracle checks")
            results[workload] = document["metrics"]
        sets.append(results)
    rows = []
    agreed = True
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            first = sets[0][workload][metric["name"]]
            second = sets[1][workload][metric["name"]]
            observed = abs(second - first) / first
            ok = observed <= metric["bound"]
            agreed &= ok
            rows.append(
                {
                    "workload": workload, "metric": metric["name"],
                    "first": first, "second": second,
                    "spread": observed, "bound": metric["bound"], "ok": ok,
                }  # fmt: skip
            )
            print(
                f"{workload:10s} {metric['name']:18s} {first:12.4f} {second:12.4f} "
                f"spread {observed:6.3f}  bound {metric['bound']:.2f}  "
                f"{'ok' if ok else 'DISAGREE'}"
            )
    os.makedirs(args.out_dir, exist_ok=True)
    Path(args.out_dir, "selfcheck.json").write_text(json.dumps(rows, indent=1))
    print("selfcheck passed" if agreed else "selfcheck FAILED")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
