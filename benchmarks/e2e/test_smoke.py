"""Keeps the end-to-end benchmark from rotting unnoticed.

Not part of tier-1 (``testpaths`` is ``tests/``); run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.  It drives the
``--smoke`` form of the one command (1 round, tiny fixtures, a few
seconds) exactly as ``BENCHMARK.json`` drives the real one and asserts
that every workload and every named metric is present.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_smoke(tmp_path, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, *SPEC["command"][1:], "--smoke",
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--out-dir", str(tmp_path),
        ],  # fmt: skip
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_four_workloads():
    assert WORKLOADS == ["plan_mix", "query_sim", "query_rt", "serve_mix"]
    assert all(0 < metric["bound"] <= 0.10 for metric in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result = run_smoke(tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    result = run_smoke(tmp_path, workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    # The ledger must sum to the whole, whatever the workload.
    assert result["metrics"]["ledger.coverage"]["value"] >= 0.95
    spans = list(tmp_path.glob(f"spans-{workload}-*.jsonl"))
    assert spans and spans[0].stat().st_size > 0


def test_same_seed_same_sequence_other_seed_other_sequence(tmp_path):
    def digest(seed: int) -> str:
        done = subprocess.run(
            [
                sys.executable, *SPEC["command"][1:], "--smoke", "--child",
                "--workload", "query_sim", "--seed", str(seed), "--seconds", "1",
                "--trace", "1", "--out-dir", str(tmp_path),
            ],  # fmt: skip
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=180,
        )
        document = json.loads(done.stdout.strip().splitlines()[-1])
        return document["sequence_digest"] + json.dumps(document["count_digest"])

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
