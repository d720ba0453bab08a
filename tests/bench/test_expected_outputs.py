"""The regression net over every experiment's exact simulated output.

``benchmarks/expected/BENCH_<id>.json`` holds the ``to_json_dict()`` of
each registry entry at the ``--fast`` scale.  Those values are simulated
(wall-clock readings are printed, never written), so a run must
reproduce them to the last bit; a change that moves one either has a
bug or has a reason worth stating next to the regenerated file.
"""

import json
from pathlib import Path

import pytest

import repro.bench.__main__ as bench_main
from repro.bench.__main__ import EXPERIMENTS, Experiment, main, select

EXPECTED = Path(__file__).resolve().parents[2] / "benchmarks" / "expected"
REGENERATE = "python -m repro.bench --fast --out-dir benchmarks/expected"
IDS = [experiment.id for experiment in EXPERIMENTS]


def first_difference(expected, actual, path=""):
    """Path and values of the first place two JSON documents differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                side = "expected" if key not in actual else "actual"
                return f"{path}.{key}: only in {side}"
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: {len(expected)} items expected, {len(actual)} actual"
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, actual {actual!r}"
    return None


@pytest.mark.parametrize("experiment_id", IDS)
def test_fast_output_equals_the_committed_file(fast_results, experiment_id):
    actual = json.loads(json.dumps(fast_results[experiment_id].to_json_dict()))
    expected = json.loads((EXPECTED / f"BENCH_{experiment_id}.json").read_text())
    difference = first_difference(expected, actual)
    assert difference is None, (
        f"{experiment_id} moved at {difference}; if intended, regenerate "
        f"with `{REGENERATE}` and say why in the PR"
    )


def test_expected_directory_holds_exactly_the_registry():
    assert sorted(path.name for path in EXPECTED.iterdir()) == sorted(
        f"BENCH_{experiment_id}.json" for experiment_id in IDS
    )


class TestRegistry:
    def test_ids_are_unique_and_every_one_reports(self, fast_results):
        assert len(set(IDS)) == len(IDS)
        for experiment_id in IDS:
            result = fast_results[experiment_id]
            assert result.report().strip(), experiment_id
            assert result.to_json_dict()["experiment"] == experiment_id

    def test_only_selects_in_registry_order(self):
        assert [e.id for e in select("E12, E8")] == ["E8", "E12"]
        assert select(None) == EXPERIMENTS

    def test_only_rejects_unknown_ids(self, capsys):
        with pytest.raises(ValueError, match="E14"):
            select("E8,E14")
        with pytest.raises(SystemExit) as exit_info:
            main(["--only", "E99"])
        assert exit_info.value.code == 2
        assert "E99" in capsys.readouterr().err

    def test_a_result_below_its_bar_fails_the_run(self, monkeypatch, capsys):
        class BelowTheBar:
            passed = False

            def report(self):
                return "stub report"

            def to_json_dict(self):
                return {}

        monkeypatch.setattr(
            bench_main, "EXPERIMENTS", (Experiment("E0", "stub", BelowTheBar),)
        )
        assert main([]) == 1
        assert "FAIL: E0" in capsys.readouterr().out


def test_telemetry_never_moves_the_simulated_clock(fast_results):
    """E9's exact half: the same workload charges the same simulated
    milliseconds with every telemetry layer on as with none, and the
    registry's counters agree with the per-query diagnostics."""
    telemetry = fast_results["E9"]
    assert telemetry.simulated_ms_identical
    simulated = {simulated for _mode, _wall, simulated in telemetry.mode_rows}
    assert len(simulated) == 1 and simulated.pop() > 0
    assert telemetry.metrics_consistent
    assert telemetry.drift_cells > 0
