"""Tests of the experiment modules at reduced scale.

The full-scale shape assertions are the ``test_shape_*`` files beside
this one; ``fast_results`` (conftest) is the session's single ``--fast``
run of the registry.
"""

import pytest

from repro.bench.accuracy import run_accuracy
from repro.bench.clustering import run_clustering
from repro.bench.federation import MODELS, run_federation_experiment
from repro.bench.fig12 import run_fig12
from repro.bench.harness import ErrorSummary, format_table
from repro.bench import history_bench
from repro.bench.history_bench import run_history
from repro.bench.overhead import run_overhead
from repro.bench.plan_quality import run_plan_quality
from repro.oo7 import TINY


SMALL_WORKLOAD = (
    ("point", "SELECT * FROM AtomicParts WHERE Id = 3"),
    (
        "join",
        "SELECT * FROM Orders, Suppliers "
        "WHERE Orders.supplier = Suppliers.sid AND Suppliers.city = 'city0'",
    ),
)


class TestHarness:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [[1, 2.5], [10, 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "0.25" in text

    def test_format_table_nan_dash(self):
        text = format_table(("x",), [[float("nan")]])
        assert "-" in text

    def test_error_summary_stats(self):
        summary = ErrorSummary.from_pairs([(110, 100), (90, 100), (100, 100)])
        assert summary.count == 3
        assert summary.mean_relative_error == pytest.approx(0.2 / 3)
        assert summary.median_relative_error == pytest.approx(0.1)
        assert summary.max_relative_error == pytest.approx(0.1)

    def test_error_summary_empty(self):
        import math

        summary = ErrorSummary.from_pairs([])
        assert summary.count == 0
        assert math.isnan(summary.mean_relative_error)


class TestFig12Module:
    def test_small_run_has_expected_columns(self):
        result = run_fig12(config=TINY, selectivities=(0.1, 0.5))
        assert len(result.points) == 2
        assert result.points[0].selectivity == 0.1
        assert result.points[1].measured_ms > result.points[0].measured_ms
        assert "Experiment" in result.report()
        assert "yao rule" in result.report()


class TestFederationModule:
    def test_experiment_runs_all_models(self):
        experiment = run_federation_experiment(
            config=TINY, workload=SMALL_WORKLOAD
        )
        assert {r.model for r in experiment.records} == set(MODELS)
        assert {r.label for r in experiment.records} == {"point", "join"}

    def test_reports_render(self):
        quality = run_plan_quality(config=TINY, workload=SMALL_WORKLOAD)
        assert "TOTAL" in quality.report()
        accuracy = run_accuracy(config=TINY, workload=SMALL_WORKLOAD)
        assert "blended" in accuracy.report()
        assert "point" in accuracy.report()

    def test_record_lookup_raises_on_unknown(self):
        experiment = run_federation_experiment(
            config=TINY, workload=SMALL_WORKLOAD, models=("generic",)
        )
        with pytest.raises(KeyError):
            experiment.record_for("generic", "nope")


class TestOverheadModule:
    def test_small_overhead_run(self):
        result = run_overhead(rule_counts=(5, 20), repetitions=5)
        assert len(result.dispatch_rows) == 2
        assert result.dispatch_rows[0][0] == 5
        assert "virtual-table" in result.report()
        assert len(result.pruning_rows) == 2
        assert len(result.propagation_rows) == 2
        assert len(result.conflict_rows) == 2
        # E4e: one optimize() shares subplans across its candidates; the
        # same candidates costed one estimate() at a time pay at least
        # twice the formulas.
        sharing = dict(result.cache_rows)
        assert 0 < sharing["on"] * 2 < sharing["off"]


class TestHistoryModule:
    def test_history_result_tables(self):
        result = run_history(config=TINY)
        assert result.convergence_rows[0][0] == 1
        assert "query-scope" in result.report()
        assert result.base_error > 0

    def test_adjusted_arm_installs_one_overlay(self, monkeypatch):
        """Parameter adjustment is the service's fitter: the adjusted arm
        (the third mediator built) ends on overlay version 1, which
        raises the source's TotalTime to undo the ×4 optimistic bias;
        the base and query-scope arms stay on the identity overlay."""
        build, built = history_bench.build_mediator, []

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(history_bench, "build_mediator", recording_build)
        history_bench.run_generalization(config=TINY)
        states = [mediator.catalog.calibration for mediator in built]
        assert [state.active_version for state in states] == [0, 0, 1]
        assert states[2].multiplier_for("oo7", "TotalTime") > 1.0


class TestClusteringModule:
    def test_small_clustering_run(self):
        result = run_clustering(selectivities=(0.05, 0.2), count=1400)
        assert len(result.points) == 2
        for point in result.points:
            assert point.clustered_pages <= point.scattered_pages
        assert "clustering" in result.report()


class TestParallelModule:
    def test_e8_json_dict_is_machine_readable(self):
        import json

        from repro.bench.parallel import run_parallel_experiment

        experiment = run_parallel_experiment()
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E8"
        assert all(row["rows_identical"] for row in doc["dispatch"])
        assert all(row["saved_ms"] >= 0 for row in doc["dispatch"])
        cache_by_run = {row["run"]: row for row in doc["cache"]}
        assert cache_by_run["second"]["cache_hits"] > 0
        assert (
            cache_by_run["second"]["elapsed_ms"]
            < cache_by_run["first"]["elapsed_ms"]
        )


class TestTelemetryModule:
    def test_e9_small_run(self):
        import json

        from repro.bench.telemetry import run_telemetry_experiment

        experiment = run_telemetry_experiment(repetitions=3)
        assert experiment.simulated_ms_identical
        assert experiment.metrics_consistent
        assert experiment.drift_cells > 0
        assert len(experiment.mode_rows) == 2
        assert "telemetry" in experiment.report()
        assert "submit spans" in experiment.report()
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E9"
        assert all(t["spans"] > 0 for t in doc["traces"])


class TestResilienceModule:
    def test_e10_small_run(self):
        import json

        from repro.bench.resilience import run_fault_experiment

        experiment = run_fault_experiment(probabilities=(0.0, 0.5), rounds=1)
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E10"
        cells = {cell["probability"]: cell for cell in doc["cells"]}
        # Fault-free cell: every query answers in both modes, nothing retried.
        clean = cells[0.0]
        assert clean["strict_answered_rate"] == 1.0
        assert clean["partial_complete_rate"] == 1.0
        assert clean["retries"] == 0
        assert clean["breaker_trips"] == 0
        # Faulty cell: partial mode still answers every query.
        faulty = cells[0.5]
        complete = faulty["partial_complete_rate"] * faulty["queries"]
        assert complete + faulty["partial_degraded"] == faulty["queries"]
        assert faulty["retries"] > 0
        assert "answered" in experiment.report()


class TestServingModule:
    def test_e11_fast_run(self, fast_results):
        import json

        experiment = fast_results["E11"]
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E11"
        ladder = {run["label"]: run for run in doc["throughput"]}
        # Every admitted query completes at every concurrency level.
        for run in ladder.values():
            assert run["completed"] == run["submitted"] - run["rejected"]
        # Concurrency > 1 actually overlaps queries...
        widest = ladder[max(ladder, key=lambda k: ladder[k]["max_in_flight"])]
        assert widest["max_in_flight"] > 1
        assert widest["cross_query_waves"] > 0
        # ...and finishes the same workload in less simulated time.
        assert widest["makespan_ms"] < ladder["1"]["makespan_ms"]
        assert widest["plan_cache_hits"] > 0

    def test_e11_fairness_and_backpressure(self, fast_results):
        experiment = fast_results["E11"]
        fairness = experiment.fairness_run
        favored = fairness.tenant("dashboards")  # quota 3
        standard = fairness.tenant("analytics")  # quota 1
        # Both tenants run the identical query mix; the quota-3 tenant
        # must wait less, and neither may starve.
        assert favored.mean_queue_wait_ms < standard.mean_queue_wait_ms
        assert favored.completed > 0 and standard.completed > 0
        backpressure = experiment.backpressure_run
        assert backpressure.rejected > 0
        assert set(backpressure.rejected_by_reason) <= {
            "estimate_exceeds_budget",
            "queue_full",
            "degraded",
        }
        assert "tenant" in experiment.report()
        assert "rejected" in experiment.report()


class TestShardingModule:
    def test_e12_fast_run(self, fast_results):
        import json

        experiment = fast_results["E12"]
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E12"
        # The paper-shaped claim the sweep exists to show: for every
        # multi-shard federation, estimated AND simulated TotalTime drop
        # as more of the workload aligns with the shard key.
        assert doc["pruning_wins"] is True
        cells = {
            (cell["shards"], cell["alignment"]): cell
            for cell in doc["cells"]
        }
        # Fully oblivious workload fans out to every shard; fully
        # aligned workload prunes every query to one branch.
        assert cells[(4, 0.0)]["mean_branches"] == 4.0
        assert cells[(4, 1.0)]["mean_branches"] == 1.0
        # The 1-shard column is flat — no fan-out to save.
        one = [c for (s, _), c in cells.items() if s == 1]
        assert len({c["mean_branches"] for c in one}) == 1
        assert "pruning" in experiment.report()


class TestCalibrationModule:
    def test_e13_fast_run(self, fast_results):
        import json

        experiment = fast_results["E13"]
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E13"
        # The acceptance bar from ISSUE.md: post-shift tail median
        # q-error of the calibrated arm ≤ 0.5× the uncalibrated control.
        assert doc["passed"] is True
        assert doc["recovered_ratio"] <= 0.5
        calibrated = doc["arms"]["calibrated"]
        control = doc["arms"]["control"]
        # The control arm never fits, never versions, never moves.
        assert control["fits"] == 0
        assert control["active_version"] == 0
        assert control["final_multiplier"] == 1.0
        # The calibrated arm actually adapted.
        assert calibrated["overlays"] >= 1
        assert calibrated["active_version"] >= 1
        assert calibrated["final_multiplier"] != 1.0
        # Recovery means the tail beats the post-shift spike.
        phases = {p["phase"]: p for p in calibrated["phases"]}
        assert phases["recovered"]["median_q"] < phases["adapting"]["median_q"]
        assert "recovered" in experiment.report()
        assert "PASS" in experiment.report()


class TestReplicationModule:
    def test_e15_small_run(self, fast_results):
        import json

        experiment = fast_results["E15"]
        doc = json.loads(json.dumps(experiment.to_json_dict()))
        assert doc["experiment"] == "E15"
        arms = {arm["label"]: arm for arm in doc["availability"]}
        # The mid-run kill degrades the control but not the replica set.
        assert arms["control"]["complete_rate"] <= 0.5
        assert arms["control"]["failovers"] == 0
        assert arms["replicated"]["complete_rate"] >= 0.99
        assert arms["replicated"]["failovers"] >= 1
        assert arms["replicated"]["replica_served"] > 0
        # Hedging sweep: the control is first, each hedged cell records
        # extra work relative to it.
        cells = doc["hedging"]
        assert cells[0]["delay_ms"] is None
        assert all(cell["hedges_launched"] > 0 for cell in cells[1:])
        assert all(cell["extra_work"] >= 0.0 for cell in cells[1:])
        # The headline claim: some in-budget delay beats the unhedged
        # p99 by >= 20% with <= 10% extra wrapper work.
        assert doc["best_delay_ms"] is not None
        assert doc["p99_improvement"] >= 0.20
        assert "hedge delay" in experiment.report()


class TestBenchJsonOutput:
    def test_out_dir_writer(self, tmp_path, capsys):
        import json

        from repro.bench.__main__ import main

        assert main(["--fast", "--only", "E8", "--out-dir", str(tmp_path)]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["BENCH_E8.json"]
        written = json.loads((tmp_path / "BENCH_E8.json").read_text())
        assert written["experiment"] == "E8"
        printed = capsys.readouterr().out
        assert "# E8 — " in printed and "E8c" in printed
        assert "# E9 — " not in printed
