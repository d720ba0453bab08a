"""Drift tracker unit tests: provenance parsing, q-error, aggregation."""

import math

import pytest

from repro.algebra.builders import scan
from repro.algebra.logical import Submit
from repro.core.estimator import NodeEstimate, PlanEstimate
from repro.obs.accuracy import (
    DriftTracker,
    log_ratio,
    parse_provenance,
    q_error,
    render_drift_snapshot,
)
from repro.wrappers.base import ExecutionResult


class TestParseProvenance:
    def test_scoped_format(self):
        assert parse_provenance(
            "predicate[oo7]: select(AtomicParts, Id = V)"
        ) == ("predicate", "oo7", "select(AtomicParts, Id = V)")
        assert parse_provenance("default[__mediator__]: generic-scan") == (
            "default",
            "__mediator__",
            "generic-scan",
        )

    def test_non_scoped_strings_fall_into_internal(self):
        assert parse_provenance("derived") == ("internal", "", "derived")
        assert parse_provenance("pruned (§4.3.2 bound exceeded)") == (
            "internal",
            "",
            "pruned (§4.3.2 bound exceeded)",
        )


class TestQError:
    def test_perfect_prediction_is_one(self):
        assert q_error(100.0, 100.0) == 1.0

    def test_symmetric(self):
        assert q_error(10.0, 100.0) == q_error(100.0, 10.0) == 10.0

    def test_zero_actual_stays_finite(self):
        assert q_error(1.0, 0.0) == pytest.approx(1.0 / 1e-9)
        assert q_error(0.0, 0.0) == 1.0


def make_submit_estimate(
    total_time=100.0, count=50.0, provenance="collection[oo7]: scan-rule"
):
    """A Submit plan plus a PlanEstimate covering its wrapper subtree."""
    plan = scan("AtomicParts").submit_to("oo7").build()
    assert isinstance(plan, Submit)
    child = plan.child
    child_estimate = NodeEstimate(
        node=child,
        values={"TotalTime": total_time, "CountObject": count},
        provenance={"TotalTime": provenance, "CountObject": provenance},
    )
    root_estimate = NodeEstimate(
        node=plan, values={"TotalTime": total_time + 300.0}
    )
    estimate = PlanEstimate(
        plan=plan,
        root=root_estimate,
        nodes={plan.node_id: root_estimate, child.node_id: child_estimate},
    )
    return plan, estimate


def result(total_time_ms, rows):
    return ExecutionResult(
        rows=[{"Id": i} for i in range(rows)], total_time_ms=total_time_ms
    )


class TestDriftTracker:
    def test_observe_submit_joins_estimate_against_actuals(self):
        plan, estimate = make_submit_estimate(total_time=100.0, count=50.0)
        tracker = DriftTracker()
        observations = tracker.observe_submit(estimate, plan, result(200.0, 50))
        assert len(observations) == 2
        by_variable = {o.variable: o for o in observations}
        assert by_variable["TotalTime"].q_error == pytest.approx(2.0)
        assert by_variable["CountObject"].q_error == pytest.approx(1.0)
        assert by_variable["TotalTime"].scope == "collection"
        assert by_variable["TotalTime"].source == "oo7"
        assert by_variable["TotalTime"].rule == "scan-rule"

    def test_aggregates_fold_per_scope_rule_variable(self):
        plan, estimate = make_submit_estimate(total_time=100.0, count=50.0)
        tracker = DriftTracker()
        tracker.observe_submit(estimate, plan, result(200.0, 50))
        tracker.observe_submit(estimate, plan, result(400.0, 50))
        assert len(tracker) == 2  # TotalTime + CountObject cells
        worst = tracker.worst("TotalTime")
        assert worst is not None
        assert worst.count == 2
        assert worst.mean_q == pytest.approx(3.0)  # (2 + 4) / 2
        assert worst.max_q == pytest.approx(4.0)
        assert tracker.observations == 4

    def test_unmatched_submits_counted_not_dropped(self):
        plan, estimate = make_submit_estimate()
        # A runtime-built probe submit: same wrapper, different subtree.
        probe = scan("Documents").submit_to("oo7").build()
        tracker = DriftTracker()
        assert tracker.observe_submit(estimate, probe, result(10.0, 1)) == []
        assert tracker.unmatched_submits == 1
        assert "1 runtime-built submits" in tracker.report()

    def test_observe_plan_walks_the_submit_log(self):
        plan, estimate = make_submit_estimate()
        tracker = DriftTracker()
        log = [(plan, result(100.0, 50)), (plan, result(100.0, 50))]
        assert tracker.observe_plan(estimate, log) == 4

    def test_report_and_snapshot(self):
        plan, estimate = make_submit_estimate(total_time=100.0)
        tracker = DriftTracker()
        tracker.observe_submit(estimate, plan, result(1000.0, 50))
        report = tracker.report()
        assert "collection" in report and "scan-rule" in report
        snapshot = tracker.snapshot()
        assert snapshot["observations"] == 2
        rules = {r["variable"]: r for r in snapshot["rules"]}
        assert rules["TotalTime"]["mean_q_error"] == pytest.approx(10.0)
        assert rules["TotalTime"]["last_estimated"] == 100.0
        assert rules["TotalTime"]["last_actual"] == 1000.0

    def test_worst_orders_by_mean_q(self):
        plan, estimate = make_submit_estimate(total_time=100.0, count=50.0)
        tracker = DriftTracker()
        tracker.observe_submit(estimate, plan, result(100.0, 5))  # count off 10x
        aggregates = tracker.aggregates()
        assert aggregates[0].variable == "CountObject"
        assert tracker.worst("CountObject").mean_q == pytest.approx(10.0)


class TestLogRatio:
    def test_directional_unlike_q_error(self):
        assert log_ratio(100.0, 200.0) == pytest.approx(math.log(2.0))
        assert log_ratio(200.0, 100.0) == pytest.approx(-math.log(2.0))
        assert log_ratio(100.0, 100.0) == 0.0

    def test_zero_operands_floored_finite(self):
        assert math.isfinite(log_ratio(0.0, 100.0))
        assert math.isfinite(log_ratio(100.0, 0.0))
        assert log_ratio(0.0, 0.0) == 0.0


class TestWrapperAttribution:
    """PR 8: drift rows carry the executing wrapper, for the fitter."""

    def test_observations_and_aggregates_carry_wrapper(self):
        plan, estimate = make_submit_estimate()
        tracker = DriftTracker()
        observations = tracker.observe_submit(estimate, plan, result(200.0, 50))
        assert all(o.wrapper == "oo7" for o in observations)
        assert all(a.wrapper == "oo7" for a in tracker.aggregates())

    def test_sum_log_ratio_folds_and_geo_mean_recovers(self):
        plan, estimate = make_submit_estimate(total_time=100.0, count=50.0)
        tracker = DriftTracker()
        tracker.observe_submit(estimate, plan, result(200.0, 50))
        tracker.observe_submit(estimate, plan, result(800.0, 50))
        [row] = [
            r
            for r in tracker.snapshot()["rules"]
            if r["variable"] == "TotalTime"
        ]
        assert row["wrapper"] == "oo7"
        assert row["sum_log_ratio"] == pytest.approx(
            math.log(2.0) + math.log(8.0)
        )
        geo_mean = math.exp(row["sum_log_ratio"] / row["count"])
        assert geo_mean == pytest.approx(4.0)  # sqrt(2 * 8)


class TestZeroSampleRows:
    """Regression: expected-but-silent wrappers surface as count=0 rows.

    Without them, a wrapper that stopped answering (or was never routed
    to) is indistinguishable from a perfectly-calibrated one in the
    drift snapshot, and the calibration CLI has nothing to report.
    """

    def test_silent_expected_wrapper_gets_placeholder_rows(self):
        tracker = DriftTracker()
        tracker.expect_wrapper("ghost")
        rows = tracker.snapshot()["rules"]
        ghost = [r for r in rows if r["wrapper"] == "ghost"]
        assert ghost and all(r["count"] == 0 for r in ghost)
        assert {r["rule"] for r in ghost} == {"(no measured submits)"}

    def test_measured_wrapper_gets_no_placeholder(self):
        plan, estimate = make_submit_estimate()
        tracker = DriftTracker()
        tracker.expect_wrapper("oo7")
        tracker.expect_wrapper("ghost")
        tracker.observe_submit(estimate, plan, result(200.0, 50))
        rows = tracker.snapshot()["rules"]
        oo7_rows = [r for r in rows if r["wrapper"] == "oo7"]
        assert oo7_rows and all(r["count"] > 0 for r in oo7_rows)
        assert any(r["wrapper"] == "ghost" and r["count"] == 0 for r in rows)

    def test_renderer_shows_dashes_not_zero_qerrors(self):
        tracker = DriftTracker()
        tracker.expect_wrapper("ghost")
        text = render_drift_snapshot(tracker.snapshot())
        assert "ghost" in text and "-" in text
        assert "(no measured submits)" in text

    def test_zero_sample_rows_are_inert_to_the_fitter(self):
        from repro.mediator.calibration import (
            CalibrationPolicy,
            CalibrationState,
            Calibrator,
        )

        tracker = DriftTracker()
        tracker.expect_wrapper("ghost")
        fit = Calibrator(CalibrationPolicy(min_samples=1)).fit(
            tracker.snapshot(), CalibrationState()
        )
        assert not fit.updates and not fit.skipped
