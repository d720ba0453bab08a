"""Shape of E2 — plan quality per cost-model configuration (full scale).

Runs the federation workload under the generic / calibrated / blended
configurations and asserts the expected ordering of *actual* execution
times: richer cost information never chooses worse plans overall, and
wins outright on the join-placement and join-order queries where the
generic model's standard values mislead it.
"""

import pytest

from repro.bench.plan_quality import run_plan_quality


@pytest.fixture(scope="module")
def report():
    return run_plan_quality()


class TestPlanQuality:
    def test_blended_never_worse_overall(self, report):
        total_generic = report.experiment.total_actual("generic")
        total_blended = report.experiment.total_actual("blended")
        assert total_blended <= total_generic * 1.001

    def test_blended_wins_join_placement(self, report):
        """The local-join query: with real cost information the mediator
        picks the cheaper join placement."""
        generic = report.experiment.record_for("generic", "local-join")
        blended = report.experiment.record_for("blended", "local-join")
        assert blended.actual_ms < 0.95 * generic.actual_ms

    def test_blended_wins_join_order(self, report):
        """The audit-chain query: statistics steer the join order away
        from the 150 000-row intermediate."""
        generic = report.experiment.record_for("generic", "audit-chain")
        blended = report.experiment.record_for("blended", "audit-chain")
        assert blended.actual_ms < 0.95 * generic.actual_ms

    def test_all_configurations_return_same_answers(self, report):
        for label in {r.label for r in report.experiment.records}:
            counts = {
                model: report.experiment.record_for(model, label).rows
                for model in ("generic", "calibrated", "blended")
            }
            assert len(set(counts.values())) == 1, (label, counts)
