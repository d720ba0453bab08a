"""Tests for partial-answer semantics (``mode="partial"``)."""

import json

import pytest

from repro.algebra.builders import count_star, scan
from repro.algebra.expressions import AttributeRef
from repro.algebra.logical import BindJoin
from repro.errors import SubmitFailedError
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    PARTIAL,
    BreakerPolicy,
    ResilienceOptions,
    RetryPolicy,
)
from repro.wrappers.faults import FaultInjector, FaultProfile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

DEAD = FaultProfile(unavailable=True)


def partial_options(breaker=None, attempts=2):
    return ResilienceOptions(
        retry=RetryPolicy(max_attempts=attempts, backoff_base_ms=0.0),
        breaker=breaker,
        mode=PARTIAL,
    )


def build_federation(resilience, oo7_profile=DEAD, observability=False):
    """sales healthy, oo7 behind a fault injector (dead by default)."""
    mediator = Mediator(
        executor_options=ExecutorOptions(resilience=resilience),
        observability=observability,
    )
    mediator.register(build_sales_wrapper())
    injector = FaultInjector(build_oo7_wrapper(), oo7_profile)
    mediator.register(injector)
    return mediator


def union_plan():
    return (
        scan("Orders")
        .submit_to("sales")
        .union(scan("AtomicParts").submit_to("oo7"))
        .build()
    )


def join_plan():
    return (
        scan("AtomicParts")
        .submit_to("oo7")
        .join(scan("Suppliers").submit_to("sales"), "type", "partType")
        .build()
    )


class TestPartialMode:
    def test_union_drops_the_missing_branch(self):
        mediator = build_federation(partial_options())
        result = mediator.executor.execute(union_plan())
        assert result.count == 400  # the surviving sales branch
        assert result.degraded
        partial = result.partial
        assert partial.missing_wrappers == ["oo7"]
        assert partial.missing_collections == ["AtomicParts"]
        assert partial.dropped_union_branches == 1
        assert partial.pruned_joins == 0
        assert partial.sound_lower_bound

    def test_join_over_missing_side_prunes_to_zero_rows(self):
        mediator = build_federation(partial_options())
        result = mediator.executor.execute(join_plan())
        assert result.count == 0
        assert result.degraded
        assert result.partial.pruned_joins == 1
        assert result.partial.dropped_union_branches == 0
        # Inner-join semantics: zero rows is still a sound lower bound.
        assert result.partial.sound_lower_bound

    def test_both_union_branches_missing(self):
        mediator = build_federation(partial_options())
        plan = (
            scan("AtomicParts")
            .submit_to("oo7")
            .union(scan("Documents").submit_to("oo7"))
            .build()
        )
        result = mediator.executor.execute(plan)
        assert result.count == 0
        assert result.partial.dropped_union_branches == 2
        assert result.partial.missing_collections == ["AtomicParts", "Documents"]

    def test_aggregate_above_failure_is_not_sound(self):
        mediator = build_federation(partial_options())
        plan = (
            scan("AtomicParts")
            .submit_to("oo7")
            .aggregate(aggregates=[count_star("parts")])
            .build()
        )
        result = mediator.executor.execute(plan)
        assert result.degraded
        assert not result.partial.sound_lower_bound
        assert "NOT a sound lower bound" in result.partial.describe()

    def test_failure_report_is_structured(self):
        mediator = build_federation(partial_options(attempts=2))
        result = mediator.executor.execute(union_plan())
        (failure,) = result.partial.failures
        assert failure.wrapper == "oo7"
        assert failure.reason == "unavailable"
        assert failure.attempts == 2
        assert not failure.bindjoin_probe
        payload = result.partial.to_dict()
        assert payload["missing_wrappers"] == ["oo7"]
        assert payload["failures"][0]["reason"] == "unavailable"
        json.dumps(payload)  # the report must be JSON-serializable

    def test_strict_mode_raises_instead(self):
        mediator = build_federation(
            ResilienceOptions(retry=RetryPolicy(max_attempts=1), breaker=None)
        )
        with pytest.raises(SubmitFailedError):
            mediator.executor.execute(union_plan())

    def test_bindjoin_probe_failure_prunes_the_dependent_join(self):
        mediator = build_federation(partial_options())
        outer = scan("Orders").submit_to("sales").build()
        plan = BindJoin(
            outer,
            AttributeRef("supplier"),
            "AtomicParts",
            AttributeRef("Id"),
            "oo7",
        )
        result = mediator.executor.execute(plan)
        assert result.count == 0
        assert result.degraded
        (failure,) = result.partial.failures
        assert failure.bindjoin_probe
        assert failure.node_id == plan.node_id  # reported under the BindJoin
        assert failure.collection == "AtomicParts"
        assert result.partial.pruned_joins == 1


class TestQuerySurface:
    def test_sql_query_answers_degraded(self):
        """The ISSUE's acceptance scenario: a query over one dead wrapper
        still answers, reporting what is missing."""
        mediator = build_federation(partial_options())
        result = mediator.query(
            "SELECT oid, qty FROM Orders "
            "UNION ALL SELECT Id AS oid, x AS qty FROM AtomicParts"
        )
        assert result.count == 400
        assert result.degraded
        assert result.partial.missing_wrappers == ["oo7"]

    def test_complete_answer_reports_no_partial(self):
        mediator = build_federation(partial_options(), oo7_profile=FaultProfile())
        result = mediator.query("SELECT * FROM Orders WHERE qty = 7")
        assert not result.degraded
        assert result.partial is None

    def test_explain_flags_open_breakers(self):
        mediator = build_federation(
            partial_options(breaker=BreakerPolicy(failure_threshold=1))
        )
        sql = "SELECT * FROM AtomicParts WHERE Id = 3"
        assert mediator.query(sql).degraded  # trips the oo7 breaker
        text = mediator.explain(sql)
        assert "DEGRADED: circuit breakers not closed for wrappers oo7" in text
        payload = json.loads(mediator.explain(sql, format="json"))
        assert payload["degraded"] is True
        assert payload["degraded_wrappers"] == ["oo7"]

    def test_explain_is_clean_while_breakers_are_closed(self):
        mediator = build_federation(
            partial_options(breaker=BreakerPolicy(failure_threshold=1)),
            oo7_profile=FaultProfile(),
        )
        sql = "SELECT * FROM AtomicParts WHERE Id = 3"
        mediator.query(sql)
        assert "DEGRADED" not in mediator.explain(sql)
        payload = json.loads(mediator.explain(sql, format="json"))
        assert payload["degraded"] is False


class TestMetricsSnapshot:
    def test_fault_counters_reach_the_prometheus_exposition(self):
        """The ISSUE's acceptance scenario: retry/timeout/breaker counters
        appear in the metrics snapshot."""
        mediator = build_federation(
            partial_options(breaker=BreakerPolicy(failure_threshold=2)),
            observability=True,
        )
        mediator.query("SELECT * FROM AtomicParts WHERE Id = 3")
        exposition = mediator.telemetry.metrics.expose_text()
        assert 'repro_submit_retries_total{wrapper="oo7"} 1.0' in exposition
        assert 'repro_submit_errors_total{wrapper="oo7"} 2.0' in exposition
        assert 'repro_failed_submits_total{wrapper="oo7"} 1.0' in exposition
        assert 'repro_breaker_trips_total{wrapper="oo7"} 1.0' in exposition
        assert "repro_degraded_queries_total 1.0" in exposition
        assert "repro_submit_timeouts_total" in exposition

    def test_fault_free_queries_keep_a_clean_exposition(self):
        mediator = build_federation(
            partial_options(),
            oo7_profile=FaultProfile(),
            observability=True,
        )
        mediator.query("SELECT * FROM Orders WHERE qty = 7")
        exposition = mediator.telemetry.metrics.expose_text()
        assert "repro_degraded_queries_total 0.0" in exposition
        assert "repro_failed_submits_total" in exposition  # materialized…
        assert 'repro_failed_submits_total{wrapper=' not in exposition  # …empty
