"""End-to-end telemetry acceptance tests on a federated mediator.

The ISSUE acceptance criteria, verbatim: with observability on, a
federated join query must yield (a) a span tree containing optimize /
estimate / submit / wave spans, (b) a metrics snapshot whose cache and
submit counters equal the ``QueryResult`` diagnostics, and (c) a drift
report with per-(scope, rule) aggregates; with observability off (the
default) nothing is recorded and no telemetry object exists.
"""

import json

import pytest

from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

JOIN_SQL = (
    "SELECT * FROM AtomicParts, Suppliers "
    "WHERE AtomicParts.type = Suppliers.partType "
    "AND Suppliers.city = 'city1'"
)


def build_mediator(observability=False, **executor_kw):
    mediator = Mediator(
        executor_options=ExecutorOptions(**executor_kw) if executor_kw else None,
        observability=observability,
    )
    mediator.register(build_oo7_wrapper())
    mediator.register(build_sales_wrapper())
    return mediator


@pytest.fixture
def observed():
    return build_mediator(
        observability=True,
        parallel_submits=True,
        cache_subanswers=True,
    )


class TestDisabledByDefault:
    def test_no_telemetry_objects(self):
        mediator = build_mediator()
        assert mediator.telemetry is None
        assert mediator.observability is False
        result = mediator.query(JOIN_SQL)
        assert result.trace is None

    def test_components_hold_the_null_tracer(self):
        mediator = build_mediator()
        assert not mediator.estimator.tracer.enabled
        assert not mediator.optimizer.tracer.enabled
        assert not mediator.executor.tracer.enabled
        assert not mediator.executor.scheduler.tracer.enabled

    def test_answers_identical_with_and_without_telemetry(self):
        plain = build_mediator(parallel_submits=True, cache_subanswers=True)
        result = plain.query(JOIN_SQL)
        observed = build_mediator(
            observability=True,
            parallel_submits=True,
            cache_subanswers=True,
        ).query(JOIN_SQL)
        assert observed.rows == result.rows
        # Telemetry reads the simulated clock, never charges it.
        assert observed.elapsed_ms == result.elapsed_ms


class TestSpanTree:
    def test_federated_join_produces_the_full_tree(self, observed):
        result = observed.query(JOIN_SQL)
        assert result.trace is not None
        assert result.trace.kind == "query"
        kinds = {span.kind for span in result.trace.walk()}
        assert {"query", "phase", "candidate", "estimate", "submit", "wave"} <= kinds
        submits = result.trace.find(kind="submit")
        assert {s.attributes["wrapper"] for s in submits} == {"oo7", "sales"}
        for submit in submits:
            assert submit.attributes["rows"] >= 0
            assert submit.attributes["wrapper_ms"] > 0
        wave = result.trace.find(kind="wave")[0]
        assert wave.attributes["branches"] == 2
        assert wave.attributes["saved_ms"] == pytest.approx(
            result.parallel_saved_ms
        )

    def test_execute_phase_duration_is_the_measured_total(self, observed):
        result = observed.query(JOIN_SQL)
        execute = result.trace.find(kind="phase", name="execute")[0]
        assert execute.duration_ms == pytest.approx(result.elapsed_ms)

    def test_compose_spans_count_rows(self, observed):
        result = observed.query(JOIN_SQL)
        composes = result.trace.find(kind="compose")
        assert composes, "expected a mediator-side composition span"
        root_compose = composes[0]
        assert root_compose.attributes["rows"] == result.count

    def test_cache_hits_surface_as_events(self, observed):
        observed.query(JOIN_SQL)
        second = observed.query(JOIN_SQL)
        assert second.cache_hits > 0
        hits = second.trace.find(kind="cache", name="cache.hit")
        assert len(hits) == second.cache_hits

class TestMetricsCrossCheck:
    def test_counters_equal_query_result_diagnostics(self, observed):
        first = observed.query(JOIN_SQL)
        second = observed.query(JOIN_SQL)
        metrics = observed.telemetry.metrics
        assert metrics["repro_queries_total"].total() == 2
        assert (
            metrics["repro_cache_hits_total"].total()
            == first.cache_hits + second.cache_hits
        )
        assert (
            metrics["repro_cache_misses_total"].total()
            == first.cache_misses + second.cache_misses
        )
        submit_spans = len(first.trace.find(kind="submit")) + len(
            second.trace.find(kind="submit")
        )
        assert metrics["repro_submits_total"].total() == submit_spans
        assert (
            metrics["repro_rows_returned_total"].total()
            == first.count + second.count
        )
        stats = first.optimizer_stats
        assert (
            metrics["repro_candidates_considered_total"].total()
            >= stats.candidates_considered
        )

    def test_exposition_carries_wrapper_labels(self, observed):
        observed.query(JOIN_SQL)
        text = observed.telemetry.metrics.expose_text()
        assert 'repro_submits_total{wrapper="oo7"} 1.0' in text
        assert 'repro_submits_total{wrapper="sales"} 1.0' in text

    def test_latency_histogram_observes_each_query(self, observed):
        result = observed.query(JOIN_SQL)
        histogram = observed.telemetry.metrics["repro_query_elapsed_ms"]
        assert histogram.count() == 1
        assert histogram.sum() == pytest.approx(result.elapsed_ms)


class TestDriftCrossCheck:
    def test_drift_aggregates_per_scope_and_rule(self, observed):
        observed.query(JOIN_SQL)
        drift = observed.telemetry.drift
        assert drift.observations > 0
        aggregates = drift.aggregates()
        assert aggregates
        scopes = {a.scope for a in aggregates}
        # The oo7 wrapper exports collection-scope rules; the mediator
        # fills the rest from the generic (default-scope) model.
        assert "collection" in scopes or "wrapper" in scopes
        assert "default" in scopes
        report = observed.telemetry.drift.report()
        assert "scope" in report and "mean q" in report

    def test_cached_rerun_adds_no_observations(self, observed):
        observed.query(JOIN_SQL)
        before = observed.telemetry.drift.observations
        second = observed.query(JOIN_SQL)
        assert second.cache_hits > 0 and second.cache_misses == 0
        # Cache hits never enter submit_log, so the tracker only ever
        # learns from measured executions.
        assert observed.telemetry.drift.observations == before


class TestExplain:
    def test_explain_json_format(self, observed):
        doc = json.loads(observed.explain(JOIN_SQL, format="json"))
        assert doc["estimated_total_ms"] > 0
        assert doc["candidates_considered"] >= 2
        assert doc["plan"]["operator"] == "join"
        assert "TotalTime" in doc["plan"]["values"]
        assert "provenance" in doc["plan"]
        assert "subanswer_cache_lifetime" in doc

    def test_explain_rejects_unknown_format(self, observed):
        with pytest.raises(ValueError):
            observed.explain(JOIN_SQL, format="yaml")

    def test_explain_appends_optimization_trace_when_enabled(self, observed):
        text = observed.explain(JOIN_SQL)
        assert "optimization trace:" in text
        assert "[candidate]" in text

    def test_per_wrapper_cache_stats(self, observed):
        observed.query(JOIN_SQL)
        observed.query(JOIN_SQL)
        per_wrapper = observed.executor.cache.stats_by_wrapper
        assert set(per_wrapper) == {"oo7", "sales"}
        assert all(stats.hits == 1 for stats in per_wrapper.values())


class TestExecutePlanTelemetry:
    def test_hand_built_plan_is_traced_too(self, observed):
        from repro.algebra.builders import scan

        plan = scan("AtomicParts").submit_to("oo7").build()
        result = observed.execute_plan(plan)
        assert result.trace is not None
        assert result.trace.attributes.get("entry") == "execute_plan"
        assert result.trace.find(kind="submit")
