"""QueryProfile: per-operator cost attribution for one executed query.

The ISSUE acceptance criteria, verbatim: a profiled scatter query over
>= 2 shards yields a QueryProfile whose per-operator rows sum (within
rounding) to the simulated TotalTime, whose blame ranking names the
worst (scope, rule) q-error; with observability disabled the results
are byte-identical and no profile exists.
"""

import pytest

from repro.bench.sharding import build_sharded_federation
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import ResilienceOptions
from repro.obs.profile import QueryProfile, build_query_profile
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SCATTER_SQL = "SELECT * FROM Orders WHERE qty > 70"
LOOKUP_SQL = "SELECT * FROM Orders WHERE oid = 11"
JOIN_SQL = (
    "SELECT * FROM AtomicParts, Suppliers "
    "WHERE AtomicParts.type = Suppliers.partType "
    "AND Suppliers.city = 'city1'"
)


def sharded(shards=3, observability=True):
    return build_sharded_federation(shards, 300, observability=observability)


def join_mediator(observability=False, **executor_kw):
    mediator = Mediator(
        executor_options=ExecutorOptions(**executor_kw) if executor_kw else None,
        observability=observability,
    )
    mediator.register(build_oo7_wrapper())
    mediator.register(build_sales_wrapper())
    return mediator


class TestAttributionInvariant:
    def test_scatter_rows_sum_to_simulated_total(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        assert profile.attributed_ms == pytest.approx(result.elapsed_ms)
        assert profile.elapsed_ms == result.elapsed_ms

    def test_two_shard_scatter_also_telescopes(self):
        result = sharded(shards=2).query(SCATTER_SQL)
        assert result.profile.attributed_ms == pytest.approx(result.elapsed_ms)

    def test_sequential_federated_join_telescopes(self):
        result = join_mediator(
            observability=True
        ).query(JOIN_SQL)
        assert result.profile.attributed_ms == pytest.approx(result.elapsed_ms)

    def test_parallel_wave_join_telescopes(self):
        result = join_mediator(
            observability=True,
            parallel_submits=True,
        ).query(JOIN_SQL)
        assert result.profile.attributed_ms == pytest.approx(result.elapsed_ms)


class TestShardAttribution:
    def test_every_shard_gets_a_summary_row(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        shards = result.profile.shards
        assert [s["shard"] for s in shards] == [0, 1, 2]
        assert [s["wrapper"] for s in shards] == ["node0", "node1", "node2"]
        assert all(s["collection"] == "Orders" for s in shards)
        assert all(s["submits"] == 1 for s in shards)
        assert all(s["wrapper_ms"] > 0 for s in shards)

    def test_submit_rows_carry_shard_identity_and_wave(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        submits = [r for r in result.profile.operators if r.kind == "submit"]
        assert {r.shard for r in submits} == {0, 1, 2}
        assert {r.shard_of for r in submits} == {"Orders"}
        assert all(r.wave == 1 for r in submits)

    def test_pruned_lookup_touches_one_shard(self):
        result = sharded(shards=3).query(LOOKUP_SQL)
        submits = [r for r in result.profile.operators if r.kind == "submit"]
        assert len(submits) == 1
        assert submits[0].shard == 11 % 3


class TestEstimateJoin:
    def test_submit_rows_join_their_estimates(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        submits = [r for r in result.profile.operators if r.kind == "submit"]
        for row in submits:
            assert row.estimated_ms is not None and row.estimated_ms > 0
            assert row.estimated_rows is not None
            assert row.q_time is not None and row.q_time >= 1.0
            assert row.q_rows is not None and row.q_rows >= 1.0
            assert "TotalTime" in row.provenance

    def test_blame_ranking_names_the_worst_rule(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        profile = result.profile
        assert profile.blame, "expected blame entries"
        worst = profile.worst_blame("TotalTime")
        assert worst is not None
        assert worst["scope"] and worst["rule"]
        time_entries = [b for b in profile.blame if b["variable"] == "TotalTime"]
        assert worst["max_q_error"] == max(b["max_q_error"] for b in time_entries)
        # The blame ranking is this query's own drift slice: the worst
        # rule's q-error matches a submit row's measured q-error.
        submit_qs = {
            round(r.q_time, 9)
            for r in profile.operators
            if r.kind == "submit" and r.q_time is not None
        }
        assert round(worst["max_q_error"], 9) in submit_qs

    def test_whole_query_q_total(self):
        result = sharded(shards=3).query(SCATTER_SQL)
        assert result.profile.q_total >= 1.0


class TestExportRoundTrip:
    def test_render_mentions_the_key_figures(self):
        result = sharded(shards=2).query(SCATTER_SQL)
        text = result.profile.render()
        assert "QueryProfile" in text
        assert "blame ranking" in text
        assert "shards:" in text
        assert "waves:" in text
        assert f"{result.elapsed_ms:.1f}" in text


class TestDisabledPaths:
    def test_observability_off_records_nothing(self):
        result = sharded(observability=False).query(SCATTER_SQL)
        assert result.profile is None
        assert result.trace is None

    def test_build_returns_none_without_a_trace(self):
        result = sharded(observability=False).query(SCATTER_SQL)
        assert build_query_profile(result, object()) is None

    def test_profiling_never_perturbs_the_simulated_clock(self):
        # The E9 invariant extended to the profile path: rows and every
        # simulated measurement are identical with profiling on or off.
        plain = sharded(observability=False).query(SCATTER_SQL)
        profiled = sharded().query(SCATTER_SQL)
        assert profiled.rows == plain.rows
        assert profiled.elapsed_ms == plain.elapsed_ms
        assert profiled.time_first_ms == plain.time_first_ms


class TestMetricsSatellites:
    def test_per_shard_submit_counter(self):
        mediator = sharded(shards=3)
        mediator.query(SCATTER_SQL)
        counter = mediator.telemetry.metrics["repro_shard_submits_total"]
        for index in range(3):
            assert counter.value(wrapper=f"node{index}", shard=str(index)) == 1
        mediator.query(LOOKUP_SQL)  # prunes to shard 2
        assert counter.value(wrapper="node2", shard="2") == 2
        assert counter.value(wrapper="node0", shard="0") == 1

    def test_breaker_state_gauge_is_one_hot(self):
        mediator = join_mediator(
            observability=True,
            resilience=ResilienceOptions(),
        )
        mediator.query(JOIN_SQL)
        gauge = mediator.telemetry.metrics["repro_breaker_state"]
        for wrapper in ("oo7", "sales"):
            assert gauge.value(wrapper=wrapper, state="closed") == 1.0
            assert gauge.value(wrapper=wrapper, state="half_open") == 0.0
            assert gauge.value(wrapper=wrapper, state="open") == 0.0

    def test_no_breaker_gauge_without_resilience(self):
        mediator = join_mediator(observability=True)
        mediator.query(JOIN_SQL)
        assert "repro_breaker_state" not in mediator.telemetry.metrics


class TestServiceTimeline:
    def test_profile_timeline_carries_admission_events(self):
        from repro.service.service import FederationService

        mediator = join_mediator(observability=True)
        service = FederationService(mediator)
        session = service.open_session("analytics")
        result = service.query(session, JOIN_SQL)
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        events = [entry["event"] for entry in profile.timeline]
        assert events == ["submit", "start", "finish"]
        assert all(e["tenant"] == "analytics" for e in profile.timeline)
        finish = profile.timeline[-1]
        assert finish["at_ms"] >= profile.timeline[0]["at_ms"]
        assert "timeline:" in profile.render()

    def test_queued_query_records_a_queue_event(self):
        from repro.service.service import FederationService, ServiceOptions

        mediator = join_mediator(observability=True)
        service = FederationService(
            mediator, ServiceOptions(max_concurrent_queries=1)
        )
        session = service.open_session("analytics")
        first = service.submit(session, JOIN_SQL)
        second = service.submit(session, JOIN_SQL)
        service.run()
        assert first.status == "done" and second.status == "done"
        events = [entry["event"] for entry in second.result.profile.timeline]
        assert events == ["submit", "queue", "start", "finish"]

    def test_task_spans_stay_on_the_task_and_submit_spans_on_the_mediator(self):
        from repro.service.service import FederationService

        mediator = join_mediator(
            observability=True, parallel_submits=True
        )
        service = FederationService(mediator)
        result = service.query(service.open_session("analytics"), JOIN_SQL)
        # The task's executor shares the mediator's scheduler; installing
        # the task tracer must not take that scheduler's tracer over.
        shared = mediator.telemetry.tracer
        assert mediator.executor.scheduler.tracer is shared
        root = result.trace
        assert (root.name, [child.name for child in root.children]) == (
            "query",
            ["execute"],
        )
        assert root.end_ms is not None and root.children[0].end_ms is not None
        assert root.find(kind="compose")
        assert not root.find(kind="submit") and not root.find(kind="wave")
        assert any(span.find(kind="wave") for span in shared.roots)
        assert any(span.find(kind="submit") for span in shared.roots)
