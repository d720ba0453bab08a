"""Replicated sources: catalog replica sets, cost-based selection,
mid-query failover, and hedged submits."""

import pytest

from repro.algebra.builders import scan
from repro.algebra.logical import Submit, clone_plan
from repro.errors import (
    RegistrationError,
    SubmitFailedError,
    UnknownCollectionError,
)
from repro.mediator.calibration import CoefficientKey
from repro.mediator.executor import ExecutorOptions
from repro.mediator.mediator import Mediator
from repro.mediator.resilience import (
    BreakerPolicy,
    HedgePolicy,
    ReplicaStats,
    ResilienceOptions,
    RetryPolicy,
)
from repro.sources.relationaldb import RelationalDatabase
from repro.wrappers import RelationalWrapper
from repro.wrappers.faults import FaultInjector, FaultProfile

NO_BACKOFF = RetryPolicy(max_attempts=2, backoff_base_ms=0.0)


def sales_wrapper(name="sales", rows=50):
    db = RelationalDatabase()
    db.create_table(
        "Suppliers",
        [
            {"sid": i, "partType": f"type{i % 10:03d}", "city": f"city{i % 5}"}
            for i in range(rows)
        ],
        row_size=40,
        indexed_columns=["sid"],
    )
    return RelationalWrapper(name, db)


def files_wrapper(name="files"):
    db = RelationalDatabase()
    db.create_table(
        "AuditLog",
        [{"entry": i, "severity": i % 3} for i in range(30)],
        row_size=16,
    )
    return RelationalWrapper(name, db)


def build_replicated(
    resilience=None,
    primary_profile=None,
    replica_profile=None,
    observability=False,
):
    """A sales wrapper with one replica, both behind fault injectors."""
    mediator = Mediator(
        executor_options=ExecutorOptions(resilience=resilience),
        observability=observability,
    )
    primary = FaultInjector(
        sales_wrapper("sales"), primary_profile or FaultProfile()
    )
    replica = FaultInjector(
        sales_wrapper("sales_b"), replica_profile or FaultProfile()
    )
    mediator.register(primary)
    mediator.register_replica(replica, of="sales")
    return mediator, primary, replica


def suppliers_plan():
    return scan("Suppliers").submit_to("sales").build()


def bound_submits(result):
    return [
        node for node in result.plan.walk() if isinstance(node, Submit)
    ]


class TestCatalogReplicaSets:
    def test_members_are_primary_first_and_resolve_from_any_member(self):
        mediator, _, _ = build_replicated()
        catalog = mediator.catalog
        assert catalog.has_replicas()
        assert catalog.replica_members("sales") == ("sales", "sales_b")
        assert catalog.replica_members("sales_b") == ("sales", "sales_b")
        assert catalog.replica_primary("sales_b") == "sales"
        assert catalog.replicas_of("sales") == ("sales_b",)
        # Unreplicated wrappers are their own 1-member set.
        assert catalog.replica_members("nowhere") == ("nowhere",)

    def test_registration_bumps_catalog_version(self):
        mediator = Mediator()
        mediator.register(sales_wrapper("sales"))
        before = mediator.catalog.version
        mediator.register_replica(sales_wrapper("sales_b"), of="sales")
        assert mediator.catalog.version > before

    def test_replica_must_serve_primary_collections(self):
        mediator = Mediator()
        mediator.register(sales_wrapper("sales"))
        with pytest.raises(RegistrationError, match="Suppliers"):
            mediator.register_replica(files_wrapper("sales_b"), of="sales")

    def test_replica_of_unknown_primary_rejected(self):
        mediator = Mediator()
        with pytest.raises(UnknownCollectionError):
            mediator.register_replica(sales_wrapper("sales_b"), of="sales")

    def test_replica_name_collision_rejected(self):
        mediator, _, _ = build_replicated()
        with pytest.raises(RegistrationError, match="already registered"):
            mediator.register_replica(sales_wrapper("sales_b"), of="sales")

    def test_nested_and_double_membership_rejected(self):
        mediator, _, _ = build_replicated()
        mediator.register(files_wrapper("files"))
        # A replica cannot itself be replicated...
        with pytest.raises(UnknownCollectionError):
            mediator.catalog.add_replica("sales_b", "files")
        # ...and a member cannot join a second set.
        with pytest.raises(UnknownCollectionError):
            mediator.catalog.add_replica("files", "sales_b")

    def test_removing_replica_shrinks_set_removing_primary_dissolves_it(self):
        mediator, _, _ = build_replicated()
        catalog = mediator.catalog
        catalog.remove_wrapper("sales_b")
        assert not catalog.has_replicas()
        assert catalog.replica_members("sales") == ("sales",)

        mediator2, _, _ = build_replicated()
        mediator2.catalog.remove_wrapper("sales")
        assert not mediator2.catalog.has_replicas()
        assert mediator2.catalog.replica_members("sales_b") == ("sales_b",)

    def test_describe_lists_replica_sets(self):
        mediator, _, _ = build_replicated()
        assert "sales_b" in mediator.catalog.describe()


class TestCostBasedSelection:
    def test_tie_keeps_primary(self):
        mediator, _, _ = build_replicated()
        result = mediator.plan("SELECT sid FROM Suppliers WHERE sid < 5")
        assert [s.wrapper for s in bound_submits(result)] == ["sales"]

    def test_cheaper_replica_wins_and_is_tagged_in_provenance(self):
        mediator, _, _ = build_replicated()
        # Calibration makes the replica's predictions half the primary's.
        mediator.apply_calibration(
            {CoefficientKey("sales_b", None, "TotalTime"): 0.5}
        )
        result = mediator.plan("SELECT sid FROM Suppliers WHERE sid < 5")
        submits = bound_submits(result)
        assert [s.wrapper for s in submits] == ["sales_b"]
        provenance = result.estimate.nodes[submits[0].node_id].provenance
        assert provenance["TotalTime"].endswith("| replica sales_b")

    def test_health_view_excludes_open_breaker_members(self):
        mediator, _, _ = build_replicated()
        mediator.apply_calibration(
            {CoefficientKey("sales_b", None, "TotalTime"): 0.5}
        )
        mediator.optimizer.health_view = lambda: ["sales_b"]
        result = mediator.plan("SELECT sid FROM Suppliers WHERE sid < 5")
        assert [s.wrapper for s in bound_submits(result)] == ["sales"]

    def test_all_members_down_falls_back_to_full_set(self):
        mediator, _, _ = build_replicated()
        mediator.optimizer.health_view = lambda: ["sales", "sales_b"]
        result = mediator.plan("SELECT sid FROM Suppliers WHERE sid < 5")
        # Costing proceeds over every member; runtime failover decides.
        assert [s.wrapper for s in bound_submits(result)] == ["sales"]

    def test_unreplicated_sources_keep_untagged_provenance(self):
        mediator, _, _ = build_replicated()
        mediator.register(files_wrapper("files"))
        result = mediator.plan("SELECT * FROM AuditLog")
        submits = bound_submits(result)
        provenance = result.estimate.nodes[submits[0].node_id].provenance
        assert "| replica" not in provenance.get("TotalTime", "")

    def test_rank_replicas_orders_cheapest_first(self):
        mediator, _, _ = build_replicated()
        mediator.apply_calibration(
            {CoefficientKey("sales_b", None, "TotalTime"): 0.5}
        )
        submit = suppliers_plan()
        assert isinstance(submit, Submit)
        ranked = mediator.optimizer.rank_replicas(
            submit, ("sales", "sales_b")
        )
        assert ranked == ["sales_b", "sales"]

    def test_executed_answer_matches_unreplicated_answer(self):
        mediator, _, _ = build_replicated()
        mediator.apply_calibration(
            {CoefficientKey("sales_b", None, "TotalTime"): 0.5}
        )
        plain = Mediator()
        plain.register(sales_wrapper("sales"))
        sql = "SELECT sid FROM Suppliers WHERE sid < 20"
        assert mediator.query(sql).rows == plain.query(sql).rows


class TestCloneplan:
    def test_clone_has_fresh_node_ids_and_equal_shape(self):
        plan = (
            scan("Suppliers").where_eq("sid", 3).submit_to("sales").build()
        )
        clone = clone_plan(plan)
        assert clone.describe() == plan.describe()
        original_ids = {node.node_id for node in plan.walk()}
        clone_ids = {node.node_id for node in clone.walk()}
        assert not original_ids & clone_ids


class TestFailover:
    def breaker_resilience(self, mode="strict", hedge=None):
        return ResilienceOptions(
            retry=NO_BACKOFF,
            breaker=BreakerPolicy(failure_threshold=2, cooldown_ms=1e9),
            mode=mode,
            hedge=hedge,
        )

    def test_dead_primary_fails_over_to_replica(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        scheduler = mediator.executor.scheduler
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert not outcome.failed
        assert outcome.submit.wrapper == "sales_b"
        assert outcome.result.count == 50
        assert outcome.result.fault_tainted
        assert scheduler.replica_stats.failovers == {"sales_b": 1}
        assert scheduler.replica_stats.selected == {"sales_b": 1}

    def test_rescued_submit_shares_the_planned_child_node(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        submit = suppliers_plan()
        outcome = mediator.executor.scheduler.dispatch_one(submit)
        # Drift/profile joins key on the planned child's node id.
        assert outcome.submit.child is submit.child

    def test_attempt_chain_spans_both_members(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        outcome = mediator.executor.scheduler.dispatch_one(suppliers_plan())
        # 2 failed primary attempts + 1 successful replica attempt.
        assert outcome.attempts == 3

    def test_open_breaker_fast_fail_fails_over_immediately(self):
        mediator, primary, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        scheduler = mediator.executor.scheduler
        scheduler.dispatch_one(suppliers_plan())  # trips the primary
        executions_before = primary.log.executions
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert not outcome.failed
        assert outcome.submit.wrapper == "sales_b"
        # The open breaker spared the primary any further attempts.
        assert primary.log.executions == executions_before

    def test_exhausted_set_reports_replicas_tried_strict(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(mode="strict"),
            primary_profile=FaultProfile(unavailable=True),
            replica_profile=FaultProfile(unavailable=True),
        )
        with pytest.raises(SubmitFailedError) as exc:
            mediator.executor.execute(suppliers_plan())
        failure = exc.value.failure
        assert failure.wrapper == "sales"
        assert failure.replicas_tried == ("sales", "sales_b")
        assert failure.attempts == 4  # two attempts per member

    def test_exhausted_set_degrades_partial_answer_with_chain(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(mode="partial"),
            primary_profile=FaultProfile(unavailable=True),
            replica_profile=FaultProfile(unavailable=True),
        )
        result = mediator.query("SELECT sid FROM Suppliers")
        assert result.degraded
        assert result.partial.failures[0].replicas_tried == (
            "sales",
            "sales_b",
        )

    def test_failed_submit_keeps_plan_node_identity(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(mode="partial"),
            primary_profile=FaultProfile(unavailable=True),
            replica_profile=FaultProfile(unavailable=True),
        )
        submit = suppliers_plan()
        outcome = mediator.executor.scheduler.dispatch_one(submit)
        assert outcome.failed
        assert outcome.failure.node_id == submit.node_id

    def test_submit_log_records_the_serving_wrapper(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        execution = mediator.executor.execute(suppliers_plan())
        assert [s.wrapper for s, _ in execution.submit_log] == ["sales_b"]
        assert execution.submit_log[0][1].fault_tainted

    def test_execution_carries_replication_delta(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        execution = mediator.executor.execute(suppliers_plan())
        assert execution.replication is not None
        assert execution.replication.failovers == {"sales_b": 1}
        # Deltas are per-execution: the second rescue (breaker fast-fail
        # into failover) reports 1 again, not the cumulative 2.
        second = mediator.executor.execute(suppliers_plan())
        assert second.replication.failovers == {"sales_b": 1}
        stats = mediator.executor.scheduler.replica_stats
        assert stats.failovers == {"sales_b": 2}

    def test_no_replicas_means_no_replication_delta(self):
        mediator = Mediator(
            executor_options=ExecutorOptions(
                resilience=self.breaker_resilience()
            )
        )
        mediator.register(sales_wrapper("sales"))
        execution = mediator.executor.execute(suppliers_plan())
        assert execution.replication is None

    def test_wave_dispatch_fails_over_too(self):
        mediator, _, _ = build_replicated(
            resilience=self.breaker_resilience(),
            primary_profile=FaultProfile(unavailable=True),
        )
        outcomes = mediator.executor.scheduler.dispatch_wave(
            [suppliers_plan(), suppliers_plan()]
        )
        assert [o.submit.wrapper for o in outcomes] == ["sales_b", "sales_b"]
        assert all(not o.failed for o in outcomes)


class TestHedgedSubmits:
    def hedge_resilience(self, delay_ms=50.0, **kwargs):
        return ResilienceOptions(
            retry=NO_BACKOFF,
            breaker=None,
            hedge=HedgePolicy(delay_ms=delay_ms, **kwargs),
        )

    def straggler(self):
        return FaultProfile(latency_multiplier=20.0, latency_probability=1.0)

    def test_backup_wins_and_only_winner_time_is_charged(self):
        raw_wait = sales_wrapper().execute(scan("Suppliers").build()).total_time_ms
        delay = 50.0
        mediator, _, _ = build_replicated(
            resilience=self.hedge_resilience(delay_ms=delay),
            primary_profile=self.straggler(),
        )
        scheduler = mediator.executor.scheduler
        clock = mediator.executor.clock
        before = clock.now_ms
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.submit.wrapper == "sales_b"
        assert outcome.result.count == 50
        assert outcome.result.fault_tainted
        stats = scheduler.replica_stats
        assert stats.hedges_launched == {"sales_b": 1}
        assert stats.hedges_won == {"sales_b": 1}
        # Wrapper-side charge is threshold + backup wait, not the
        # straggling primary's 20x wait; the loser's remainder lands in
        # hedge_cancelled_ms only.
        straggle_wait = 20.0 * raw_wait
        winner_wait = delay + raw_wait
        assert stats.hedge_cancelled_ms == pytest.approx(
            straggle_wait - winner_wait
        )
        elapsed = clock.now_ms - before
        assert elapsed < straggle_wait

    def test_fast_primary_never_hedges(self):
        mediator, _, replica = build_replicated(
            resilience=self.hedge_resilience(delay_ms=1e6)
        )
        scheduler = mediator.executor.scheduler
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.submit.wrapper == "sales"
        stats = scheduler.replica_stats
        assert stats.selected == {"sales": 1}
        assert stats.hedges_launched == {}
        assert replica.log.executions == 0

    def test_primary_wins_when_backup_is_slower(self):
        # Both members straggle: the hedge fires but cannot win, so the
        # primary's full wait is charged and the backup work cancelled.
        mediator, _, _ = build_replicated(
            resilience=self.hedge_resilience(delay_ms=50.0),
            primary_profile=self.straggler(),
            replica_profile=self.straggler(),
        )
        scheduler = mediator.executor.scheduler
        outcome = scheduler.dispatch_one(suppliers_plan())
        assert outcome.submit.wrapper == "sales"
        stats = scheduler.replica_stats
        assert stats.hedges_launched == {"sales_b": 1}
        assert stats.hedges_won == {}
        assert stats.hedge_cancelled_ms > 0

    def test_hedge_needs_a_healthy_replica(self):
        mediator, _, replica = build_replicated(
            resilience=ResilienceOptions(
                retry=NO_BACKOFF,
                breaker=BreakerPolicy(failure_threshold=1, cooldown_ms=1e9),
                hedge=HedgePolicy(delay_ms=50.0),
            ),
            primary_profile=self.straggler(),
            replica_profile=FaultProfile(unavailable=True),
        )
        scheduler = mediator.executor.scheduler
        # Trip the replica's breaker first (failover attempt fails).
        dead = FaultProfile(unavailable=True)
        replica.set_profile(dead)
        scheduler.dispatch_one(
            scan("Suppliers").where_eq("sid", 1).submit_to("sales_b").build()
        )
        assert scheduler.breakers["sales_b"].state != "closed"
        executions_before = replica.log.executions
        outcome = scheduler.dispatch_one(suppliers_plan())
        # No healthy candidate: the straggling primary answers unhedged.
        assert outcome.submit.wrapper == "sales"
        assert replica.log.executions == executions_before
        assert scheduler.replica_stats.hedges_launched == {}

    def test_percentile_mode_learns_the_trigger(self):
        policy = HedgePolicy(
            mode="percentile",
            delay_ms=1e9,
            percentile=90.0,
            min_samples=4,
            window=16,
        )
        # Below min_samples: the fixed fallback.
        assert policy.threshold_ms([10.0, 20.0]) == 1e9
        history = [10.0, 20.0, 30.0, 40.0, 1_000.0]
        assert policy.threshold_ms(history) == 1_000.0
        assert HedgePolicy(
            mode="percentile", percentile=50.0, min_samples=4
        ).threshold_ms(history) == 30.0

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(mode="adaptive")
        with pytest.raises(ValueError):
            HedgePolicy(delay_ms=-1.0)
        with pytest.raises(ValueError):
            HedgePolicy(percentile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=10, window=5)


class TestReplicaStats:
    def test_totals(self):
        stats = ReplicaStats(
            failovers={"a": 2}, hedges_launched={"b": 1}, hedges_won={"b": 1}
        )
        assert stats.total("failovers") == 2
        assert stats.total("hedges_launched") == 1
        assert stats.total("hedges_won") == 1


class TestReplicationTelemetry:
    def test_metrics_count_selection_failover_and_hedges(self):
        mediator, _, _ = build_replicated(
            resilience=ResilienceOptions(
                retry=NO_BACKOFF,
                breaker=BreakerPolicy(failure_threshold=2, cooldown_ms=1e9),
                mode="partial",
            ),
            primary_profile=FaultProfile(unavailable=True),
            observability=True,
        )
        mediator.query("SELECT sid FROM Suppliers")
        rendered = mediator.telemetry.metrics.expose_text()
        assert 'repro_replica_selected_total{wrapper="sales_b"} 1' in rendered
        assert 'repro_failover_total{wrapper="sales_b"} 1' in rendered

    def test_profile_carries_replication_rows_and_span_events(self):
        mediator, _, _ = build_replicated(
            resilience=ResilienceOptions(
                retry=NO_BACKOFF,
                breaker=BreakerPolicy(failure_threshold=2, cooldown_ms=1e9),
                mode="partial",
            ),
            primary_profile=FaultProfile(unavailable=True),
            observability=True,
        )
        result = mediator.query("SELECT sid FROM Suppliers")
        assert result.profile is not None
        rows = {r["wrapper"]: r for r in result.profile.replication}
        assert rows["sales_b"]["failovers"] == 1
        rendered = result.trace.render()
        assert "failover.rescued" in rendered
        assert result.profile.replication

    def test_hedge_metrics_render(self):
        mediator, _, _ = build_replicated(
            resilience=ResilienceOptions(
                retry=NO_BACKOFF,
                breaker=None,
                hedge=HedgePolicy(delay_ms=50.0),
            ),
            primary_profile=FaultProfile(
                latency_multiplier=20.0, latency_probability=1.0
            ),
            observability=True,
        )
        mediator.query("SELECT sid FROM Suppliers")
        rendered = mediator.telemetry.metrics.expose_text()
        assert 'repro_hedge_launched_total{wrapper="sales_b"} 1' in rendered
        assert 'repro_hedge_won_total{wrapper="sales_b"} 1' in rendered
        assert "repro_hedge_cancelled_ms_total" in rendered
