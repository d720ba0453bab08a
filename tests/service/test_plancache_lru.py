"""Regression: the plan cache evicts LRU, not FIFO, and never leaves
dangling SQL-text entries.

Seed behavior evicted ``next(iter(self._plans))`` — insertion order — so
a hot plan re-used on every query was the victim as soon as it was the
oldest insertion.  ``lookup`` now refreshes recency in both maps, and
evicting a plan (capacity or stale version) drops the SQL texts that
resolve to it (a dangling fingerprint guaranteed a double miss: the
parse was skipped only to miss the plan map).
Calibration rides on the same version guard: applying or rolling back a
calibration overlay bumps the catalog version, so every cached plan —
costed under the previous coefficient set — is stale on its next lookup.
The :class:`TestCalibrationVersioning` battery pins that contract
end-to-end through a real mediator.
"""

from repro.mediator.calibration import CoefficientKey
from repro.mediator.mediator import Mediator
from repro.service.plancache import PlanCache
from repro.service.service import FederationService, ServiceOptions
from tests.federation_fixtures import build_sales_wrapper

V = 1


def plan(tag: str) -> object:
    return ("optimized", tag)


class TestLruEviction:
    def test_hot_entry_survives_capacity_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.store("hot", V, plan("hot"))
        cache.store("cold", V, plan("cold"))
        # Touch the older entry: it becomes most recently used.
        assert cache.lookup("hot", V) == plan("hot")
        cache.store("new", V, plan("new"))
        assert cache.lookup("hot", V) == plan("hot")
        assert cache.lookup("cold", V) is None  # the true LRU was evicted

    def test_seed_fifo_behavior_would_evict_the_hot_plan(self):
        # The exact scenario from the issue: a plan re-used every query
        # must never be the victim, however old its insertion.
        cache = PlanCache(max_entries=3)
        cache.store("hot", V, plan("hot"))
        for generation in range(10):
            fingerprint = f"cold{generation}"
            cache.store(fingerprint, V, plan(fingerprint))
            assert cache.lookup("hot", V) == plan("hot")

    def test_sql_map_hits_refresh_recency(self):
        cache = PlanCache(max_entries=2)
        cache.remember_sql("SELECT 1", "f1", V)
        cache.remember_sql("SELECT 2", "f2", V)
        assert cache.fingerprint_for_sql("SELECT 1", V) == "f1"
        cache.remember_sql("SELECT 3", "f3", V)
        assert cache.fingerprint_for_sql("SELECT 1", V) == "f1"
        assert cache.fingerprint_for_sql("SELECT 2", V) is None


class TestDanglingSqlEntries:
    def test_capacity_eviction_drops_sql_texts_of_the_victim(self):
        cache = PlanCache(max_entries=1)
        cache.store("f1", V, plan("one"))
        cache.remember_sql("SELECT 1", "f1", V)
        cache.remember_sql("SELECT 1 -- same spec", "f1", V)
        cache.store("f2", V, plan("two"))  # evicts f1
        # Both texts resolving to the evicted fingerprint are gone: the
        # next query re-parses and re-stores instead of double-missing.
        assert cache.fingerprint_for_sql("SELECT 1", V) is None
        assert cache.fingerprint_for_sql("SELECT 1 -- same spec", V) is None
        assert cache.lookup("f2", V) == plan("two")

    def test_stale_version_eviction_drops_sql_texts_too(self):
        cache = PlanCache(max_entries=8)
        cache.store("f1", V, plan("one"))
        cache.remember_sql("SELECT 1", "f1", V)
        assert cache.lookup("f1", V + 1) is None  # catalog changed
        assert cache.stats.invalidations == 1
        dangling = cache.fingerprint_for_sql("SELECT 1", V)
        assert dangling is None

    def test_unrelated_sql_entries_survive_eviction(self):
        cache = PlanCache(max_entries=1)
        cache.store("f1", V, plan("one"))
        cache.remember_sql("SELECT 1", "f1", V)
        cache.store("f2", V, plan("two"))
        cache.remember_sql("SELECT 2", "f2", V)
        assert cache.fingerprint_for_sql("SELECT 2", V) == "f2"
        assert cache.lookup("f2", V) == plan("two")


KEY = CoefficientKey("sales", "TotalTime")
SQL = "SELECT * FROM Orders WHERE qty > 70"


class TestCalibrationVersioning:
    """Overlay apply/rollback × catalog version × plan-cache eviction."""

    def build(self):
        mediator = Mediator()
        mediator.register(build_sales_wrapper())
        return mediator, FederationService(mediator, ServiceOptions())

    def test_unit_version_bump_invalidates_cached_plan(self):
        cache = PlanCache(max_entries=8)
        cache.store("f1", V, plan("one"))
        assert cache.lookup("f1", V) == plan("one")
        # What apply_calibration does to the catalog, seen by the cache.
        assert cache.lookup("f1", V + 1) is None
        assert cache.stats.invalidations == 1

    def test_rollback_restores_exact_coefficients_and_bumps_version(self):
        mediator, _ = self.build()
        state = mediator.catalog.calibration
        mediator.apply_calibration({KEY: 2.0}, note="v1")
        mediator.apply_calibration({KEY: 3.0}, note="v2")
        mediator.apply_calibration(
            {CoefficientKey("sales", "CountObject"): 0.5}, note="v3"
        )
        version_before = mediator.catalog.version
        snapshot_v2 = dict(state.versions[2].multipliers)
        mediator.rollback_calibration(2)
        assert state.active_version == 2
        assert dict(state.active.multipliers) == snapshot_v2
        assert mediator.catalog.version == version_before + 1
        assert len(state) == 4  # history intact: rollback deletes nothing

    def test_overlay_churn_evicts_dependent_cache_entries(self):
        mediator, service = self.build()
        session = service.open_session("t0")
        service.query(session, SQL)  # populates the plan cache
        hits_before = service.plan_cache.stats.hits
        service.query(session, SQL)
        assert service.plan_cache.stats.hits == hits_before + 1

        for version_note, multiplier in (("v1", 2.0), ("v2", 3.0)):
            mediator.apply_calibration({KEY: multiplier}, note=version_note)
        invalidations = service.plan_cache.stats.invalidations
        service.query(session, SQL)  # stale under the new version
        assert service.plan_cache.stats.invalidations == invalidations + 1

        mediator.rollback_calibration(0)
        invalidations = service.plan_cache.stats.invalidations
        service.query(session, SQL)  # stale again after rollback
        assert service.plan_cache.stats.invalidations == invalidations + 1

    def test_rollback_to_identity_restores_seed_estimates(self):
        mediator, service = self.build()
        session = service.open_session("t0")
        seed = service.query(session, SQL).estimated_ms
        mediator.apply_calibration({KEY: 4.0})
        scaled = service.query(session, SQL).estimated_ms
        assert scaled > seed
        mediator.rollback_calibration(0)
        assert service.query(session, SQL).estimated_ms == seed
