"""Sessions, prepared statements, and plan resolution through the cache."""

import pytest

from repro.errors import SessionError, UnknownPreparedStatementError
from repro.mediator.mediator import Mediator
from repro.service import FederationService, PlanCache, SessionManager
from repro.service.session import PreparedStatement
from tests.federation_fixtures import build_oo7_wrapper, build_sales_wrapper

SQL = "SELECT sid FROM Suppliers WHERE city = 'city1'"


@pytest.fixture
def mediator():
    mediator = Mediator()
    mediator.register(build_sales_wrapper())
    mediator.register(build_oo7_wrapper())
    return mediator


@pytest.fixture
def manager(mediator):
    return SessionManager(mediator, PlanCache())


class TestSessions:
    def test_open_and_close(self, manager):
        session = manager.open_session("alice")
        assert session.tenant == "alice"
        assert not session.closed
        manager.close_session(session)
        assert session.closed
        with pytest.raises(SessionError):
            session.resolve(SQL)

    def test_session_ids_unique_per_manager(self, manager):
        first = manager.open_session("alice")
        second = manager.open_session("alice")
        assert first.session_id != second.session_id

    def test_explicit_duplicate_id_rejected(self, manager):
        manager.open_session("alice", session_id="s1")
        with pytest.raises(SessionError):
            manager.open_session("bob", session_id="s1")

    def test_closed_id_can_be_reused(self, manager):
        session = manager.open_session("alice", session_id="s1")
        manager.close_session(session)
        reopened = manager.open_session("alice", session_id="s1")
        assert reopened is not session

    def test_service_close_frees_the_id_and_records_an_event(self):
        mediator = Mediator(observability=True)
        mediator.register(build_sales_wrapper())
        service = FederationService(mediator)
        session = service.open_session("alice", session_id="s1")
        service.close_session(session)
        assert session.closed
        assert "s1" not in service.sessions.sessions
        reopened = service.open_session("alice", session_id="s1")
        assert reopened is not session and not reopened.closed
        closes = [
            (span.attributes["tenant"], span.attributes["session"])
            for span in mediator.telemetry.tracer.roots
            if span.name == "session.close"
        ]
        assert closes == [("alice", "s1")]


class TestPreparedStatements:
    def test_prepare_parses_once_and_names(self, manager):
        session = manager.open_session("alice")
        statement = session.prepare(SQL)
        assert isinstance(statement, PreparedStatement)
        assert statement.sql == SQL
        assert statement.fingerprint
        assert session.statement(statement.handle) is statement

    def test_unknown_handle_raises(self, manager):
        session = manager.open_session("alice")
        with pytest.raises(UnknownPreparedStatementError):
            session.statement("nope")

    def test_execute_via_service(self, mediator):
        service = FederationService(mediator)
        session = service.open_session("alice")
        statement = session.prepare(SQL)
        direct = service.query(session, SQL)
        prepared = service.query(session, statement)
        assert prepared.rows == direct.rows
        assert statement.executions == 1

    def test_reparse_after_catalog_change(self, manager, mediator):
        session = manager.open_session("alice")
        statement = session.prepare(SQL)
        version_at_prepare = statement.catalog_version
        mediator.register(build_sales_wrapper())  # bumps catalog.version
        session.resolve(statement)
        assert statement.catalog_version == mediator.catalog.version
        assert statement.catalog_version != version_at_prepare


class TestPlanResolution:
    def test_same_sql_hits_plan_cache(self, manager):
        session = manager.open_session("alice")
        first = session.resolve(SQL)
        second = session.resolve(SQL)
        assert not first.plan_cached
        assert second.plan_cached
        assert second.optimized is first.optimized
        # Byte-identical SQL also skipped the parser the second time.
        assert manager.plan_cache.stats.sql_hits == 1

    def test_cache_shared_across_sessions_and_tenants(self, manager):
        alice = manager.open_session("alice")
        bob = manager.open_session("bob")
        alice.resolve(SQL)
        assert bob.resolve(SQL).plan_cached

    def test_equivalent_specs_share_one_entry(self, manager):
        session = manager.open_session("alice")
        base = (
            "SELECT * FROM Suppliers, Orders "
            "WHERE Orders.supplier = Suppliers.sid"
        )
        flipped = (
            "SELECT * FROM Orders, Suppliers "
            "WHERE Suppliers.sid = Orders.supplier"
        )
        session.resolve(base)
        assert session.resolve(flipped).plan_cached

    def test_no_cache_means_fresh_plans(self, mediator):
        manager = SessionManager(mediator, plan_cache=None)
        session = manager.open_session("alice")
        first = session.resolve(SQL)
        second = session.resolve(SQL)
        assert not second.plan_cached
        assert second.optimized is not first.optimized

    def test_spec_input_resolves_too(self, manager, mediator):
        spec = mediator.parse(SQL)
        session = manager.open_session("alice")
        first = session.resolve(spec)
        second = session.resolve(SQL)
        assert not first.plan_cached
        assert second.plan_cached  # the SQL normalizes to the same spec
