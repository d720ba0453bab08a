"""Span tracer unit tests: structure, timing, rendering, null tracer."""

from repro.obs.trace import NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanTracer
from repro.sources.clock import CostProfile, SimClock


class FakeClock:
    def __init__(self):
        self.now_ms = 0.0

    def advance(self, ms):
        self.now_ms += ms


class TestSpanTree:
    def test_nesting_follows_start_end_order(self):
        tracer = SpanTracer()
        root = tracer.start("query", kind="query")
        child = tracer.start("optimize", kind="phase")
        grandchild = tracer.start("estimate", kind="estimate")
        tracer.end(grandchild)
        tracer.end(child)
        tracer.end(root)
        assert tracer.roots == [root]
        assert root.children == [child]
        assert child.children == [grandchild]
        assert tracer.current is None

    def test_durations_come_from_the_simulated_clock(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span = tracer.start("work")
        clock.advance(125.0)
        tracer.end(span)
        assert span.duration_ms == 125.0
        assert span.start_ms == 0.0 and span.end_ms == 125.0

    def test_real_sim_clock_timestamps(self):
        clock = SimClock(CostProfile())
        tracer = SpanTracer(clock)
        with tracer.span("io") as span:
            clock.advance(clock.profile.io_ms)
        assert span.duration_ms == clock.profile.io_ms

    def test_context_manager_closes_on_exception(self):
        tracer = SpanTracer()
        try:
            with tracer.span("failing") as span:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert span.end_ms is not None
        assert tracer.current is None

    def test_out_of_order_end_pops_through(self):
        tracer = SpanTracer()
        outer = tracer.start("outer")
        tracer.start("inner")  # never explicitly ended
        tracer.end(outer)
        assert tracer.current is None

    def test_event_is_zero_duration_child(self):
        tracer = SpanTracer()
        with tracer.span("parent") as parent:
            event = tracer.event("cache.hit", kind="cache", wrapper="oo7")
        assert event in parent.children
        assert event.duration_ms == 0.0
        assert event.attributes["wrapper"] == "oo7"

    def test_walk_find_and_set(self):
        tracer = SpanTracer()
        with tracer.span("query", kind="query"):
            with tracer.span("submit:oo7", kind="submit") as submit:
                submit.set(rows=7)
            with tracer.span("submit:sales", kind="submit"):
                pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == [
            "query",
            "submit:oo7",
            "submit:sales",
        ]
        submits = root.find(kind="submit")
        assert len(submits) == 2
        assert submits[0].attributes == {"rows": 7}
        assert root.find(name="submit:oo7") == [submits[0]]


class TestExport:
    def _tree(self):
        tracer = SpanTracer(FakeClock())
        with tracer.span("query", kind="query"):
            with tracer.span("execute", kind="phase"):
                tracer.clock.advance(10.0)
        return tracer

    def test_render_indents_children(self):
        text = self._tree().roots[0].render()
        lines = text.splitlines()
        assert lines[0].startswith("query [query]")
        assert lines[1].startswith("  execute [phase]")

    def test_reset_drops_finished_trees(self):
        tracer = self._tree()
        tracer.reset()
        assert tracer.roots == []


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert SpanTracer().enabled is True

    def test_all_operations_are_no_ops(self):
        tracer = NullTracer()
        span = tracer.start("anything", kind="submit", wrapper="oo7")
        assert span is NULL_SPAN
        tracer.end(span, rows=3)
        with tracer.span("ctx") as ctx_span:
            ctx_span.set(ignored=True)
        tracer.event("cache.hit")
        assert tracer.roots == []
        assert NULL_SPAN.attributes == {}

    def test_null_span_swallows_set(self):
        NULL_SPAN.set(anything=1)
        assert NULL_SPAN.attributes == {}

    def test_isinstance_compatible(self):
        # Instrumented components type their slot as SpanTracer; the null
        # object must satisfy it.
        assert isinstance(NULL_TRACER, SpanTracer)
        assert isinstance(NULL_SPAN, Span)
