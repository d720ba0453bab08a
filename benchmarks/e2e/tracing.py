"""Benchmark-owned spans around the public calls into each layer.

Nothing here touches the program: spans are recorded by proxies and
decorators the benchmark installs *around* public entry points, the way
``TaskDispatchProxy`` already stands in for the submit scheduler and
``FaultInjector`` already decorates a wrapper.  Spans stay in memory
(``Recorder.spans``) until the run ends; the per-layer ledger is
computed from them afterwards (:func:`ledger`).

A span is ``[name, start_s, end_s, parent_span, op_id]``.  The layer of
a span is its name up to the first ``:`` (``wrapper:east`` → layer
``wrapper``).  Self time is the span's duration minus the union of its
children's intervals, so the self times of one operation sum to its
wall time — except where children genuinely overlap on pool threads
(``query_rt`` waves), which ``rt.wave_overlap`` reports.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.mediator.mediator import Mediator
from repro.wrappers.base import CostInfoExport, ExecutionResult, Wrapper

NAME, START, END, PARENT, OP = range(5)


class _Span:
    """Context manager for one main-thread span (cheaper than a
    generator-based one; tracing overhead is itself a reported metric)."""

    __slots__ = ("recorder", "name", "record")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self.record = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.close(self.record)


class Recorder:
    """In-memory span and counter store of one traced run.

    The driver thread owns the open-span stack.  Spans opened on any
    other thread (pool threads of a real-time wave, the strict-handoff
    task threads of the service) never nest among themselves, so they
    simply attach to whatever span the driver thread has open.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        #: The harness switches this off for the untraced rounds of a
        #: traced run; the installed proxies then only forward.
        self.active = True
        self._stack: list[list] = []
        self._driver = threading.get_ident()

    def open(self, name: str) -> list:
        """Start a span; the returned record is the handle ``close`` takes
        (a record, not an index: two pool threads may open at once)."""
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        if threading.get_ident() == self._driver:
            self._stack.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = perf_counter()
        if self._stack and self._stack[-1] is record:
            self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += amount

    def take(self) -> tuple[list[list], Counter]:
        """Hand over everything recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        self._stack.clear()
        return spans, counts


class TracedWrapper(Wrapper):
    """Decorates a wrapper so each ``execute`` is a ``wrapper:<name>`` span.

    Registers under the inner wrapper's name and delegates every
    registration-time export, exactly like ``FaultInjector``.
    """

    def __init__(self, inner: Wrapper, recorder: Recorder) -> None:
        super().__init__(inner.name, inner.capabilities)
        self.inner = inner
        self._recorder = recorder
        self._span_name = f"wrapper:{inner.name}"

    def export_cost_info(self) -> CostInfoExport:
        return self.inner.export_cost_info()

    def unwrap(self) -> Wrapper:
        return self.inner.unwrap()

    def execute(self, plan) -> ExecutionResult:
        recorder = self._recorder
        if not recorder.active:
            return self.inner.execute(plan)
        record = recorder.open(self._span_name)
        try:
            result = self.inner.execute(plan)
        finally:
            recorder.close(record)
        recorder.add(f"rows:{self.name}", len(result.rows))
        return result


class DispatchProxy:
    """Stands in for a ``SubmitScheduler``: ``dispatch_one`` and
    ``dispatch_wave`` become ``dispatch`` spans (a multi-branch wave is
    named ``dispatch:wave`` so wave overlap can be read off its
    children); everything else forwards to the real scheduler."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def dispatch_one(self, submit):
        recorder = self._recorder
        if not recorder.active:
            return self._inner.dispatch_one(submit)
        recorder.add("dispatch.submits")
        with recorder.span("dispatch"):
            return self._inner.dispatch_one(submit)

    def dispatch_wave(self, submits):
        recorder = self._recorder
        if not recorder.active:
            return self._inner.dispatch_wave(submits)
        recorder.add("dispatch.submits", len(submits))
        with recorder.span("dispatch:wave" if len(submits) > 1 else "dispatch"):
            return self._inner.dispatch_wave(submits)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def traced_plan(recorder: Recorder, plan, estimator, spec):
    """``Mediator.plan`` (passed as ``plan``) as an ``optimizer`` span,
    its public work counters folded into the recorder, followed by the
    estimator probe: one ``CostEstimator.estimate`` of the chosen plan,
    the only way to time the estimator alone through a public call."""
    with recorder.span("optimizer"):
        optimized = plan(spec)
    stats = optimized.stats
    recorder.add("optimizer.candidates", stats.candidates_considered)
    recorder.add("optimizer.pruned", stats.candidates_pruned)
    recorder.add("estimator.variables_computed", stats.variables_computed)
    recorder.add("estimator.formulas_evaluated", stats.formulas_evaluated)
    with recorder.span("estimator"):
        estimator.estimate(optimized.plan)
    return optimized


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def ledger(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls`` / ``busy_ms`` / ``self_ms`` of a span list.

    Also returns the pseudo-layer ``wave`` with ``busy_ms`` (wall of
    multi-branch waves) and ``child_ms`` (summed branch time), the two
    halves of ``rt.wave_overlap``.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
    )
    wave = {"busy_ms": 0.0, "child_ms": 0.0}
    for span in spans:
        duration = span[END] - span[START]
        kids = children.get(id(span), ())
        self_time = max(0.0, duration - _union_length(list(kids)))
        for key in {span[NAME], span[NAME].split(":", 1)[0]}:
            entry = layers[key]
            entry["calls"] += 1
            entry["busy_ms"] += duration * 1e3
            entry["self_ms"] += self_time * 1e3
        if span[NAME] == "dispatch:wave":
            wave["busy_ms"] += duration * 1e3
            wave["child_ms"] += sum(end - start for start, end in kids) * 1e3
    layers["wave"] = wave  # type: ignore[assignment]
    return layers


@contextmanager
def registration_spans(recorder: Recorder | None):
    """Time ``Mediator.register*`` as ``registration`` spans for the
    duration of a build.  Public builders such as ``build_federation``
    construct their own ``Mediator`` and register inside, so the only
    outside handle on those calls is the class attribute; it is put back
    on exit.  A no-op without a recorder."""
    if recorder is None:
        yield
        return
    names = ("register", "register_replica", "register_partitioned")
    originals = {name: getattr(Mediator, name) for name in names}

    def timed(original):
        def call(self, *args, **kwargs):
            with recorder.span("registration"):
                result = original(self, *args, **kwargs)
            if isinstance(result, int):  # register* return their rule count
                recorder.add("registration.rules", result)
            return result

        return call

    for name, original in originals.items():
        setattr(Mediator, name, timed(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(Mediator, name, original)
