"""Span tracing over the mediator's simulated clock.

A :class:`SpanTracer` records one tree of :class:`Span` objects per root
operation (``Mediator.query`` opens a ``query`` root; ``parse``,
``optimize``, ``estimate``, ``submit``, ``wave``, ``cache`` and
``compose`` spans nest below it).  Spans are timestamped on the
**simulated** clock — the same milliseconds the cost model predicts — so
a span tree is directly comparable to the estimator's output: the
``execute`` phase span's duration *is* the measured ``TotalTime`` the
§4.3.1 history records.

Design constraints:

* **Zero overhead when disabled.**  Instrumentation sites hold a tracer
  reference that defaults to :data:`NULL_TRACER`; hot paths guard on
  ``tracer.enabled`` (a plain class attribute) and skip all span
  construction when it is False.
* **Deterministic.**  No wall time, no randomness: timestamps come from
  the :class:`~repro.sources.clock.SimClock`.
* **Readable.**  :meth:`Span.render` produces the indented tree that
  ``Mediator.explain`` appends when tracing is on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol


class _Clock(Protocol):  # pragma: no cover - typing only
    @property
    def now_ms(self) -> float: ...


@dataclass
class Span:
    """One traced operation on the simulated timeline."""

    name: str
    kind: str = "span"
    start_ms: float = 0.0
    end_ms: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        """Simulated duration; 0 while the span is still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str | None = None, name: str | None = None) -> list["Span"]:
        """All descendant spans (including self) matching kind and/or name."""
        return [
            span
            for span in self.walk()
            if (kind is None or span.kind == kind)
            and (name is None or span.name == name)
        ]

    def render(self, indent: int = 0) -> str:
        """Indented tree rendering (the `explain` attachment)."""
        pad = "  " * indent
        attrs = ", ".join(
            f"{key}={_short(value)}" for key, value in self.attributes.items()
        )
        line = f"{pad}{self.name} [{self.kind}] {self.duration_ms:.1f}ms"
        if attrs:
            line += f" ({attrs})"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _short(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    text = str(value)
    return text if len(text) <= 60 else text[:57] + "..."


class SpanTracer:
    """Builds span trees against a simulated clock.

    ``clock`` is anything with a ``now_ms`` property (a
    :class:`~repro.sources.clock.SimClock`); ``None`` timestamps
    everything at 0.0, which keeps the tracer usable in unit tests that
    only care about structure.
    """

    enabled: bool = True

    def __init__(self, clock: _Clock | None = None) -> None:
        self.clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- time ----------------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now_ms if self.clock is not None else 0.0

    # -- span lifecycle -------------------------------------------------------

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def start(self, name: str, kind: str = "span", **attributes: Any) -> Span:
        """Open a span as a child of the current one (or a new root)."""
        span = Span(
            name=name, kind=kind, start_ms=self._now(), attributes=dict(attributes)
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attributes: Any) -> Span:
        """Close a span (tolerates out-of-order ends by popping through)."""
        span.attributes.update(attributes)
        span.end_ms = self._now()
        while self._stack:
            if self._stack.pop() is span:
                break
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes: Any):
        opened = self.start(name, kind, **attributes)
        try:
            yield opened
        finally:
            self.end(opened)

    def event(self, name: str, kind: str = "event", **attributes: Any) -> Span:
        """A zero-duration span (cache hits, prune decisions)."""
        now = self._now()
        span = Span(
            name=name,
            kind=kind,
            start_ms=now,
            end_ms=now,
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def reset(self) -> None:
        """Drop all finished trees (open spans survive on the stack)."""
        self.roots = [span for span in self.roots if span.end_ms is None]


class _NullContext:
    """Reusable no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


class _NullSpan(Span):
    """A span that swallows attribute writes (shared singleton)."""

    def set(self, **attributes: Any) -> "Span":
        return self


class NullTracer(SpanTracer):
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    def __init__(self) -> None:
        self.clock = None
        self.roots = []
        self._stack = []

    def start(self, name: str, kind: str = "span", **attributes: Any) -> Span:
        return NULL_SPAN

    def end(self, span: Span, **attributes: Any) -> Span:
        return NULL_SPAN

    def span(self, name: str, kind: str = "span", **attributes: Any):
        return _NULL_CONTEXT

    def event(self, name: str, kind: str = "event", **attributes: Any) -> Span:
        return NULL_SPAN


NULL_SPAN = _NullSpan(name="null", kind="null")
_NULL_CONTEXT = _NullContext()
#: Shared disabled tracer — the default every instrumented component holds.
NULL_TRACER = NullTracer()
