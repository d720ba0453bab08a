"""A metrics registry with Prometheus-style exposition.

:class:`MetricsRegistry` unifies the counters the pipeline already keeps
scattered across components (``EstimatorCounters``, ``OptimizerStats``,
``CacheStats``, ``ParallelStats``) into one queryable surface:

* :class:`Counter` — monotonically increasing totals (queries, submits
  per wrapper, rows shipped, cache hits);
* :class:`Gauge` — point-in-time values (cache hit ratio, entries);
* :class:`Histogram` — distributions with cumulative buckets (query
  latency in simulated ms);
* :class:`Summary` — deterministic nearest-rank quantiles over a
  bounded window (the p50/p95/p99 latency figures of the serving
  benchmark).

All four support label dimensions (``submits_total{wrapper="oo7"}``) and
are safe under interleaved multi-query access: every mutation takes the
metric's lock (the serving layer's scheduler also serializes tasks, so
the locks are uncontended in the single-process simulation).
:meth:`MetricsRegistry.expose_text` renders the standard text exposition
format (``# HELP`` / ``# TYPE`` + samples); :meth:`MetricsRegistry.
snapshot` returns the same data as plain dicts.  Everything is
deterministic and process-local — there is no background collection
thread; the mediator records after each query.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable, Mapping

LabelKey = tuple[tuple[str, str], ...]


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, Any]
) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in label_names)


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Metric:
    """Base: a named family of samples, one per label combination."""

    metric_type = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Iterable[str] = ()):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        # The serving layer records from multiple query tasks; a
        # per-metric lock makes every mutation atomic under interleaved
        # multi-query access (reads for exposition take it too).
        self._lock = threading.Lock()

    # Subclasses implement ``samples()`` yielding (suffix, label key, value).

    def samples(self) -> "list[tuple[str, LabelKey, float]]":
        raise NotImplementedError

    def expose(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.metric_type}",
        ]
        for suffix, key, value in self.samples():
            rendered = value if not math.isinf(value) else "+Inf"
            lines.append(f"{self.name}{suffix}{_render_labels(key)} {rendered}")
        return "\n".join(lines)


class Counter(Metric):
    metric_type = "counter"

    def __init__(self, name: str, help_text: str, label_names: Iterable[str] = ()):
        super().__init__(name, help_text, label_names)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> "list[tuple[str, LabelKey, float]]":
        with self._lock:
            return [("", key, value) for key, value in sorted(self._values.items())]


class Gauge(Metric):
    metric_type = "gauge"

    def __init__(self, name: str, help_text: str, label_names: Iterable[str] = ()):
        super().__init__(name, help_text, label_names)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> "list[tuple[str, LabelKey, float]]":
        with self._lock:
            return [("", key, value) for key, value in sorted(self._values.items())]


#: Default latency buckets, in simulated milliseconds.  Federated queries
#: pay >=300 ms of §2.3 communication per submit, so the grid is coarse.
DEFAULT_BUCKETS = (
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    float("inf"),
)


class Histogram(Metric):
    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}
        self._totals: dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: Any) -> int:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._totals.get(key, 0)

    def sum(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def samples(self) -> "list[tuple[str, LabelKey, float]]":
        out: list[tuple[str, LabelKey, float]] = []
        with self._lock:
            for key in sorted(self._counts):
                for index, bound in enumerate(self.buckets):
                    le = "+Inf" if math.isinf(bound) else f"{bound:g}"
                    bucket_key = key + (("le", le),)
                    out.append(
                        ("_bucket", bucket_key, float(self._counts[key][index]))
                    )
                out.append(("_sum", key, self._sums[key]))
                out.append(("_count", key, float(self._totals[key])))
        return out


#: Default quantiles exposed by :class:`Summary` metrics — the latency
#: percentiles the E11 serving benchmark reports.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


#: Default per-label-set window of :class:`Summary`.  Large enough that
#: the serving benchmark's quantiles are exact (it observes far fewer
#: latencies than this), small enough that sustained traffic cannot grow
#: a metric without bound.
DEFAULT_MAX_SAMPLES = 8192


class Summary(Metric):
    """A bounded-window latency summary with deterministic quantiles.

    Histogram buckets answer "how many under X ms" but interpolate
    percentiles coarsely; the serving benchmark needs real p50/p95/p99
    figures.  A :class:`Summary` keeps a sliding window of the most
    recent ``max_samples`` observations per label set and computes
    nearest-rank quantiles over that window — exact while fewer than
    ``max_samples`` values have been observed, and recent-window
    quantiles (still fully deterministic: the window is the last N
    observations, no sampling) afterwards.  ``_sum`` and ``_count`` are
    kept as separate exact accumulators over *all* observations, so the
    window never distorts totals.  Exposition follows the Prometheus
    summary convention: ``{quantile="0.5"}`` samples plus ``_sum`` and
    ``_count``.
    """

    metric_type = "summary"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Iterable[str] = (),
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        super().__init__(name, help_text, label_names)
        self.quantiles = tuple(quantiles)
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile out of range: {q}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._observations: dict[LabelKey, deque[float]] = {}
        self._counts: dict[LabelKey, int] = {}
        self._sums: dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            window = self._observations.get(key)
            if window is None:
                window = self._observations[key] = deque(maxlen=self.max_samples)
            window.append(float(value))
            self._counts[key] = self._counts.get(key, 0) + 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    @staticmethod
    def _rank(sorted_values: "list[float]", q: float) -> float:
        if not sorted_values:
            return math.nan
        index = max(0, math.ceil(q * len(sorted_values)) - 1)
        return sorted_values[index]

    def quantile(self, q: float, **labels: Any) -> float:
        """Nearest-rank quantile of the windowed observations (NaN when
        empty)."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._rank(sorted(self._observations.get(key, ())), q)

    def count(self, **labels: Any) -> int:
        """Exact number of observations ever made (not the window size)."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._counts.get(key, 0)

    def sum(self, **labels: Any) -> float:
        """Exact sum of every observation ever made."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def window_size(self, **labels: Any) -> int:
        """How many observations the quantile window currently holds."""
        key = _label_key(self.label_names, labels)
        with self._lock:
            return len(self._observations.get(key, ()))

    def samples(self) -> "list[tuple[str, LabelKey, float]]":
        out: list[tuple[str, LabelKey, float]] = []
        with self._lock:
            for key in sorted(self._observations):
                values = sorted(self._observations[key])
                for q in self.quantiles:
                    out.append(
                        ("", key + (("quantile", f"{q:g}"),), self._rank(values, q))
                    )
                out.append(("_sum", key, self._sums[key]))
                out.append(("_count", key, float(self._counts[key])))
        return out


class MetricsRegistry:
    """Named metrics, get-or-create semantics, one exposition endpoint."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        with self._lock:
            return self._metrics[name]

    def _get_or_create(self, cls: type, name: str, help_text: str, labels, **kw):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.label_names}"
                    )
                return existing
            metric = cls(name, help_text, labels, **kw)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, tuple(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, tuple(labels), buckets=buckets
        )

    def summary(
        self,
        name: str,
        help_text: str = "",
        labels: Iterable[str] = (),
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Summary:
        return self._get_or_create(
            Summary,
            name,
            help_text,
            tuple(labels),
            quantiles=quantiles,
            max_samples=max_samples,
        )

    # -- export --------------------------------------------------------------

    def _sorted_metrics(self) -> "list[tuple[str, Metric]]":
        with self._lock:
            return sorted(self._metrics.items())

    def expose_text(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        return "\n".join(
            metric.expose() for _name, metric in self._sorted_metrics()
        )

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form of every metric's samples."""
        out: dict[str, Any] = {}
        for name, metric in self._sorted_metrics():
            out[name] = {
                "type": metric.metric_type,
                "help": metric.help_text,
                "samples": [
                    {
                        "name": name + suffix,
                        "labels": dict(key),
                        "value": value,
                    }
                    for suffix, key, value in metric.samples()
                ],
            }
        return out
