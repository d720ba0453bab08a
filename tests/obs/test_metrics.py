"""Metrics registry unit tests: semantics, exposition, snapshots."""

import math
import threading

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries_total", "Queries answered")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3.0
        assert counter.total() == 3.0

    def test_labels_partition_the_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("submits_total", labels=("wrapper",))
        counter.inc(wrapper="oo7")
        counter.inc(2, wrapper="sales")
        assert counter.value(wrapper="oo7") == 1.0
        assert counter.value(wrapper="sales") == 2.0
        assert counter.value(wrapper="files") == 0.0
        assert counter.total() == 3.0

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("c", labels=("wrapper",))
        with pytest.raises(ValueError):
            counter.inc(region="east")
        with pytest.raises(ValueError):
            counter.inc()  # missing the label entirely

    def test_inc_zero_materializes_the_series(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(0)
        assert counter.samples() == [("", (), 0.0)]


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("hit_ratio")
        gauge.set(0.25)
        gauge.set(0.5)
        assert gauge.value() == 0.5


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram("latency", buckets=(10, 100))
        histogram.observe(5)
        histogram.observe(50)
        histogram.observe(5000)
        assert histogram.count() == 3
        assert histogram.sum() == 5055.0
        samples = dict(
            ((suffix, key), value) for suffix, key, value in histogram.samples()
        )
        assert samples[("_bucket", (("le", "10"),))] == 1.0
        assert samples[("_bucket", (("le", "100"),))] == 2.0
        assert samples[("_bucket", (("le", "+Inf"),))] == 3.0
        assert samples[("_count", ())] == 3.0

    def test_inf_bucket_always_present(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert histogram.buckets[-1] == float("inf")


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        second = registry.counter("c")
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("wrapper",))
        with pytest.raises(ValueError):
            registry.counter("m", labels=("region",))

    def test_contains_and_getitem(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        assert "c" in registry and registry["c"] is counter
        assert "missing" not in registry


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_submits_total", "Wrapper subqueries", ("wrapper",)
        ).inc(3, wrapper="oo7")
        registry.gauge("repro_cache_hit_ratio", "Hit ratio").set(0.75)
        registry.histogram(
            "repro_query_elapsed_ms", "Latency", buckets=(100.0,)
        ).observe(42.0)
        return registry

    def test_prometheus_text_format(self):
        text = self._registry().expose_text()
        assert "# HELP repro_submits_total Wrapper subqueries" in text
        assert "# TYPE repro_submits_total counter" in text
        assert 'repro_submits_total{wrapper="oo7"} 3.0' in text
        assert "# TYPE repro_cache_hit_ratio gauge" in text
        assert "repro_cache_hit_ratio 0.75" in text
        assert "# TYPE repro_query_elapsed_ms histogram" in text
        assert 'repro_query_elapsed_ms_bucket{le="100"} 1.0' in text
        assert 'repro_query_elapsed_ms_bucket{le="+Inf"} 1.0' in text
        assert "repro_query_elapsed_ms_sum 42.0" in text
        assert "repro_query_elapsed_ms_count 1.0" in text

    def test_snapshot_lists_samples_with_labels(self):
        snapshot = self._registry().snapshot()
        assert snapshot["repro_submits_total"]["type"] == "counter"
        samples = snapshot["repro_submits_total"]["samples"]
        assert samples == [
            {
                "name": "repro_submits_total",
                "labels": {"wrapper": "oo7"},
                "value": 3.0,
            }
        ]


class TestSummary:
    def test_nearest_rank_quantiles(self):
        summary = MetricsRegistry().summary("latency_ms")
        for value in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0):
            summary.observe(value)
        assert summary.quantile(0.5) == 50.0
        assert summary.quantile(0.95) == 100.0
        assert summary.quantile(0.0) == 10.0
        assert summary.quantile(1.0) == 100.0
        assert summary.count() == 10
        assert summary.sum() == 550.0

    def test_empty_summary_is_nan(self):
        summary = MetricsRegistry().summary("latency_ms")
        assert math.isnan(summary.quantile(0.5))
        assert summary.count() == 0

    def test_labels_partition_observations(self):
        summary = MetricsRegistry().summary("wait_ms", labels=("tenant",))
        summary.observe(5.0, tenant="a")
        summary.observe(100.0, tenant="b")
        assert summary.quantile(0.5, tenant="a") == 5.0
        assert summary.quantile(0.5, tenant="b") == 100.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().summary("s", quantiles=(1.5,))

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        summary = registry.summary("latency_ms", "Latency", quantiles=(0.5,))
        summary.observe(42.0)
        text = registry.expose_text()
        assert "# TYPE latency_ms summary" in text
        assert 'latency_ms{quantile="0.5"} 42.0' in text
        assert "latency_ms_sum 42.0" in text
        assert "latency_ms_count 1.0" in text


class TestThreadSafety:
    """The serving layer updates metrics from many query-task threads;
    increments and observations must never be lost."""

    def test_concurrent_counter_increments(self):
        counter = MetricsRegistry().counter("c", labels=("tenant",))

        def spin(tenant):
            for _ in range(1000):
                counter.inc(tenant=tenant)

        threads = [
            threading.Thread(target=spin, args=(tenant,))
            for tenant in ("a", "b", "c", "d")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == 4000.0
        assert counter.value(tenant="a") == 1000.0

    def test_concurrent_summary_observations(self):
        summary = MetricsRegistry().summary("s")

        def spin():
            for i in range(500):
                summary.observe(float(i))

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert summary.count() == 2000

    def test_concurrent_get_or_create_returns_one_metric(self):
        registry = MetricsRegistry()
        seen = []

        def create():
            seen.append(registry.counter("shared", labels=("t",)))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(metric is seen[0] for metric in seen)
