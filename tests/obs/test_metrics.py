"""Unit tests for the metrics registry."""

import pytest

from repro.obs import MetricsRegistry, NullMetricsRegistry, OpCounter, render_key


class TestCounters:
    def test_increment_and_read(self):
        registry = MetricsRegistry()
        registry.inc("net.requests", host="a.example")
        registry.inc("net.requests", host="a.example")
        registry.inc("net.requests", 5, host="b.example")
        assert registry.counter_value("net.requests", host="a.example") == 2
        assert registry.counter_value("net.requests", host="b.example") == 5
        assert registry.counter_total("net.requests") == 7

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.inc("x", host="h", method="GET")
        registry.inc("x", method="GET", host="h")
        assert registry.counter_value("x", host="h", method="GET") == 2
        assert list(registry.counters()) == ["x{host=h,method=GET}"]

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_counter_total_by_label_sums_across_other_labels(self):
        registry = MetricsRegistry()
        registry.inc("serve.responses", endpoint="flagged", status="200")
        registry.inc("serve.responses", 2, endpoint="flagged", status="400")
        registry.inc("serve.responses", 4, endpoint="health", status="200")
        assert registry.counter_total_by_label(
            "serve.responses", "endpoint", "flagged") == 3
        assert registry.counter_total_by_label(
            "serve.responses", "status", "200") == 5
        assert registry.counter_total_by_label(
            "serve.responses", "endpoint", "missing") == 0

    def test_top_counters_sorted_by_value_then_key(self):
        registry = MetricsRegistry()
        registry.inc("b", 3)
        registry.inc("a", 3)
        registry.inc("c", 9)
        assert registry.top_counters(2) == [("c", 9), ("a", 3)]

    def test_render_key_without_labels(self):
        assert render_key("plain", ()) == "plain"


class TestGaugesAndHistograms:
    def test_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("pool.size", 3, pool="vpn")
        registry.set_gauge("pool.size", 8, pool="vpn")
        assert registry.gauges() == {"pool.size{pool=vpn}": 8}

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 100.0):
            registry.observe("latency", value)
        state = registry.histogram("latency")
        assert state.count == 4
        assert state.bucket_counts == [1, 2, 1]  # <=1, <=10, overflow
        assert state.minimum == 0.5
        assert state.maximum == 100.0
        assert state.mean == pytest.approx(26.875)

    def test_declare_after_observe_rejected(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        with pytest.raises(ValueError):
            registry.declare_histogram("h", (1.0,))

    def test_summary_is_the_standard_percentile_shape(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency", (1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 5.0, 50.0):
            registry.observe("latency", value)
        summary = registry.histogram("latency").summary()
        assert summary == {
            "count": 4,
            "mean": round((0.5 + 2.0 + 5.0 + 50.0) / 4, 1),
            "p50": 10.0,
            "p90": 50.0,  # bucket bound 100 clamped to the recorded max
            "p95": 50.0,
            "p99": 50.0,
            "min": 0.5,
            "max": 50.0,
        }
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_empty_histogram_summary_is_all_zero(self):
        from repro.obs.metrics import HistogramState
        summary = HistogramState(bounds=(1.0, 10.0)).summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0
        assert summary["min"] is None and summary["max"] is None


def linear_bucket(bounds, value):
    """The bucket index a linear scan over ``bounds`` picks."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


class TestHistogramBucketing:
    @pytest.mark.parametrize("bounds", [
        (1.0, 2.0, 5.0, 10.0),
        (1, 2, 5, 10),
        (0.5,),
        (1.0, 1.0, 3.0),
    ])
    @pytest.mark.parametrize("value", [
        -3, 0, 0.25, 0.5, 1, 1.0, 1.5, 2, 2.0000001, 5.0, 9.999, 10,
        10.0, 10.5, 11, 1e9])
    def test_bisect_matches_the_linear_scan(self, bounds, value):
        from repro.obs.metrics import HistogramState
        state = HistogramState(bounds=bounds)
        state.observe(value)
        expected = [0] * (len(bounds) + 1)
        expected[linear_bucket(bounds, value)] = 1
        assert state.bucket_counts == expected

    def test_value_on_a_bound_lands_in_that_bucket(self):
        from repro.obs.metrics import HistogramState
        state = HistogramState(bounds=(1.0, 10.0))
        for value in (1.0, 1, 10.0, 10):
            state.observe(value)
        assert state.bucket_counts == [2, 2, 0]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().declare_histogram("h", (10.0, 1.0))


class TestDeterminism:
    def test_snapshot_is_fully_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z.last", host="b")
        registry.inc("a.first", host="z")
        registry.inc("z.last", host="a")
        snap = registry.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_same_calls_same_snapshot(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("x", host="h")
            registry.observe("y", 3.0, kind="k")
            registry.set_gauge("g", 1)
            return registry.snapshot()

        assert build() == build()


class TestOpCounterWiring:
    def test_recording_ticks_shared_counter(self):
        ops = OpCounter()
        registry = MetricsRegistry(counter=ops)
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 2.0)
        assert ops.value == 3

    def test_unwired_registry_does_not_need_counter(self):
        registry = MetricsRegistry()
        registry.inc("a")  # must not raise
        assert registry.counter_total("a") == 1


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullMetricsRegistry()
        registry.inc("a", host="h")
        registry.set_gauge("b", 2)
        registry.observe("c", 3.0)
        registry.declare_histogram("d", (1.0,))
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}
        assert not registry.enabled
