"""MetricsRegistry: counters, histograms, timers, snapshots."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.observability.metrics import TIMER_BUCKETS, MetricsRegistry


class TestCounters:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("fits")
        registry.inc("fits", 4)
        assert registry.counter("fits") == 5
        assert registry.counter("never") == 0

    def test_thread_safety(self):
        registry = MetricsRegistry()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: registry.inc("n"), range(2000)))
        assert registry.counter("n") == 2000


class TestHistograms:
    def test_observe_aggregates(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 2.0):
            registry.observe("seconds", value)
        histogram = registry.snapshot()["histograms"]["seconds"]
        assert histogram["count"] == 3
        assert histogram["total"] == 4.0
        assert histogram["min"] == 0.5
        assert histogram["max"] == 2.0

    def test_bucket_counts(self):
        registry = MetricsRegistry()
        for value in (0.0005, 0.005, 0.5, 500.0):
            registry.observe("seconds", value)
        buckets = registry.snapshot()["histograms"]["seconds"]["buckets"]
        # One observation each in <=1ms, <=10ms, <=1s, and the +inf tail.
        assert sum(buckets) == 4
        assert buckets[TIMER_BUCKETS.index(0.001)] == 1  # 0.5 ms <= 1 ms edge
        assert buckets[-1] == 1  # 500 s beyond the last edge

    def test_edges_are_decades_from_a_microsecond_to_100_s(self):
        assert TIMER_BUCKETS == tuple(10.0**k for k in range(-6, 3))

    def test_a_memoized_read_and_a_computed_one_land_apart(self):
        registry = MetricsRegistry()
        for value in (20e-6, 300e-6):
            registry.observe("seconds", value)
        buckets = registry.snapshot()["histograms"]["seconds"]["buckets"]
        assert buckets[TIMER_BUCKETS.index(1e-4)] == 1  # 20 µs <= 0.1 ms
        assert buckets[TIMER_BUCKETS.index(1e-3)] == 1  # 0.3 ms <= 1 ms

    def test_timer_records_duration(self):
        registry = MetricsRegistry()
        with registry.timer("block"):
            pass
        histogram = registry.snapshot()["histograms"]["block"]
        assert histogram["count"] == 1
        assert histogram["total"] >= 0.0


class TestRendering:
    def test_to_table_lists_both_kinds(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 3)
        registry.observe("fit.seconds", 1.25)
        table = registry.to_table()
        assert "cache.hits" in table
        assert "fit.seconds" in table

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_table() == ""
