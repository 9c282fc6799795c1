"""Metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    freeze_labels,
)


class TestFreezeLabels:
    def test_none_and_empty_are_identical(self):
        assert freeze_labels(None) == ()
        assert freeze_labels({}) == ()

    def test_sorted_and_stringified(self):
        assert freeze_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_order_insensitive(self):
        assert freeze_labels({"a": 1, "b": 2}) \
            == freeze_labels({"b": 2, "a": 1})


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"sw": 1})
        b = registry.counter("c_total", labels={"sw": 1})
        c = registry.counter("c_total", labels={"sw": 2})
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

class TestHistogram:
    def test_observe_buckets(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)
        # Cumulative le-semantics: <=0.1 -> 1, <=1.0 -> 3, <=10 -> 4, inf -> 5
        assert histogram.cumulative_counts() == [1, 3, 4, 5]

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_boundary_values_land_in_le_bucket(self):
        # A value exactly on a bound counts toward that bound (le
        # semantics); just above it rolls to the next bucket.
        histogram = MetricsRegistry().histogram(
            "hb", buckets=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 0]
        histogram.observe(4.0000001)
        assert histogram.counts[-1] == 1

    def test_bisect_matches_linear_scan(self):
        bounds = (0.5, 1.0, 2.5, 10.0)
        histogram = MetricsRegistry().histogram("hc", buckets=bounds)
        values = [0.0, 0.5, 0.75, 1.0, 1.5, 2.5, 3.0, 10.0, 11.0, -1.0]
        for value in values:
            histogram.observe(value)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            for i, bound in enumerate(bounds):
                if value <= bound:
                    expected[i] += 1
                    break
            else:
                expected[-1] += 1
        assert histogram.counts == expected


class TestRegistryReads:
    def test_value_and_default(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"sw": 1}).inc(7)
        assert registry.value("c_total", {"sw": 1}) == 7
        assert registry.value("c_total", {"sw": 9}, default=-1.0) == -1.0
        assert registry.value("absent") == 0.0

    def test_sum_values_label_subset(self):
        registry = MetricsRegistry()
        registry.counter("work", labels={"switch": 1, "core": 0}).inc(1)
        registry.counter("work", labels={"switch": 1, "core": 1}).inc(2)
        registry.counter("work", labels={"switch": 2, "core": 0}).inc(4)
        assert registry.sum_values("work", {"switch": 1}) == 3
        assert registry.sum_values("work") == 7

    def test_snapshot_is_jsonable(self):
        import json
        registry = MetricsRegistry()
        registry.counter("c_total", help_text="help").inc(2)
        registry.gauge("g", labels={"sw": 3}).set(1.5)
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["series"][0]["value"] == 2
        assert snap["g"]["series"][0]["labels"] == {"sw": "3"}
        assert snap["h"]["series"][0]["count"] == 1
