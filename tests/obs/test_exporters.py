"""Exporter round-trips: Prometheus text, Chrome trace_event."""

import json

import pytest

from repro.obs.exporters import (
    parse_prometheus_text,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("farm_bus_bytes_total",
                     "Bytes delivered.").inc(4096)
    registry.counter("farm_soil_polls_total", labels={"switch": 1}).inc(10)
    registry.counter("farm_soil_polls_total", labels={"switch": 2}).inc(20)
    registry.gauge("farm_soil_seeds", labels={"switch": 1}).set(3)
    h = registry.histogram("farm_placement_runtime_seconds",
                           labels={"solver": "heuristic"},
                           buckets=(0.01, 0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    return registry


def _sample_tracer() -> Tracer:
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"], enabled=True)
    tracer.instant("deploy s1", track="switch/1", cat="lifecycle",
                   args={"trace_id": "s1"})
    clock["now"] = 0.001
    tracer.async_begin("seeder->soil/1", span_id="msg1", track="bus",
                       args={"trace_id": "s1"})
    clock["now"] = 0.002
    tracer.async_end("seeder->soil/1", span_id="msg1", track="bus")
    tracer.poll_span("s1", "poll", track="switch/1", start=0.002,
                     duration=0.0005)
    tracer.instant("reoptimize", track="seeder")
    return tracer


class TestPrometheus:
    def test_text_structure(self):
        text = to_prometheus_text(_sample_registry())
        assert "# HELP farm_bus_bytes_total Bytes delivered." in text
        assert "# TYPE farm_bus_bytes_total counter" in text
        assert "farm_bus_bytes_total 4096" in text
        assert 'farm_soil_polls_total{switch="1"} 10' in text
        assert 'le="+Inf"' in text
        assert text.endswith("\n")

    def test_round_trip_parse(self):
        registry = _sample_registry()
        parsed = parse_prometheus_text(to_prometheus_text(registry))
        assert parsed["farm_bus_bytes_total"] == 4096
        assert parsed['farm_soil_polls_total{switch="1"}'] == 10
        assert parsed['farm_soil_polls_total{switch="2"}'] == 20
        assert parsed['farm_soil_seeds{switch="1"}'] == 3
        # Histogram: cumulative buckets, sum and count all present.
        assert parsed[
            'farm_placement_runtime_seconds_bucket'
            '{solver="heuristic",le="0.1"}'] == 1
        assert parsed[
            'farm_placement_runtime_seconds_bucket'
            '{solver="heuristic",le="+Inf"}'] == 2
        assert parsed[
            'farm_placement_runtime_seconds_count{solver="heuristic"}'] == 2
        assert parsed[
            'farm_placement_runtime_seconds_sum{solver="heuristic"}'] \
            == pytest.approx(0.55)

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"path": 'a"b\\c'}).inc()
        text = to_prometheus_text(registry)
        assert r'path="a\"b\\c"' in text

    def test_round_trip_with_spaces_in_label_values(self):
        # Label values containing spaces must not split the metric key
        # at the wrong place (the old rpartition-on-last-space bug).
        registry = MetricsRegistry()
        registry.counter("c_total",
                         labels={"task": "heavy hitter detect"}).inc(5)
        registry.gauge("g", labels={"desc": "a b c", "sw": "1"}).set(2.5)
        parsed = parse_prometheus_text(to_prometheus_text(registry))
        assert parsed['c_total{task="heavy hitter detect"}'] == 5
        assert parsed['g{desc="a b c",sw="1"}'] == 2.5

    def test_round_trip_with_escaped_quotes_and_braces(self):
        registry = MetricsRegistry()
        registry.counter("c_total",
                         labels={"expr": 'rate{x="a b"} > 1'}).inc(7)
        text = to_prometheus_text(registry)
        parsed = parse_prometheus_text(text)
        # The escaped quote and the inner brace both survive parsing.
        (key,) = parsed
        assert parsed[key] == 7
        assert r'\"a b\"' in key and key.startswith("c_total{")

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text('broken{x="unterminated 5')
        with pytest.raises(ValueError):
            parse_prometheus_text('lonely_name_without_value')

    def test_canonical_le_bounds(self):
        # Bucket bounds render via _format_value: integral bounds print
        # as integers (le="1", not le="1.0"), fractional bounds bare.
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(0.25, 1.0, 10.0)).observe(0.1)
        text = to_prometheus_text(registry)
        assert 'le="0.25"' in text
        assert 'le="1"' in text
        assert 'le="10"' in text
        assert 'le="1.0"' not in text and 'le="10.0"' not in text


class TestChromeTrace:
    def test_valid_against_schema(self):
        doc = to_chrome_trace(_sample_tracer(), registry=_sample_registry())
        validate_chrome_trace(doc)  # must not raise
        json.dumps(doc)  # and be serializable

    def test_timestamps_in_microseconds(self):
        doc = to_chrome_trace(_sample_tracer())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == pytest.approx(2000.0)  # 0.002 s
        assert complete[0]["dur"] == pytest.approx(500.0)  # 0.5 ms

    def test_tracks_become_named_threads(self):
        doc = to_chrome_trace(_sample_tracer())
        meta = {e["args"]["name"]: e["tid"]
                for e in doc["traceEvents"] if e["ph"] == "M"}
        assert set(meta) == {"switch/1", "bus", "seeder"}
        assert len(set(meta.values())) == 3  # distinct tids

    def test_registry_snapshot_rides_along(self):
        doc = to_chrome_trace(_sample_tracer(), registry=_sample_registry())
        metrics = doc["otherData"]["metrics"]
        assert metrics["farm_bus_bytes_total"]["series"][0]["value"] == 4096

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x",
                                                    "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0}]})
        with pytest.raises(ValueError):  # async end without begin
            validate_chrome_trace({"traceEvents": [
                {"ph": "e", "name": "x", "cat": "c", "id": "1",
                 "pid": 1, "tid": 1, "ts": 0.0}]})

    def test_write_validates_and_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer(), str(path),
                           registry=_sample_registry())
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        assert loaded["otherData"]["clock"] == "sim-time"
