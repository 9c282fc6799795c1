"""Tracer semantics, the disabled fast path and the enabled cost."""

import gc
import hashlib
import json

import pytest

from repro.almanac import MachineInstance
from repro.core import FarmDeployment
from repro.net.topology import spine_leaf
from repro.obs import trace
from repro.obs.exporters import to_chrome_trace
from repro.obs.profiler import FlightRecorder
from repro.obs.trace import MAX_TRACE_EVENTS, NULL_TRACER, Tracer
from repro.tasks.heavy_hitter import make_task as make_hh_task
from tests.almanac.test_vector import StubHost, compile_machine

DISPATCH_SEED = """
machine Dispatch {
  place all;
  time tick = 1000;
  long count;
  state run {
    when (tick as v) do { count = count + 1; }
    when (recv long v from harvester) do { count = count + 1; }
  }
}
"""

#: One call per recording kind, with the event name it makes of ``v``:
#: the dict recorder and the two hot ones.
RECORDERS = {
    "instant": (lambda tracer, v: tracer.instant(v, track="t"), "{}"),
    "seed_fire": (lambda tracer, v: tracer.seed_fire("s1", v, True, "run"),
                  "fire {}"),
    "poll_span": (lambda tracer, v: tracer.poll_span(
        "s1", v, "switch/1", 0.5, 0.001), "s1.{}"),
}


class TestDisabledFastPath:
    """Disabled tracing must not allocate or buffer anything per event."""

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        for _ in range(1000):
            tracer.instant("fire", track="seed/1")
            tracer.seed_fire("s1", "tick", True, "run")
            tracer.poll_span("s1", "poll", "switch/1", 0.0, 1.0)
            tracer.async_begin("msg", span_id="m1", track="bus")
            tracer.async_end("msg", span_id="m1", track="bus")
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_disabled_tracer_never_enters_the_traced_dispatch(
            self, monkeypatch):
        # The count form of "a disabled tracer costs nothing on dispatch":
        # 20 000 handler runs record nothing and reach no traced code.
        def traced(*args, **kwargs):
            raise AssertionError("traced path entered with tracing off")

        monkeypatch.setattr(MachineInstance, "_traced_fire_var", traced)
        monkeypatch.setattr(Tracer, "instant", traced)
        monkeypatch.setattr(Tracer, "seed_fire", traced)
        tracer = Tracer(enabled=False)
        instance = MachineInstance(compile_machine(DISPATCH_SEED),
                                   StubHost(), tracer=tracer)
        instance.start()
        for i in range(10_000):
            assert instance.fire_trigger_var("tick", i)
            assert instance.fire_recv(i)
        assert instance.snapshot()["machine_vars"]["count"] == 20_000
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    @pytest.mark.parametrize("kind", sorted(RECORDERS))
    def test_toggle_mid_run(self, kind):
        record, name = RECORDERS[kind]
        tracer = Tracer(enabled=False)
        record(tracer, "off")
        tracer.enabled = True
        record(tracer, "on")
        tracer.enabled = False
        record(tracer, "off again")
        assert [e["name"] for e in tracer.events] == [name.format("on")]


class TestEnabledCost:
    """Enabled tracing keeps a hot event as atoms until something reads it."""

    def test_hot_records_allocate_nothing_gc_tracked(self, monkeypatch):
        decoded = []

        def counting(real):
            def decode(*atoms):
                decoded.append(atoms)
                return real(*atoms)
            return decode

        monkeypatch.setattr(trace, "_fire_event",
                            counting(trace._fire_event))
        monkeypatch.setattr(trace, "_poll_event",
                            counting(trace._poll_event))
        tracer = Tracer(clock=lambda: 0.25, enabled=True)
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(10_000):
            tracer.seed_fire("s1", "tick", True, "run")
            tracer.poll_span("s1", "stats", "switch/1", 0.25, 0.001)
        assert len(gc.get_objects()) - before < 100
        assert len(tracer) == 20_000
        assert tracer.dropped == 0
        assert decoded == []
        events = tracer.events
        assert len(decoded) == 20_000
        assert events[:2] == [
            {"ph": "i", "name": "fire tick", "cat": "seed",
             "track": "seed/s1", "ts": 0.25,
             "args": {"trace_id": "s1", "handled": True, "state": "run"}},
            {"ph": "X", "name": "s1.stats", "cat": "poll",
             "track": "switch/1", "ts": 0.25, "dur": 0.001,
             "args": {"trace_id": "s1"}}]
        assert tracer.events is events  # cached: a second read decodes
        assert len(decoded) == 20_000   # nothing


class TestRecording:
    def test_instant_and_async_pair(self):
        tracer = Tracer(enabled=True)
        tracer.instant("deploy", track="switch/1", cat="lifecycle")
        tracer.async_begin("a->b", span_id="msg1", track="bus")
        tracer.async_end("a->b", span_id="msg1", track="bus")
        phases = [e["ph"] for e in tracer.events]
        assert phases == ["i", "b", "e"]
        assert tracer.events[1]["id"] == "msg1"

    def test_by_track_groups(self):
        tracer = Tracer(enabled=True)
        tracer.instant("x", track="bus")
        tracer.instant("y", track="switch/1")
        tracer.instant("z", track="bus")
        grouped = tracer.by_track()
        assert [e["name"] for e in grouped["bus"]] == ["x", "z"]
        assert [e["name"] for e in grouped["switch/1"]] == ["y"]

    @pytest.mark.parametrize("kind", sorted(RECORDERS))
    def test_max_events_drops_not_grows(self, kind):
        record, _ = RECORDERS[kind]
        tracer = Tracer(enabled=True, max_events=10)
        for _ in range(25):
            record(tracer, "e")
        assert len(tracer) == 10
        assert tracer.dropped == 15
        assert len(tracer.events) == 10

    def test_default_cap_is_sane(self):
        assert MAX_TRACE_EVENTS >= 100_000


#: sha256 of the observability tour's ``traceEvents`` (1 233 events), as
#: ``json.dumps(..., sort_keys=True)``.  Pinned so the record log is a
#: pure change of representation; re-pin only when a trace point is added,
#: removed or changed on purpose, or the traced behaviour changes (the
#: aggregation cache's expiry at the timer's own deadline re-pinned it).
TOUR_TRACE_SHA256 = (
    "3a11a5948bc7fd910474e42d7fd8493e79b27025e6d0e64f609020e7bdaf4499")


def _tour(tap=None, recorder_at=None):
    """The observability tour's scenario: HH on spine_leaf(1, 2, 2) under
    5 % control-message loss for 2 s, traced.  ``tap`` is set as
    ``on_emit`` before anything is submitted; ``recorder_at`` attaches a
    FlightRecorder at that sim time.  Returns (farm, recorder, events
    buffered when it attached)."""
    farm = FarmDeployment(topology=spine_leaf(1, 2, 2), trace=True)
    farm.tracer.on_emit = tap
    farm.enable_chaos(seed=3).lossy(0.05)
    farm.submit(make_hh_task(threshold=10e6, accuracy_ms=10))
    recorder, mark = None, 0
    if recorder_at is not None:
        farm.run(until=recorder_at)
        mark = len(farm.tracer)
        recorder = FlightRecorder(farm.sim, farm.tracer, capacity=100_000)
    farm.run(until=2.0)
    return farm, recorder, mark


@pytest.fixture(scope="module")
def plain_tour():
    return _tour()[0].tracer


class TestRecordDictDifferential:
    """Hot records decode to exactly the dicts the tap path builds."""

    def test_tour_trace_is_pinned(self, plain_tour):
        doc = to_chrome_trace(plain_tour)
        assert len(doc["traceEvents"]) == 1233
        digest = hashlib.sha256(json.dumps(
            doc["traceEvents"], sort_keys=True).encode()).hexdigest()
        assert digest == TOUR_TRACE_SHA256

    def test_tap_path_equals_record_path(self, plain_tour):
        tapped = []
        tracer = _tour(tap=tapped.append)[0].tracer
        # Hot records (seed fires, poll spans) and dict records both ran.
        assert {"seed", "poll", "bus", "lifecycle"} <= {
            e["cat"] for e in plain_tour.events}
        assert tracer.events == plain_tour.events
        assert tapped == tracer.events
        assert (to_chrome_trace(tracer)["traceEvents"]
                == to_chrome_trace(plain_tour)["traceEvents"])

    def test_flight_recorder_mid_run_sees_the_buffered_events(
            self, plain_tour):
        farm, recorder, mark = _tour(recorder_at=1.0)
        events = farm.tracer.events
        assert 0 < mark < len(events)
        assert events == plain_tour.events
        assert list(recorder.ring) == events[mark:]
