"""Tracer semantics, and the disabled-instrumentation fast path."""

from repro.almanac import MachineInstance
from repro.obs.trace import MAX_TRACE_EVENTS, NULL_SPAN, NULL_TRACER, Tracer
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


class TestDisabledFastPath:
    """Disabled tracing must not allocate or buffer anything per event."""

    def test_disabled_span_is_the_null_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("work", track="switch/1")
        assert span is NULL_SPAN
        span.finish(result="ignored")  # no-op, no error
        assert len(tracer) == 0

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        for _ in range(1000):
            tracer.instant("fire", track="seed/1")
            tracer.complete("poll", track="switch/1", start=0.0, duration=1.0)
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

    def test_toggle_mid_run(self):
        tracer = Tracer(enabled=False)
        tracer.instant("off", track="t")
        tracer.enabled = True
        tracer.instant("on", track="t")
        tracer.enabled = False
        tracer.instant("off again", track="t")
        assert [e["name"] for e in tracer.events] == ["on"]


class TestRecording:
    def test_span_records_duration_from_clock(self):
        clock = {"now": 1.0}
        tracer = Tracer(clock=lambda: clock["now"], enabled=True)
        span = tracer.span("handler", track="switch/2", cat="poll",
                           args={"trace_id": "s1"})
        clock["now"] = 3.5
        span.finish(handled=True)
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["ts"] == 1.0
        assert event["dur"] == 2.5
        assert event["args"] == {"trace_id": "s1", "handled": True}

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

    def test_max_events_drops_not_grows(self):
        tracer = Tracer(enabled=True, max_events=10)
        for _ in range(25):
            tracer.instant("e", track="t")
        assert len(tracer) == 10
        assert tracer.dropped == 15
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_default_cap_is_sane(self):
        assert MAX_TRACE_EVENTS >= 100_000
