"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import (
    MILLIS,
    PeriodicTimer,
    Simulator,
    exponential_backoff,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fires_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(1.0, order.append, name)
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "low", priority=5)
        sim.schedule(1.0, order.append, "high", priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_and_inf_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, order.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.alive

    def test_pending_counts_live_events_only(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        assert keep.alive


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_until_advances_time_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self):
        sim = Simulator()
        count = []

        def recur():
            count.append(1)
            sim.schedule(1.0, recur)

        sim.schedule(1.0, recur)
        sim.run(max_events=10)
        assert len(count) == 10

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()


class TestPeriodicTimer:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(0.5, lambda: times.append(sim.now))
        sim.run(until=2.0)
        assert times == [0.5, 1.0, 1.5, 2.0]

    def test_start_after_overrides_first_firing(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda: times.append(sim.now), start_after=0.1)
        sim.run(until=2.5)
        assert times == pytest.approx([0.1, 1.1, 2.1])

    def test_stop_halts_firings(self):
        sim = Simulator()
        times = []
        timer = sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=2.5)
        timer.stop()
        sim.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_reschedule_changes_period(self):
        sim = Simulator()
        times = []
        timer = sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=2.0)  # fires at 1.0, 2.0
        timer.reschedule(0.25)
        sim.run(until=3.0)
        assert times[:2] == [1.0, 2.0]
        assert times[2:] == pytest.approx([2.25, 2.5, 2.75, 3.0])

    def test_callback_may_stop_timer(self):
        sim = Simulator()
        timer_box = {}

        def cb():
            timer_box["t"].stop()

        timer_box["t"] = sim.every(1.0, cb)
        sim.run(until=10.0)
        assert timer_box["t"].fire_count == 1

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_milliseconds_constant(self):
        assert MILLIS == pytest.approx(1e-3)


class TestHelpers:
    def test_exponential_backoff_caps(self):
        assert exponential_backoff(1.0, 0, 10.0) == 1.0
        assert exponential_backoff(1.0, 3, 10.0) == 8.0
        assert exponential_backoff(1.0, 10, 10.0) == 10.0


class TestTupleHeapFastPath:
    """Regression tests for the tuple-entry heap rewrite."""

    def test_same_time_same_priority_fifo(self):
        # Entries are (time, priority, seq, event): the monotone seq must
        # break ties in scheduling order, never by Event identity.
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(50))

    def test_pending_is_live_count(self):
        sim = Simulator()
        events = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
        assert sim.pending() == 10
        events[3].cancel()
        events[7].cancel()
        assert sim.pending() == 8
        events[3].cancel()  # double-cancel must not double-count
        assert sim.pending() == 8
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        event.cancel()
        assert sim.pending() == 0

    def test_tombstone_compaction_keeps_live_events(self):
        # Cancel enough events to trip compaction, then check the
        # survivors still fire in order.
        sim = Simulator()
        fired = []
        keep = [sim.schedule_at(1000.0 + i, lambda i=i: fired.append(i))
                for i in range(5)]
        doomed = [sim.schedule_at(float(i), lambda: fired.append("bad"))
                  for i in range(200)]
        for event in doomed:
            event.cancel()
        assert sim.pending() == len(keep)
        assert len(sim._heap) < 205  # compaction actually ran
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_reschedule_from_inside_own_callback(self):
        # A timer callback that reschedules its own timer: the cancel
        # tombstones the in-flight next occurrence and re-arms from `now`.
        sim = Simulator()
        times = []
        timer_box = {}

        def cb():
            times.append(sim.now)
            if len(times) == 2:
                timer_box["t"].reschedule(5.0)

        timer_box["t"] = sim.every(1.0, cb)
        sim.run(until=14.0)
        assert times == pytest.approx([1.0, 2.0, 7.0, 12.0])


class TestAdaptiveCompaction:
    def test_cancel_heavy_small_heap_amortizes(self):
        # A tiny live set with thousands of cancels: the floor doubles at
        # each compaction, so compaction count grows logarithmically
        # instead of once per 64 cancels.
        sim = Simulator()
        keep = [sim.schedule_at(1e6 + i, lambda: None) for i in range(5)]
        for i in range(2000):
            sim.schedule_at(float(i + 1), lambda: None).cancel()
        # Fixed-floor behaviour would compact 2000/64 ~ 31 times; the
        # adaptive floor (64,128,...,1024) needs at most 6.
        assert 1 <= sim.compactions <= 6
        assert sim.pending() == len(keep)
        from repro.sim.engine import _COMPACT_MAX_DEAD, _COMPACT_MIN_DEAD
        assert _COMPACT_MIN_DEAD <= sim._compact_floor <= _COMPACT_MAX_DEAD

    def test_large_heap_waits_for_live_parity(self):
        # With many live events, compaction must wait for tombstones to
        # rival the live count (dead >= live), not fire at the fixed
        # minimum and rescan a big heap for little gain.
        sim = Simulator()
        live = [sim.schedule_at(1e6 + i, lambda: None) for i in range(500)]
        doomed = [sim.schedule_at(float(i + 1), lambda: None)
                  for i in range(499)]
        for event in doomed:
            event.cancel()
        assert sim.compactions == 0  # dead=499 < live=500
        extra = sim.schedule_at(0.5, lambda: None)
        extra.cancel()
        assert sim.compactions == 1  # dead=500 >= live=500
        # Next floor tracks the live size (clamped to the cap).
        assert sim._compact_floor == min(len(live), 1024)
        assert sim.pending() == len(live)

    def test_floor_is_capped(self):
        sim = Simulator()
        sim.schedule_at(1e9, lambda: None)
        for i in range(30000):
            sim.schedule_at(float(i + 1), lambda: None).cancel()
        from repro.sim.engine import _COMPACT_MAX_DEAD
        assert sim._compact_floor <= _COMPACT_MAX_DEAD
        # The heap never holds more than cap + live entries for long.
        assert len(sim._heap) <= _COMPACT_MAX_DEAD + sim.pending()

    def test_survivors_fire_in_order_after_many_compactions(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule_at(100.0 + i, lambda i=i: fired.append(i))
        for round_ in range(5):
            doomed = [sim.schedule_at(50.0 + i * 1e-6, lambda: None)
                      for i in range(300)]
            for event in doomed:
                event.cancel()
        assert sim.compactions >= 1
        sim.run()
        assert fired == list(range(10))
