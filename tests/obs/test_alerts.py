"""Alert engine: rule lifecycle, hysteresis, anomaly baselines, hooks."""

import pytest

from repro.obs.alerts import (
    FIRING,
    PENDING,
    RESOLVED,
    SCARECROW_TRACK,
    SUPPRESSED,
    AlertManager,
    EwmaAnomalyRule,
    ThresholdRule,
)
from repro.obs.query import QueryEngine
from repro.obs.trace import Tracer
from repro.obs.tsdb import TimeSeriesStore


def _manager():
    store = TimeSeriesStore()
    engine = QueryEngine(store)
    return store, engine, AlertManager(engine)


def _states(manager, rule):
    return [e.state for e in manager.events_for(rule)]


class TestThresholdLifecycle:
    def test_immediate_fire_and_resolve(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", None, 1.0, 3.0)
        manager.evaluate(1.0)
        assert manager.log == []
        store.append("g", None, 2.0, 9.0)
        manager.evaluate(2.0)
        assert _states(manager, "hot") == [PENDING, FIRING]
        store.append("g", None, 3.0, 1.0)
        manager.evaluate(3.0)
        assert _states(manager, "hot") == [PENDING, FIRING, RESOLVED]
        assert manager.firing() == []

    def test_for_s_hold_before_firing(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0,
                                       for_s=2.0))
        for t in (1.0, 2.0, 3.0, 4.0):
            store.append("g", None, t, 9.0)
            manager.evaluate(t)
        events = manager.events_for("hot")
        assert [e.state for e in events] == [PENDING, FIRING]
        assert events[0].t == 1.0
        assert events[1].t == 3.0  # held for for_s before promoting

    def test_flap_is_suppressed_not_fired(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0,
                                       for_s=10.0))
        store.append("g", None, 1.0, 9.0)
        manager.evaluate(1.0)
        store.append("g", None, 2.0, 1.0)
        manager.evaluate(2.0)
        assert _states(manager, "hot") == [PENDING, SUPPRESSED]
        assert all(alert.state != PENDING
                   for alert in manager.active.values())

    def test_hysteresis_holds_alert_in_band(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=10.0,
                                       clear_threshold=5.0))
        store.append("g", None, 1.0, 20.0)
        manager.evaluate(1.0)
        # Back inside the band: above clear, below breach -> still firing.
        store.append("g", None, 2.0, 7.0)
        manager.evaluate(2.0)
        assert len(manager.firing()) == 1
        store.append("g", None, 3.0, 4.0)
        manager.evaluate(3.0)
        assert _states(manager, "hot") == [PENDING, FIRING, RESOLVED]

    def test_hysteresis_must_widen(self):
        with pytest.raises(ValueError):
            ThresholdRule("bad", "g", op=">", threshold=5.0,
                          clear_threshold=7.0)
        with pytest.raises(ValueError):
            ThresholdRule("bad", "g", op="<", threshold=5.0,
                          clear_threshold=3.0)

    def test_below_threshold_direction(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("cold", "g", op="<", threshold=2.0))
        store.append("g", None, 1.0, 1.0)
        manager.evaluate(1.0)
        assert _states(manager, "cold") == [PENDING, FIRING]

    def test_per_label_independence(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", {"sw": 1}, 1.0, 9.0)
        store.append("g", {"sw": 2}, 1.0, 1.0)
        manager.evaluate(1.0)
        firing = manager.firing()
        assert len(firing) == 1
        assert dict(firing[0].labels) == {"sw": "1"}

    def test_aggregate_sum(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("fleet", "g", op=">", threshold=5.0,
                                       aggregate="sum"))
        store.append("g", {"sw": 1}, 1.0, 3.0)
        store.append("g", {"sw": 2}, 1.0, 4.0)
        manager.evaluate(1.0)
        assert len(manager.firing()) == 1
        assert manager.firing()[0].labels == ()

    def test_expr_escape_hatch(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule(
            "ratio", op=">", threshold=0.5,
            expr=lambda engine, now: {
                (): engine.instant("hits", at=now)[()]
                / engine.instant("total", at=now)[()]}))
        store.append("hits", None, 1.0, 8.0)
        store.append("total", None, 1.0, 10.0)
        manager.evaluate(1.0)
        assert len(manager.firing()) == 1

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule("x", "g", op=">=")
        with pytest.raises(ValueError):
            ThresholdRule("x")  # neither selector nor expr
        with pytest.raises(ValueError):
            ThresholdRule("x", "g", aggregate="avg")
        with pytest.raises(ValueError):
            ThresholdRule("x", "g", for_s=-1.0)
        with pytest.raises(ValueError):
            ThresholdRule("x", "g", reducer="rate", window_s=0.0)


class TestEwmaAnomaly:
    def test_warmup_then_breach_on_spike(self):
        store, _, manager = _manager()
        manager.add_rule(EwmaAnomalyRule(
            "anomaly", "g", reducer="instant", z_threshold=4.0,
            min_samples=5, min_std=0.5))
        for t in range(10):
            store.append("g", None, float(t), 10.0)
            manager.evaluate(float(t))
        assert manager.log == []  # flat baseline, no alerts
        store.append("g", None, 10.0, 100.0)
        manager.evaluate(10.0)
        assert _states(manager, "anomaly") == [PENDING, FIRING]

    def test_baseline_frozen_while_breached(self):
        store, _, manager = _manager()
        rule = EwmaAnomalyRule("anomaly", "g", reducer="instant",
                               z_threshold=4.0, min_samples=3,
                               min_std=0.5, alpha=0.5)
        manager.add_rule(rule)
        for t in range(5):
            store.append("g", None, float(t), 10.0)
            manager.evaluate(float(t))
        baseline = rule._state[()].mean
        # A long incident must not teach the detector that broken is OK.
        for t in range(5, 15):
            store.append("g", None, float(t), 100.0)
            manager.evaluate(float(t))
        assert rule._state[()].mean == baseline
        assert len(manager.firing()) == 1
        # Recovery: back near baseline clears and unfreezes.
        for t in range(15, 18):
            store.append("g", None, float(t), 10.0)
            manager.evaluate(float(t))
        assert _states(manager, "anomaly")[-1] == RESOLVED

    def test_direction_below_ignores_rises(self):
        store, _, manager = _manager()
        manager.add_rule(EwmaAnomalyRule(
            "drop", "g", reducer="instant", direction="below",
            z_threshold=3.0, min_samples=3, min_std=0.5))
        for t in range(6):
            store.append("g", None, float(t), 10.0)
            manager.evaluate(float(t))
        store.append("g", None, 6.0, 12.0)  # rise: not our direction
        manager.evaluate(6.0)
        assert manager.log == []
        store.append("g", None, 7.0, 0.0)  # drop: breach
        manager.evaluate(7.0)
        assert _states(manager, "drop") == [PENDING, FIRING]

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaAnomalyRule("x", "g", alpha=0.0)
        with pytest.raises(ValueError):
            EwmaAnomalyRule("x", "g", direction="sideways")
        with pytest.raises(ValueError):
            EwmaAnomalyRule("x", "g", z_threshold=0.0)
        with pytest.raises(ValueError):
            EwmaAnomalyRule("x", "g", window_s=0.0)


class TestManager:
    def test_duplicate_rule_name_rejected(self):
        _, _, manager = _manager()
        manager.add_rule(ThresholdRule("a", "g"))
        with pytest.raises(ValueError):
            manager.add_rule(ThresholdRule("a", "h"))

    def test_transitions_returned_from_evaluate(self):
        store, _, manager = _manager()
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", None, 1.0, 9.0)
        transitions = manager.evaluate(1.0)
        assert [t.state for t in transitions] == [PENDING, FIRING]

    def test_events_recorded_on_scarecrow_track(self):
        store = TimeSeriesStore()
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"], enabled=True)
        manager = AlertManager(QueryEngine(store), tracer=tracer)
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0,
                                       severity="critical"))
        store.append("g", None, 1.0, 9.0)
        clock["now"] = 1.0
        manager.evaluate(1.0)
        tracks = {e["track"] for e in tracer.events}
        assert tracks == {SCARECROW_TRACK}
        assert tracer.events[-1]["args"]["severity"] == "critical"

    def test_fault_tolerance_feed_acts_on_firing_only(self):
        store, _, manager = _manager()

        class FakeFT:
            def __init__(self):
                self.calls = []

            def external_suspicion(self, switch_id, source=""):
                self.calls.append((switch_id, source))
                return True

        ft = FakeFT()
        manager.feed_fault_tolerance(ft)
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", {"switch": 3}, 1.0, 9.0)
        store.append("g", {"other": "x"}, 1.0, 9.0)  # no switch label
        manager.evaluate(1.0)
        assert ft.calls == [(3, "scarecrow:hot")]


class TestTransitionHooks:
    def test_hooks_see_every_transition(self):
        store, _, manager = _manager()
        seen = []
        manager.on_transition.append(
            lambda e: seen.append((e.t, e.rule, e.state)))
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", None, 1.0, 9.0)
        manager.evaluate(1.0)
        store.append("g", None, 2.0, 1.0)
        manager.evaluate(2.0)
        assert seen == [(1.0, "hot", PENDING), (1.0, "hot", FIRING),
                        (2.0, "hot", RESOLVED)]

    def test_hooks_run_after_evaluation_settles(self):
        # A hook that inspects the manager must observe the fully
        # updated state, not a half-applied evaluation pass.
        store, _, manager = _manager()
        firing_during_hook = []
        manager.on_transition.append(
            lambda e: firing_during_hook.append(
                (e.state, [a.rule.name for a in manager.firing()])))
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", None, 1.0, 9.0)
        manager.evaluate(1.0)
        assert firing_during_hook == [
            (PENDING, ["hot"]), (FIRING, ["hot"])]

    def test_multiple_hooks_and_removal(self):
        store, _, manager = _manager()
        first, second = [], []
        hook = lambda e: first.append(e.state)  # noqa: E731
        manager.on_transition.append(hook)
        manager.on_transition.append(lambda e: second.append(e.state))
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        store.append("g", None, 1.0, 9.0)
        manager.evaluate(1.0)
        manager.on_transition.remove(hook)
        store.append("g", None, 2.0, 1.0)
        manager.evaluate(2.0)
        assert first == [PENDING, FIRING]
        assert second == [PENDING, FIRING, RESOLVED]
