"""Policies are pure deciders: alert transitions in, action requests out."""

import pytest

from repro.obs.alerts import AlertEvent
from repro.remediation import (
    DrainPolicy,
    EscalatePolicy,
)


def alert(state, t=0.0, rule="hb", switch=1):
    labels = () if switch is None else (("switch", str(switch)),)
    return AlertEvent(t=t, rule=rule, labels=labels, state=state, value=0.0)


class TestDrainPolicy:
    def test_firing_drains_resolved_restores(self):
        policy = DrainPolicy("hb")
        (drain,) = policy.actions_for(alert("firing", t=3.0))
        assert (drain.action, drain.switch) == ("drain", 1)
        assert drain.policy == "DrainPolicy"
        assert drain.alert_state == "firing"
        assert drain.alert_t == 3.0
        (restore,) = policy.actions_for(alert("resolved", t=9.0))
        assert (restore.action, restore.switch) == ("restore", 1)

    def test_ignores_other_rules_and_states(self):
        policy = DrainPolicy("hb")
        assert policy.actions_for(alert("firing", rule="other")) == []
        assert policy.actions_for(alert("pending")) == []
        assert policy.actions_for(alert("suppressed")) == []

    def test_missing_switch_label_is_a_no_op(self):
        policy = DrainPolicy("hb")
        assert policy.actions_for(alert("firing", switch=None)) == []


class TestEscalatePolicy:
    def test_act_on_first_is_rejected(self):
        with pytest.raises(ValueError):
            EscalatePolicy("hb", breaches=1)

    def test_single_transient_breach_never_escalates(self):
        policy = EscalatePolicy("hb", breaches=3, window_s=30.0)
        assert policy.actions_for(alert("firing", t=5.0)) == []
        assert policy.actions_for(alert("resolved", t=8.0)) == []

    def test_breaches_outside_window_do_not_accumulate(self):
        policy = EscalatePolicy("hb", breaches=2, window_s=10.0)
        assert policy.actions_for(alert("firing", t=0.0)) == []
        # Second breach lands after the first slid out of the window.
        assert policy.actions_for(alert("firing", t=50.0)) == []

    def test_repeated_breaches_escalate_once_per_window(self):
        policy = EscalatePolicy("hb", breaches=3, window_s=30.0)
        assert policy.actions_for(alert("firing", t=1.0)) == []
        assert policy.actions_for(alert("firing", t=8.0)) == []
        (req,) = policy.actions_for(alert("firing", t=15.0))
        assert (req.action, req.switch) == ("escalate", 1)
        # The accumulated window is consumed: the next breach starts over.
        assert policy.actions_for(alert("firing", t=16.0)) == []

    def test_windows_are_per_switch(self):
        policy = EscalatePolicy("hb", breaches=2, window_s=30.0)
        assert policy.actions_for(alert("firing", t=1.0, switch=1)) == []
        assert policy.actions_for(alert("firing", t=2.0, switch=2)) == []
        (req,) = policy.actions_for(alert("firing", t=3.0, switch=1))
        assert req.switch == 1
