"""Remediation policies: alert lifecycle transitions → action requests.

A :class:`Policy` watches one alert rule and translates its lifecycle
transitions into :class:`ActionRequest`\\ s.  Policies are pure deciders:
they never touch the deployment (the engine executes, the guardrails
admit), which is what makes dry-run mode byte-for-byte faithful.

The switch a policy targets is read from the alert's labels (the
``label`` parameter, default ``"switch"``) — Scarecrow rules over
per-switch series like ``farm_ft_heartbeats_total{switch=...}`` carry
it naturally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.alerts import AlertEvent

#: Alert lifecycle states policies react to.
FIRING = "firing"
RESOLVED = "resolved"


@dataclass(frozen=True)
class ActionRequest:
    """One action a policy wants executed."""

    action: str            # drain / restore / resolve / quarantine / ...
    switch: Optional[int]
    policy: str
    rule: str
    labels: Tuple[Tuple[str, str], ...]
    alert_state: str
    alert_t: float


def _switch_from(event: AlertEvent, label: str) -> Optional[int]:
    for key, value in event.labels:
        if key == label:
            try:
                return int(value)
            except ValueError:
                return None
    return None


class Policy:
    """Base: subscribe to one rule, emit action requests."""

    def __init__(self, rule: str, label: str = "switch") -> None:
        self.rule = rule
        self.label = label

    def _request(self, event: AlertEvent, action: str,
                 switch: Optional[int]) -> ActionRequest:
        return ActionRequest(
            action=action, switch=switch,
            policy=type(self).__name__, rule=event.rule,
            labels=tuple(event.labels), alert_state=event.state,
            alert_t=event.t)

    def actions_for(self, event: AlertEvent) -> List[ActionRequest]:
        raise NotImplementedError


class DrainPolicy(Policy):
    """FIRING → drain the labeled switch; RESOLVED → restore it.

    Drain cordons the switch and runs a scoped reoptimize so its seeds
    migrate to survivors — the switch keeps running (graceful), it just
    stops being a placement target.
    """

    def __init__(self, rule: str, label: str = "switch",
                 restore_on_resolve: bool = True) -> None:
        super().__init__(rule, label)
        self.restore_on_resolve = restore_on_resolve

    def actions_for(self, event: AlertEvent) -> List[ActionRequest]:
        if event.rule != self.rule:
            return []
        switch = _switch_from(event, self.label)
        if switch is None:
            return []
        if event.state == FIRING:
            return [self._request(event, "drain", switch)]
        if event.state == RESOLVED and self.restore_on_resolve:
            return [self._request(event, "restore", switch)]
        return []


@dataclass
class _BreachWindow:
    times: Deque[float] = field(default_factory=deque)


class EscalatePolicy(Policy):
    """Repeated FIRING transitions → promote to a forced failover.

    One transient breach never escalates: the policy counts *distinct*
    FIRING transitions per switch and only acts when ``breaches`` of
    them land inside ``window_s`` — the signature of a gray switch whose
    alert keeps re-firing because heartbeats trickle through and the
    two-stage detector can never confirm the failure on its own.
    """

    def __init__(self, rule: str, label: str = "switch",
                 breaches: int = 3, window_s: float = 30.0) -> None:
        super().__init__(rule, label)
        if breaches < 2:
            raise ValueError("escalation needs at least 2 breaches; "
                             "use DrainPolicy to act on the first")
        self.breaches = breaches
        self.window_s = window_s
        self._windows: Dict[int, _BreachWindow] = {}

    def actions_for(self, event: AlertEvent) -> List[ActionRequest]:
        if event.rule != self.rule or event.state != FIRING:
            return []
        switch = _switch_from(event, self.label)
        if switch is None:
            return []
        window = self._windows.setdefault(switch, _BreachWindow())
        window.times.append(event.t)
        cutoff = event.t - self.window_s
        while window.times and window.times[0] < cutoff:
            window.times.popleft()
        if len(window.times) < self.breaches:
            return []
        window.times.clear()  # one escalation per accumulated window
        return [self._request(event, "escalate", switch)]
