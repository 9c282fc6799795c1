"""Guardrails: the layer that keeps remediation from becoming the outage.

Every action request passes through :meth:`Guardrails.check` before it
may run.  The checks, in evaluation order:

* **already-active** — one open intervention per switch; a second
  disruptive action on the same switch waits for the first to restore.
* **flap suppression** — a switch whose alert keeps cycling
  degraded↔healthy accumulates interventions; past ``flap_limit`` inside
  ``flap_window_s`` the switch is suppressed (hysteresis: acting again
  would just thrash seeds back and forth).
* **cooldown** — per-(action, switch) minimum spacing.
* **concurrency budget** — at most ``max_active`` open interventions
  fleet-wide.
* **blast radius** — at most ``blast_radius`` *distinct switches*
  touched per ``blast_window_s``, however the actions are spread.

Guardrail state is engine-owned bookkeeping, deliberately not derived
from seeder/FT state: a **dry-run** engine must make the identical
decision sequence without mutating the deployment, so the guardrails
commit their own counters in both modes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

#: Actions that take capacity away from a switch (and therefore consume
#: the concurrency budget and blast radius); "restore" undoes one, so it
#: counts against neither cap.
DISRUPTIVE_ACTIONS = frozenset({"drain", "escalate"})


@dataclass
class GuardrailConfig:
    """Tunable limits; defaults sized for tens-of-switches fabrics."""

    #: Per-action cooldown overrides; ``default_cooldown_s`` otherwise.
    cooldown_s: Dict[str, float] = field(default_factory=dict)
    default_cooldown_s: float = 10.0
    #: Max simultaneously open disruptive interventions fleet-wide.
    max_active: int = 2
    #: Max distinct switches disrupted per blast window.
    blast_radius: int = 2
    blast_window_s: float = 60.0
    #: Interventions on one switch inside the flap window before the
    #: switch is suppressed as flapping.
    flap_limit: int = 2
    flap_window_s: float = 30.0


class Guardrails:
    """Stateful admission control for remediation actions."""

    def __init__(self, config: Optional[GuardrailConfig] = None) -> None:
        self.config = config or GuardrailConfig()
        #: Last commit time per (action, switch) — cooldown bookkeeping.
        self.last_committed: Dict[Tuple[str, Optional[int]], float] = {}
        #: Open disruptive interventions: switch -> action that opened it.
        self.active: Dict[Optional[int], str] = {}
        #: (t, switch) of recent disruptive commits — blast radius.
        self._blast: Deque[Tuple[float, Optional[int]]] = deque()
        #: Recent disruptive-commit times per switch — flap suppression.
        self._flaps: Dict[Optional[int], Deque[float]] = {}

    # ------------------------------------------------------------------
    def check(self, action: str, switch: Optional[int],
              now: float) -> Optional[str]:
        """Return ``None`` if the action may run at sim-time ``now``, else
        the name of the guardrail that refuses it."""
        disruptive = action in DISRUPTIVE_ACTIONS
        if action == "restore":
            # Restores only make sense against an open intervention.
            if switch not in self.active:
                return "idle"
            return self._cooldown_block(action, switch, now)
        if disruptive:
            if switch in self.active:
                return "already-active"
            if self._flapping(switch, now):
                return "flap"
        block = self._cooldown_block(action, switch, now)
        if block is not None:
            return block
        if disruptive:
            if len(self.active) >= self.config.max_active:
                return "budget"
            if self._blast_exceeded(switch, now):
                return "blast-radius"
        return None

    def commit(self, action: str, switch: Optional[int],
               now: float) -> None:
        """Record that the action was decided (executed or dry-run)."""
        self.last_committed[(action, switch)] = now
        if action in DISRUPTIVE_ACTIONS:
            self.active[switch] = action
            self._blast.append((now, switch))
            self._flaps.setdefault(switch, deque()).append(now)
        elif action == "restore":
            self.active.pop(switch, None)

    # ------------------------------------------------------------------
    def _cooldown_block(self, action: str, switch: Optional[int],
                        now: float) -> Optional[str]:
        last = self.last_committed.get((action, switch))
        cooldown = self.config.cooldown_s.get(
            action, self.config.default_cooldown_s)
        if last is not None and now - last < cooldown:
            return "cooldown"
        return None

    def _flapping(self, switch: Optional[int], now: float) -> bool:
        window = self._flaps.get(switch)
        if not window:
            return False
        cutoff = now - self.config.flap_window_s
        while window and window[0] < cutoff:
            window.popleft()
        return len(window) >= self.config.flap_limit

    def _blast_exceeded(self, switch: Optional[int], now: float) -> bool:
        cutoff = now - self.config.blast_window_s
        while self._blast and self._blast[0][0] < cutoff:
            self._blast.popleft()
        touched = {sw for _t, sw in self._blast}
        return switch not in touched \
            and len(touched) >= self.config.blast_radius

    # ------------------------------------------------------------------
    def active_count(self) -> int:
        return len(self.active)
