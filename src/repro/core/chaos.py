"""Deterministic fault injection for the control plane (chaos testing).

The :class:`FaultInjector` attaches to a :class:`repro.core.comm.ControlBus`
and perturbs every message sent through it: probabilistic loss and
duplication, fixed and jittered extra delay (which reorders messages
relative to each other), and scripted link/partition faults that cut a set
of endpoints off from the rest of the bus for a time window.

Everything is driven by one seeded ``random.Random``, so a chaos scenario
replays identically run after run — the property every test in this
repository relies on (``sim/engine.py`` is deliberately RNG-free, and this
module keeps it that way by owning its randomness).

Typical use::

    injector = FaultInjector(sim, seed=7).attach(bus)
    injector.add_rule(loss=0.2)                      # 20% uniform loss
    injector.partition_switch(2, at=10.0, duration=5.0)

Partitions are pure time windows evaluated at send time: scripting one in
the future costs no simulator events, and healing is just closing the
window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ChaosError
from repro.sim.engine import Simulator


@dataclass
class FaultRule:
    """One src/dst-scoped perturbation, active inside ``[start, end)``.

    ``src``/``dst`` are ``fnmatch`` patterns over bus endpoint names
    (e.g. ``"soil/*"`` or ``"seed/2/*"``).  ``loss`` and ``duplicate``
    are per-message probabilities; ``delay_s`` is added to every matching
    message with up to ``jitter_s`` more drawn uniformly — enough jitter
    relative to the send spacing reorders messages.
    """

    src: str = "*"
    dst: str = "*"
    loss: float = 0.0
    duplicate: float = 0.0
    delay_s: float = 0.0
    jitter_s: float = 0.0
    start: float = 0.0
    end: float = math.inf
    #: Messages this rule dropped (diagnostics).
    dropped: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ChaosError(f"loss must be a probability: {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ChaosError(
                f"duplicate must be a probability: {self.duplicate}")
        if self.delay_s < 0 or self.jitter_s < 0:
            raise ChaosError("delays must be non-negative")
        if self.end < self.start:
            raise ChaosError(
                f"rule window is empty: [{self.start}, {self.end})")

    def matches(self, src: str, dst: str, now: float) -> bool:
        return (self.start <= now < self.end
                and fnmatchcase(src, self.src)
                and fnmatchcase(dst, self.dst))


@dataclass
class Partition:
    """A scripted network partition: endpoints matching ``patterns`` are
    cut off from everything else during ``[start, end)``.  Traffic with
    both ends on the same side still flows."""

    patterns: Tuple[str, ...]
    start: float
    end: float
    #: Messages this partition dropped (diagnostics).
    dropped: int = field(default=0, compare=False)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def _inside(self, endpoint: str) -> bool:
        return any(fnmatchcase(endpoint, p) for p in self.patterns)

    def separates(self, src: str, dst: str) -> bool:
        return self._inside(src) != self._inside(dst)


@dataclass
class GrayFailure:
    """A scripted *gray* failure: one switch's control-plane output is
    probabilistically degraded — heartbeats, telemetry, and command
    replies are lost at ``loss`` — without a hard partition.

    Unlike :class:`Partition` the switch stays reachable and keeps
    answering *some* of the time, which is exactly the failure mode a
    two-stage heartbeat detector cannot confirm: suspicions flap as the
    occasional heartbeat sneaks through, and monitoring quality silently
    rots.  Remediation policies are meant to act on this.
    """

    switch_id: int
    loss: float
    start: float
    end: float
    rules: Tuple[FaultRule, ...] = ()

    def heal(self, now: float) -> None:
        """Close the degradation window at ``now``."""
        self.end = now
        for rule in self.rules:
            rule.end = now


class FaultInjector:
    """Seeded, scriptable message-fault source for one control bus."""

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = []
        self.partitions: List[Partition] = []
        self.gray_failures: List[GrayFailure] = []
        self.bus: Optional[Any] = None
        self.messages_seen = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.partition_drops = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, bus: Any) -> "FaultInjector":
        """Hook this injector into ``bus``; returns self for chaining."""
        if getattr(bus, "fault_injector", None) is not None:
            raise ChaosError("bus already has a fault injector attached")
        if self.bus is not None:
            raise ChaosError("injector is already attached to a bus")
        bus.fault_injector = self
        self.bus = bus
        return self

    # ------------------------------------------------------------------
    # Scenario scripting
    # ------------------------------------------------------------------
    def add_rule(self, src: str = "*", dst: str = "*", loss: float = 0.0,
                 duplicate: float = 0.0, delay_s: float = 0.0,
                 jitter_s: float = 0.0, start: float = 0.0,
                 end: float = math.inf) -> FaultRule:
        rule = FaultRule(src=src, dst=dst, loss=loss, duplicate=duplicate,
                         delay_s=delay_s, jitter_s=jitter_s,
                         start=start, end=end)
        self.rules.append(rule)
        return rule

    def lossy(self, loss: float, src: str = "*",
              dst: str = "*") -> FaultRule:
        """Shorthand for uniform message loss between two patterns."""
        return self.add_rule(src=src, dst=dst, loss=loss)

    def partition(self, patterns: Sequence[str],
                  at: Optional[float] = None,
                  duration: float = math.inf) -> Partition:
        """Cut ``patterns`` off from the rest of the bus.

        ``at`` defaults to *now*; scripting a future window is free.
        """
        start = self.sim.now if at is None else float(at)
        if duration <= 0:
            raise ChaosError(f"partition duration must be positive: "
                             f"{duration}")
        part = Partition(patterns=tuple(patterns), start=start,
                         end=start + duration)
        self.partitions.append(part)
        return part

    def partition_switch(self, switch_id: int,
                         at: Optional[float] = None,
                         duration: float = math.inf) -> Partition:
        """Partition one switch: its soil and every seed endpoint on it."""
        return self.partition(
            (f"soil/{switch_id}", f"seed/{switch_id}/*"),
            at=at, duration=duration)

    def gray_failure(self, switch_id: int, loss: float = 0.5,
                     at: Optional[float] = None,
                     duration: float = math.inf,
                     jitter_s: float = 0.0,
                     inbound_loss: float = 0.0) -> GrayFailure:
        """Probabilistically degrade one switch's control-plane *output*
        (heartbeats, lifecycle reports, seed telemetry) without cutting it
        off.  ``inbound_loss`` additionally degrades commands *toward*
        the switch (default 0: a gray switch usually hears fine and
        answers badly).  Returns a :class:`GrayFailure` handle whose
        :meth:`GrayFailure.heal` closes the window early.
        """
        if not 0.0 <= loss <= 1.0:
            raise ChaosError(f"loss must be a probability: {loss}")
        if not 0.0 <= inbound_loss <= 1.0:
            raise ChaosError(
                f"inbound_loss must be a probability: {inbound_loss}")
        start = self.sim.now if at is None else float(at)
        if duration <= 0:
            raise ChaosError(
                f"gray-failure duration must be positive: {duration}")
        end = start + duration
        rules = [
            self.add_rule(src=f"soil/{switch_id}", loss=loss,
                          jitter_s=jitter_s, start=start, end=end),
            self.add_rule(src=f"seed/{switch_id}/*", loss=loss,
                          jitter_s=jitter_s, start=start, end=end),
        ]
        if inbound_loss:
            rules.append(self.add_rule(dst=f"soil/{switch_id}",
                                       loss=inbound_loss,
                                       jitter_s=jitter_s,
                                       start=start, end=end))
        failure = GrayFailure(switch_id=switch_id, loss=loss,
                              start=start, end=end, rules=tuple(rules))
        self.gray_failures.append(failure)
        return failure

    def heal(self) -> int:
        """End every currently-active partition and gray failure;
        returns how many closed."""
        now = self.sim.now
        healed = 0
        for part in self.partitions:
            if part.active(now):
                part.end = now
                healed += 1
        for gray in self.gray_failures:
            if gray.start <= now < gray.end:
                gray.heal(now)
                healed += 1
        return healed

    # ------------------------------------------------------------------
    # The hook the bus calls
    # ------------------------------------------------------------------
    def plan(self, src: str, dst: str) -> List[float]:
        """Decide the fate of one message: a list of per-copy extra
        delays (empty list = dropped, two entries = duplicated)."""
        now = self.sim.now
        self.messages_seen += 1
        for part in self.partitions:
            if part.active(now) and part.separates(src, dst):
                part.dropped += 1
                self.partition_drops += 1
                self.messages_dropped += 1
                return []
        extra = 0.0
        copies = 1
        for rule in self.rules:
            if not rule.matches(src, dst, now):
                continue
            if rule.loss and self.rng.random() < rule.loss:
                rule.dropped += 1
                self.messages_dropped += 1
                return []
            if rule.delay_s or rule.jitter_s:
                extra += rule.delay_s + rule.jitter_s * self.rng.random()
            if rule.duplicate and self.rng.random() < rule.duplicate:
                copies += 1
                self.messages_duplicated += 1
        if extra > 0.0:
            self.messages_delayed += 1
        delays = [extra]
        for _ in range(copies - 1):
            # A duplicate takes its own (jittered) path through the broker.
            dup_extra = extra
            for rule in self.rules:
                if rule.matches(src, dst, now) and rule.jitter_s:
                    dup_extra += rule.jitter_s * self.rng.random()
            delays.append(dup_extra)
        return delays

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "seen": self.messages_seen,
            "dropped": self.messages_dropped,
            "duplicated": self.messages_duplicated,
            "delayed": self.messages_delayed,
            "partition_drops": self.partition_drops,
        }
