"""Ternary content-addressable memory (TCAM) model.

The TCAM holds prioritized match/action rules.  Following iSTAMP (cited in
SII-B-b), the table is *divided* between a forwarding region and a
monitoring region so that FARM's monitoring rules can be rearranged without
perturbing switching behaviour; the division is fixed at construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import TcamError
from repro.net.filters import Filter
from repro.net.packet import FlowKey
from repro.obs.metrics import MetricsRegistry

FORWARDING = "forwarding"
MONITORING = "monitoring"


class RuleAction(Enum):
    """What a matching rule does to traffic."""

    FORWARD = "forward"
    DROP = "drop"
    RATE_LIMIT = "rate_limit"
    MIRROR = "mirror"
    COUNT = "count"
    SET_QOS = "set_qos"


@dataclass
class TcamRule:
    """A single match/action entry.

    ``pattern`` is a :class:`~repro.net.filters.Filter`; higher ``priority``
    wins.  ``params`` carries action arguments (e.g. a rate limit in B/s or
    a QoS class).  The install time anchors the rule's traffic counters.
    """

    pattern: Filter
    action: RuleAction = RuleAction.COUNT
    priority: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    region: str = MONITORING
    rule_id: int = -1
    installed_at: float = 0.0

    def matches_key(self, key: FlowKey) -> bool:
        return self.pattern.matches_key(key)


class Tcam:
    """A divided TCAM with priority matching.

    Capacity is in *entries*.  ``monitoring_share`` of the capacity is
    reserved for monitoring rules; the remainder for forwarding.  Either
    region rejects installs past its share — FARM never steals forwarding
    space (SII-B-b: "the switching behavior is not affected").
    """

    def __init__(self, capacity: int, monitoring_share: float = 0.25,
                 registry: Optional[MetricsRegistry] = None,
                 labels: Optional[Mapping[str, Any]] = None) -> None:
        if capacity <= 0:
            raise TcamError(f"TCAM capacity must be positive: {capacity}")
        if not 0.0 <= monitoring_share <= 1.0:
            raise TcamError(f"monitoring share out of range: {monitoring_share}")
        self.capacity = capacity
        self._monitoring_capacity = int(capacity * monitoring_share)
        self._rules: Dict[int, TcamRule] = {}
        self._ids = itertools.count(1)
        #: Bumped by every install/remove; whoever memoises anything
        #: derived from the rule set (the priority order below, the ASIC's
        #: flow classification) compares it with the version cached at.
        self.version = 0
        self._sorted: List[TcamRule] = []
        self._sorted_version = 0
        self.metrics = registry or MetricsRegistry()
        base = dict(labels) if labels else {}
        self._g_rules = {
            region: self.metrics.gauge(
                "farm_tcam_rules", "Installed TCAM rules per region.",
                labels={**base, "region": region})
            for region in (FORWARDING, MONITORING)}

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    def used(self, region: Optional[str] = None) -> int:
        if region is None:
            return len(self._rules)
        return sum(1 for rule in self._rules.values() if rule.region == region)

    def available(self, region: str) -> int:
        cap = (self._monitoring_capacity if region == MONITORING
               else self.capacity - self._monitoring_capacity)
        return cap - self.used(region)

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------
    def install(self, rule: TcamRule, now: float = 0.0) -> int:
        """Install a rule; returns its id.  Raises on a full region."""
        if rule.region not in (FORWARDING, MONITORING):
            raise TcamError(f"unknown TCAM region: {rule.region!r}")
        if self.available(rule.region) <= 0:
            raise TcamError(
                f"TCAM {rule.region} region full "
                f"({self.used(rule.region)} entries)")
        rule.rule_id = next(self._ids)
        rule.installed_at = now
        self._rules[rule.rule_id] = rule
        self.version += 1
        self._g_rules[rule.region].set(self.used(rule.region))
        return rule.rule_id

    def remove(self, rule_id: int) -> TcamRule:
        """Remove by id; returns the removed rule."""
        try:
            rule = self._rules.pop(rule_id)
        except KeyError:
            raise TcamError(f"no TCAM rule with id {rule_id}") from None
        self.version += 1
        self._g_rules[rule.region].set(self.used(rule.region))
        return rule

    def get(self, rule_id: int) -> TcamRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise TcamError(f"no TCAM rule with id {rule_id}") from None

    def find(self, pattern: Filter) -> Optional[TcamRule]:
        """The highest-priority rule with exactly this pattern, if any."""
        candidates = [rule for rule in self._rules.values()
                      if rule.pattern == pattern]
        if not candidates:
            return None
        return max(candidates, key=lambda rule: (rule.priority, -rule.rule_id))

    def rules(self, region: Optional[str] = None) -> List[TcamRule]:
        """All rules, optionally restricted to a region, by priority desc."""
        self._ensure_sorted()
        if region is None:
            return list(self._sorted)
        return [rule for rule in self._sorted if rule.region == region]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _ensure_sorted(self) -> None:
        if self._sorted_version != self.version:
            # Ties broken by id: earlier-installed wins, like real TCAMs
            # where position decides among equal priorities.
            self._sorted = sorted(self._rules.values(),
                                  key=lambda r: (-r.priority, r.rule_id))
            self._sorted_version = self.version
