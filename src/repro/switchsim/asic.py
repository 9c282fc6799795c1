"""Forwarding-ASIC model.

The ASIC carries attached rate-based flows between ports, maintains exact
per-port and per-TCAM-rule counters (integrals of flow rates), applies rule
actions (drop / rate-limit / QoS), and samples packets for probing.  Its
internal bandwidth dwarfs the PCIe management path (SVI-E-a
measures a 1:12500 ratio), which is why counter values live *here* and every
read must cross the :class:`~repro.switchsim.pcie.PcieBus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import SwitchError
from repro.net.filters import ANY_PORT, Filter
from repro.net.packet import Flow, FlowWatch, ProbeBatch
from repro.sim.engine import Simulator
from repro.sim.resources import CapacityMeter
from repro.switchsim.tcam import RuleAction, Tcam, TcamRule

_first = itemgetter(0)


@dataclass
class PortStats:
    """Snapshot of one port's counters at a point in time."""

    port: int
    time: float
    tx_bytes: float
    tx_packets: float
    rate_bps: float  # instantaneous rate at snapshot time


@dataclass
class RuleStats:
    """Snapshot of one TCAM rule's hit counters."""

    rule_id: int
    time: float
    matched_bytes: float
    matched_packets: float


class _Attachment:
    """One row of the flow table: a flow carried between two ports."""

    __slots__ = ("flow", "in_port", "out_port", "attached_at", "detached_at",
                 "index", "frozen_bytes", "rule", "rule_version")

    def __init__(self, flow: Flow, in_port: int, out_port: int,
                 attached_at: float, index: int) -> None:
        self.flow = flow
        self.in_port = in_port
        self.out_port = out_port
        self.attached_at = attached_at
        self.detached_at: Optional[float] = None
        #: Row number: position in attach order and in the counter columns.
        self.index = index
        #: Byte integral over the whole attachment, fixed at detach.
        self.frozen_bytes = 0.0
        #: Winning TCAM rule as of TCAM version ``rule_version``.
        self.rule: Optional[TcamRule] = None
        self.rule_version = -1

    def active_at(self, time: float) -> bool:
        return (self.attached_at <= time
                and (self.detached_at is None or time < self.detached_at))

    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        lo = max(t0, self.attached_at)
        hi = t1 if self.detached_at is None else min(t1, self.detached_at)
        return lo, hi


class Asic:
    """The packet-processing domain of a switch.

    Implements the :class:`~repro.net.traffic.TrafficSink` protocol so
    workloads can attach flows directly.

    Every reader goes through one flow table.  ``_attachments`` holds every
    row ever attached, in attach order, which is the order counters
    accumulate in; ``_live`` holds the rows not yet detached, in the same
    order.  The simulated clock never runs backwards, so the live rows are
    exactly the rows with ``active_at(now)``, and a detached row contributes
    only its frozen counter integral.  What is derived from the table is
    memoised and dropped by three signals: an attach or detach, the TCAM's
    ``version``, and the :class:`~repro.net.packet.FlowWatch` that every
    live flow's ``set_rate`` bumps; a sample plan also re-reads the
    ``rate_bps`` of the rate limits it was shaped by.
    """

    def __init__(self, sim: Simulator, num_ports: int = 48,
                 line_rate_bps: float = 1.25e10,
                 tcam: Optional[Tcam] = None, name: str = "asic") -> None:
        if num_ports <= 0:
            raise SwitchError(f"port count must be positive: {num_ports}")
        self.sim = sim
        self.num_ports = num_ports
        self.name = name
        self.tcam = tcam if tcam is not None else Tcam(capacity=2048)
        #: Aggregate fabric bandwidth; Fig. 8's "ASIC bus".
        self.fabric = CapacityMeter(sim, capacity=line_rate_bps * num_ports,
                                    name=f"{name}.fabric")
        self._attachments: List[_Attachment] = []
        self._live: Dict[int, _Attachment] = {}  # by id(flow)
        self._flow_watch = FlowWatch()
        # Probe filter -> matching live rows; dropped by attach/detach.
        self._probe_memo: Dict[Filter, List[_Attachment]] = {}
        # (probe filter, budget) -> sample plan: (TCAM version, flow-watch
        # changes, (winning RATE_LIMIT rule, its rate_bps) pairs, the flow
        # of each sample in output order, their ProbeBatch columns);
        # dropped by attach/detach.
        self._plans: Dict[Tuple[Filter, int], tuple] = {}
        # TCAM rules by priority with their switch-port scope, per version.
        self._scoped_rules: List[Tuple[TcamRule, Optional[frozenset]]] = []
        self._scoped_version = -1
        # numpy columns over ``_attachments`` for the batched counter read;
        # dropped by attach/detach, stale once the flow watch has moved.
        self._columns: Optional[tuple] = None

    # ------------------------------------------------------------------
    # TrafficSink protocol
    # ------------------------------------------------------------------
    def attach_flow(self, flow: Flow, in_port: int, out_port: int) -> None:
        """Begin carrying ``flow`` from ``in_port`` to ``out_port``."""
        for port in (in_port, out_port):
            self._check_port(port)
        if id(flow) in self._live:
            raise SwitchError(f"flow already attached: {flow!r}")
        attachment = _Attachment(flow, in_port, out_port, self.sim.now,
                                 index=len(self._attachments))
        self._attachments.append(attachment)
        self._live[id(flow)] = attachment
        flow.watch(self._flow_watch)
        self._table_changed()
        self.fabric.add_demand(flow.rate_bps)

    def detach_flow(self, flow: Flow) -> None:
        """Stop carrying ``flow``; its counters freeze at the detach time."""
        attachment = self._live.pop(id(flow), None)
        if attachment is None:
            raise SwitchError(f"flow not attached: {flow!r}")
        now = self.sim.now
        attachment.detached_at = now
        lo, hi = attachment.window(0.0, now)
        if hi > lo:
            attachment.frozen_bytes = flow.bytes_between(lo, hi)
        flow.unwatch(self._flow_watch)
        self._table_changed()
        # The meter may already hold less than the raw rate: a refresh after
        # a DROP / RATE_LIMIT install, or a rate raised behind our back.
        self.fabric.remove_demand(min(flow.rate_at(now), self.fabric.demand))

    def _table_changed(self) -> None:
        self._probe_memo = {}
        self._plans = {}
        self._columns = None

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise SwitchError(
                f"port {port} out of range (switch has {self.num_ports})")

    # ------------------------------------------------------------------
    # Rule effects on flows
    # ------------------------------------------------------------------
    def _classify(self, attachment: _Attachment) -> Optional[TcamRule]:
        """The highest-priority rule matching this flow, by TCAM walk.

        ``port <n>`` filters are interface constraints; they are vacuous on
        bare flow keys but the ASIC dispatches per port, so they are
        enforced here against the attachment's ports.
        """
        tcam = self.tcam
        if self._scoped_version != tcam.version:
            self._scoped_rules = [(rule, rule.pattern.switch_ports())
                                  for rule in tcam.rules()]
            self._scoped_version = tcam.version
        key = attachment.flow.key
        for rule, ports in self._scoped_rules:
            if rule.matches_key(key) and (
                    ports is None or ANY_PORT in ports
                    or attachment.out_port in ports
                    or attachment.in_port in ports):
                return rule
        return None

    def _winning_rule(self, attachment: _Attachment) -> Optional[TcamRule]:
        """:meth:`_classify`, memoised on the row per TCAM version.

        Only the rule's identity is kept: ``rule.params`` is mutable and
        is read at use.
        """
        version = self.tcam.version
        if attachment.rule_version != version:
            attachment.rule = self._classify(attachment)
            attachment.rule_version = version
        return attachment.rule

    @staticmethod
    def _shaped(rate: float, rule: Optional[TcamRule]) -> float:
        """``rate`` after the winning rule's action (drop / rate-limit)."""
        if rule is None:
            return rate
        if rule.action is RuleAction.DROP:
            return 0.0
        if rule.action is RuleAction.RATE_LIMIT:
            return min(rate, float(rule.params.get("rate_bps", rate)))
        return rate

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def read_port_stats(self, port: int) -> PortStats:
        """Exact counters for ``port`` as of now (egress accounting).

        A full scan that integrates every row from its segments and walks
        the TCAM per row instead of reading the row memo: the reference
        :meth:`read_port_stats_batch` is tested against.
        """
        self._check_port(port)
        now = self.sim.now
        tx_bytes = 0.0
        tx_packets = 0.0
        rate = 0.0
        for attachment in self._attachments:
            if attachment.out_port != port:
                continue
            lo, hi = attachment.window(0.0, now)
            if hi > lo:
                tx_bytes += attachment.flow.bytes_between(lo, hi)
                tx_packets += attachment.flow.packets_between(lo, hi)
            if attachment.active_at(now):
                rate += self._shaped(attachment.flow.rate_at(now),
                                     self._classify(attachment))
        return PortStats(port, now, tx_bytes, tx_packets, rate)

    def _counter_columns(self) -> tuple:
        """The table as numpy columns, rebuilt only after it changed."""
        columns = self._columns
        changes = self._flow_watch.changes
        if columns is not None and columns[0] == changes:
            return columns
        rows = self._attachments
        n = len(rows)
        out_ports = np.fromiter((a.out_port for a in rows),
                                dtype=np.int64, count=n)
        psize = np.fromiter((a.flow.packet_size for a in rows),
                            dtype=np.float64, count=n)
        frozen = np.fromiter((a.frozen_bytes for a in rows),
                             dtype=np.float64, count=n)
        # Single-segment live rows integrate and rate in the array pass.
        simple = np.fromiter((a.detached_at is None
                              and len(a.flow._segments) == 1 for a in rows),
                             dtype=bool, count=n)
        seg0 = np.fromiter((a.flow._segments[0][0] for a in rows),
                           dtype=np.float64, count=n)
        rate0 = np.fromiter((a.flow._segments[0][1] for a in rows),
                            dtype=np.float64, count=n)
        start = np.maximum(
            np.maximum(0.0, np.fromiter((a.attached_at for a in rows),
                                        dtype=np.float64, count=n)), seg0)
        multi = [a for a in self._live.values() if len(a.flow._segments) > 1]
        self._columns = columns = (changes, out_ports, psize, frozen, simple,
                                   seg0, rate0, start, multi)
        return columns

    def read_port_stats_batch(
            self, ports: Optional[Iterable[int]] = None) -> List[PortStats]:
        """Counters for many ports in one array pass.

        Equivalent to ``[read_port_stats(p) for p in ports]`` — bit-for-bit:
        contributions accumulate in attachment order (``np.add.at`` is
        unbuffered, so per-port float sums round exactly like the scalar
        loop) and each single-segment integral is the same ``rate * span``
        product.  Detached rows enter with the integral frozen at detach;
        live multi-segment rows and TCAM-shaped rates drop to the scalar
        helpers per row, but their contributions still land in the shared
        array pass.  The scalar loop is O(ports x attachments); this is
        one numpy sweep plus Python work per live multi-segment row and,
        with rules installed, per live row.
        """
        port_list = (list(range(self.num_ports)) if ports is None
                     else list(ports))
        for port in port_list:
            self._check_port(port)
        if not self._attachments:
            return [self.read_port_stats(port) for port in port_list]
        now = self.sim.now
        (_, out_ports, psize, frozen, simple, seg0, rate0, start,
         multi) = self._counter_columns()
        span = now - start
        contrib = np.where(simple & (span > 0.0), rate0 * span, frozen)
        rates = np.where(simple & (seg0 <= now), rate0, 0.0)
        for attachment in multi:
            lo, hi = attachment.window(0.0, now)
            if hi > lo:
                contrib[attachment.index] = \
                    attachment.flow.bytes_between(lo, hi)
            rates[attachment.index] = attachment.flow.rate_at(now)
        if self.tcam.used():
            for attachment in self._live.values():
                rule = self._winning_rule(attachment)
                if rule is not None:
                    index = attachment.index
                    rates[index] = self._shaped(float(rates[index]), rule)
        port_bytes = np.zeros(self.num_ports)
        port_packets = np.zeros(self.num_ports)
        port_rate = np.zeros(self.num_ports)
        np.add.at(port_bytes, out_ports, contrib)
        np.add.at(port_packets, out_ports, contrib / psize)
        np.add.at(port_rate, out_ports, rates)
        return [PortStats(port, now, float(port_bytes[port]),
                          float(port_packets[port]), float(port_rate[port]))
                for port in port_list]

    def read_rule_stats(self, rule_id: int) -> RuleStats:
        """Hit counters for one TCAM rule since its installation."""
        rule = self.tcam.get(rule_id)
        now = self.sim.now
        matched_bytes = 0.0
        matched_packets = 0.0
        # Detached rows still count what they carried after the install.
        for attachment in self._attachments:
            # Only the highest-priority matching rule counts a flow.
            if self._winning_rule(attachment) is not rule:
                continue
            lo, hi = attachment.window(rule.installed_at, now)
            if hi > lo:
                matched_bytes += attachment.flow.bytes_between(lo, hi)
                matched_packets += attachment.flow.packets_between(lo, hi)
        return RuleStats(rule_id, now, matched_bytes, matched_packets)

    # ------------------------------------------------------------------
    # Probing (packet sampling)
    # ------------------------------------------------------------------
    def sample_packets(self, fil: Filter, max_packets: int = 16) -> ProbeBatch:
        """Sample up to ``max_packets`` representative packets, as columns.

        Sampling is rate-proportional and deterministic: the sample budget
        is split across matching flows by largest-remainder apportionment
        of their current rates, so an elephant contributes many samples
        and a mouse few or none — exactly how a hardware sampler's output
        is distributed.  Equal-rate flows split the budget evenly (breadth
        for scan/flood detectors); a dominant flow crowds the batch (rate
        concentration for entropy/volume detectors).

        The apportioned plan — which flows, how many samples each — is
        memoised per ``(fil, max_packets)`` and reused while the table,
        ``Tcam.version``, the flow watch and every winning ``RATE_LIMIT``
        rule's ``rate_bps`` are unchanged.  The batch's header columns are
        built with the plan and kept with it, so a hit only stamps ``now``.
        A plan is stored only when no matching flow has a rate segment
        starting after ``now``: until then the rates depend on the clock.
        """
        if max_packets < 1:
            raise SwitchError(
                f"sample budget must be at least one packet: {max_packets}")
        now = self.sim.now
        plan = self._plans.get((fil, max_packets))
        if (plan is not None and plan[0] == self.tcam.version
                and plan[1] == self._flow_watch.changes
                and all(rule.params.get("rate_bps") == limit
                        for rule, limit in plan[2])):
            return ProbeBatch(plan[3], now, plan[4])
        matching = self._probe_memo.get(fil)
        if matching is None:
            # Kept in tie-break order (source, then attach order), so that
            # the per-probe sort below is on the rate alone.
            matching = self._probe_memo[fil] = sorted(
                (a for a in self._live.values()
                 if fil.matches_key(a.flow.key,
                                    tcp_flags=a.flow.default_tcp_flags)),
                key=lambda a: (a.flow.key.src_ip, a.flow.key.src_port))
        # (-raw rate, effective rate, flow) per flow still passing traffic.
        sampled = []
        limits = {}  # id -> (winning RATE_LIMIT rule, its rate_bps now)
        timeless = True
        for attachment in matching:
            flow = attachment.flow
            timeless = timeless and flow._segments[-1][0] <= now
            raw = flow.rate_at(now)
            rule = self._winning_rule(attachment)
            if rule is None:
                rate = raw
            else:
                rate = self._shaped(raw, rule)
                if rule.action is RuleAction.RATE_LIMIT:
                    limits[id(rule)] = (rule, rule.params.get("rate_bps"))
            if rate > 0:
                sampled.append((-raw, rate, flow))
        sampled.sort(key=_first)  # stable: heaviest first, ties as memoised
        if len(sampled) >= max_packets:
            # More flows than budget: one sample each for the heaviest.
            chosen = [flow for _, _, flow in sampled[:max_packets]]
        elif sampled:
            total_rate = sum(rate for _, rate, _ in sampled)
            shares = [rate / total_rate * max_packets
                      for _, rate, _ in sampled]
            counts = [int(share) for share in shares]
            remainders = sorted(range(len(sampled)),
                                key=lambda i: shares[i] - counts[i],
                                reverse=True)
            leftover = max_packets - sum(counts)
            for index in remainders[:leftover]:
                counts[index] += 1
            chosen = [flow for (_, _, flow), count in zip(sampled, counts)
                      for _ in range(count)]
        else:
            chosen = []
        columns = ProbeBatch.columns_of(chosen)
        if timeless:
            self._plans[fil, max_packets] = (
                self.tcam.version, self._flow_watch.changes,
                tuple(limits.values()), chosen, columns)
        return ProbeBatch(chosen, now, columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ports_with_traffic(self) -> List[int]:
        now = self.sim.now
        return sorted({a.out_port for a in self._live.values()
                       if a.flow.rate_at(now) > 0})

    def refresh_fabric_demand(self) -> None:
        """Re-derive fabric demand from current flow rates.

        Flow rates can change behind the ASIC's back (workload churn calls
        ``Flow.set_rate`` directly), so meters are refreshed lazily before
        utilization reads.
        """
        now = self.sim.now
        demand = sum(self._shaped(a.flow.rate_at(now), self._winning_rule(a))
                     for a in self._live.values())
        delta = demand - self.fabric.demand
        if delta > 0:
            self.fabric.add_demand(delta)
        elif delta < 0:
            self.fabric.remove_demand(-delta)
