"""Synthetic traffic workloads.

The paper evaluates FARM in a production SAP data center; production traces
are obviously unavailable, so each scenario in SVI is backed by a synthetic
workload that reproduces the *parameterization the paper states*: e.g. for
heavy hitters, "HHs usually affect 1% of network ports, 10% at worst, and
the HH ratio changes up to once a minute" (SVI-B-b).

Workloads drive any object satisfying the :class:`TrafficSink` protocol
(the switch emulator's ASIC implements it) and expose ground truth so tests
and benchmarks can score detection accuracy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Set

from repro.errors import FarmError
from repro.net.addresses import parse_ip
from repro.net.packet import PROTO_TCP, PROTO_UDP, Flow, FlowKey, TCP_SYN
from repro.sim.engine import Simulator


class TrafficSink(Protocol):
    """Anything flows can be attached to (implemented by the ASIC model)."""

    def attach_flow(self, flow: Flow, in_port: int, out_port: int) -> None:
        """Start accounting ``flow`` entering ``in_port``, leaving ``out_port``."""

    def detach_flow(self, flow: Flow) -> None:
        """Stop accounting ``flow`` (its rate becomes irrelevant)."""


def _ip(base: str, offset: int) -> int:
    return parse_ip(base) + offset


@dataclass
class WorkloadStats:
    """Bookkeeping every workload maintains."""

    flows_created: int = 0
    rate_changes: int = 0
    churn_events: int = 0


class Workload:
    """Base class: owns a deterministic RNG and its created flows."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.flows: List[Flow] = []
        self.stats = WorkloadStats()
        self._sim: Optional[Simulator] = None
        self._sink: Optional[TrafficSink] = None

    def start(self, sim: Simulator, sink: TrafficSink) -> None:
        """Attach initial flows and schedule evolution events."""
        self._sim = sim
        self._sink = sink
        self._build()

    def _build(self) -> None:
        raise NotImplementedError

    def _make_flow(self, key: FlowKey, rate_bps: float, in_port: int,
                   out_port: int, packet_size: int = 1000,
                   label: str = "", tcp_flags: int = 0) -> Flow:
        assert self._sim is not None and self._sink is not None
        flow = Flow(key, rate_bps, start_time=self._sim.now,
                    packet_size=packet_size, label=label,
                    default_tcp_flags=tcp_flags)
        self.flows.append(flow)
        self.stats.flows_created += 1
        self._sink.attach_flow(flow, in_port, out_port)
        return flow


class UniformWorkload(Workload):
    """Background "mice": one modest flow per port."""

    def __init__(self, num_ports: int, rate_bps: float = 1e5,
                 seed: int = 0) -> None:
        super().__init__(seed)
        self.num_ports = num_ports
        self.rate_bps = rate_bps

    def _build(self) -> None:
        for port in range(self.num_ports):
            key = FlowKey(_ip("10.0.0.0", port + 1),
                          _ip("10.128.0.0", port + 1),
                          40000 + port, 80, PROTO_TCP)
            self._make_flow(key, self.rate_bps, in_port=port, out_port=port,
                            label=f"bg{port}")


class HeavyHitterWorkload(Workload):
    """The SVI-B heavy-hitter scenario.

    ``num_ports`` ports each carry one flow; a fraction ``hh_ratio`` of them
    run above ``hh_rate_bps`` (the rest at ``mouse_rate_bps``).  Every
    ``churn_interval`` seconds a new HH subset is drawn, modeling the
    "HH ratio changes up to once a minute" observation.
    """

    def __init__(self, num_ports: int, hh_ratio: float = 0.01,
                 hh_rate_bps: float = 1e8, mouse_rate_bps: float = 1e5,
                 churn_interval: Optional[float] = 60.0,
                 seed: int = 0) -> None:
        if not 0 <= hh_ratio <= 1:
            raise FarmError(f"hh_ratio must be in [0,1]: {hh_ratio}")
        if hh_rate_bps <= mouse_rate_bps:
            raise FarmError("heavy rate must exceed mouse rate")
        super().__init__(seed)
        self.num_ports = num_ports
        self.hh_ratio = hh_ratio
        self.hh_rate_bps = hh_rate_bps
        self.mouse_rate_bps = mouse_rate_bps
        self.churn_interval = churn_interval
        self._port_flows: Dict[int, Flow] = {}
        self.current_heavy_ports: Set[int] = set()

    @property
    def num_heavy(self) -> int:
        return max(1, round(self.num_ports * self.hh_ratio))

    def _build(self) -> None:
        assert self._sim is not None
        for port in range(self.num_ports):
            key = FlowKey(_ip("10.0.0.0", port + 1),
                          _ip("10.128.0.0", port + 1),
                          40000 + port, 443, PROTO_TCP)
            self._port_flows[port] = self._make_flow(
                key, self.mouse_rate_bps, in_port=port, out_port=port,
                label=f"flow{port}")
        self._reshuffle()
        if self.churn_interval:
            self._sim.every(self.churn_interval, self._reshuffle,
                            label="hh-churn",
                            cost_key=("traffic", None, None, "hh-churn"))

    def _reshuffle(self) -> None:
        """Draw a fresh heavy subset and adjust flow rates."""
        assert self._sim is not None
        now = self._sim.now
        new_heavy = set(self.rng.sample(range(self.num_ports), self.num_heavy))
        for port in self.current_heavy_ports - new_heavy:
            self._port_flows[port].set_rate(self.mouse_rate_bps, now)
            self.stats.rate_changes += 1
        for port in new_heavy - self.current_heavy_ports:
            self._port_flows[port].set_rate(self.hh_rate_bps, now)
            self.stats.rate_changes += 1
        self.current_heavy_ports = new_heavy
        self.stats.churn_events += 1

    def true_heavy_ports(self) -> Set[int]:
        """Ground truth for accuracy scoring."""
        return set(self.current_heavy_ports)


class DDoSWorkload(Workload):
    """Volumetric DDoS: ``num_sources`` hosts flood a single victim."""

    def __init__(self, num_sources: int, victim_ip: str = "10.200.0.1",
                 per_source_rate_bps: float = 1e6, attack_port: int = 80,
                 start_delay: float = 0.0, seed: int = 0) -> None:
        super().__init__(seed)
        self.num_sources = num_sources
        self.victim_ip = victim_ip
        self.per_source_rate_bps = per_source_rate_bps
        self.attack_port = attack_port
        self.start_delay = start_delay

    def _build(self) -> None:
        assert self._sim is not None
        if self.start_delay:
            self._sim.schedule(self.start_delay, self._launch,
                               label="ddos-launch",
                               cost_key=("traffic", None, None,
                                         "ddos-launch"))
        else:
            self._launch()

    def _launch(self) -> None:
        victim = parse_ip(self.victim_ip)
        for i in range(self.num_sources):
            key = FlowKey(_ip("172.16.0.0", i + 1), victim,
                          50000 + (i % 1000), self.attack_port, PROTO_UDP)
            self._make_flow(key, self.per_source_rate_bps,
                            in_port=i % 48, out_port=0, packet_size=512,
                            label=f"ddos{i}")

    @property
    def aggregate_rate_bps(self) -> float:
        return self.num_sources * self.per_source_rate_bps


class SynFloodWorkload(Workload):
    """TCP SYN flood: high rate of small SYN-only packets at one service."""

    def __init__(self, syn_rate_pps: float, victim_ip: str = "10.200.0.2",
                 victim_port: int = 443, num_sources: int = 64,
                 seed: int = 0) -> None:
        super().__init__(seed)
        self.syn_rate_pps = syn_rate_pps
        self.victim_ip = victim_ip
        self.victim_port = victim_port
        self.num_sources = num_sources

    def _build(self) -> None:
        victim = parse_ip(self.victim_ip)
        per_source_pps = self.syn_rate_pps / self.num_sources
        for i in range(self.num_sources):
            key = FlowKey(_ip("172.20.0.0", i + 1), victim,
                          50000 + i, self.victim_port, PROTO_TCP)
            # 60-byte SYN segments.
            self._make_flow(key, per_source_pps * 60, in_port=i % 48,
                            out_port=0, packet_size=60, label=f"syn{i}",
                            tcp_flags=TCP_SYN)


class PortScanWorkload(Workload):
    """One scanner probing many destination ports on one target."""

    def __init__(self, num_ports_scanned: int, scanner_ip: str = "172.31.0.9",
                 target_ip: str = "10.50.0.1", probe_rate_pps: float = 100.0,
                 seed: int = 0) -> None:
        super().__init__(seed)
        self.num_ports_scanned = num_ports_scanned
        self.scanner_ip = scanner_ip
        self.target_ip = target_ip
        self.probe_rate_pps = probe_rate_pps

    def _build(self) -> None:
        scanner = parse_ip(self.scanner_ip)
        target = parse_ip(self.target_ip)
        per_port_pps = self.probe_rate_pps / self.num_ports_scanned
        for i in range(self.num_ports_scanned):
            key = FlowKey(scanner, target, 55555, 1 + i, PROTO_TCP)
            self._make_flow(key, per_port_pps * 60, in_port=0, out_port=0,
                            packet_size=60, label=f"scan{i}",
                            tcp_flags=TCP_SYN)


class SuperSpreaderWorkload(Workload):
    """One source contacting many distinct destinations (SVI use case)."""

    def __init__(self, fanout: int, spreader_ip: str = "172.18.0.7",
                 per_dest_rate_bps: float = 5e4, seed: int = 0) -> None:
        super().__init__(seed)
        self.fanout = fanout
        self.spreader_ip = spreader_ip
        self.per_dest_rate_bps = per_dest_rate_bps

    def _build(self) -> None:
        spreader = parse_ip(self.spreader_ip)
        for i in range(self.fanout):
            key = FlowKey(spreader, _ip("10.64.0.0", i + 1),
                          47000, 80, PROTO_TCP)
            self._make_flow(key, self.per_dest_rate_bps, in_port=0,
                            out_port=i % 48, label=f"spread{i}")


class DnsReflectionWorkload(Workload):
    """Amplified DNS responses (src port 53, large UDP) converging on a victim."""

    def __init__(self, num_reflectors: int, victim_ip: str = "10.200.0.3",
                 per_reflector_rate_bps: float = 2e6, seed: int = 0) -> None:
        super().__init__(seed)
        self.num_reflectors = num_reflectors
        self.victim_ip = victim_ip
        self.per_reflector_rate_bps = per_reflector_rate_bps

    def _build(self) -> None:
        victim = parse_ip(self.victim_ip)
        for i in range(self.num_reflectors):
            key = FlowKey(_ip("8.8.0.0", i + 1), victim, 53,
                          33000 + i, PROTO_UDP)
            self._make_flow(key, self.per_reflector_rate_bps, in_port=i % 48,
                            out_port=0, packet_size=3000, label=f"dns{i}")


class SlowlorisWorkload(Workload):
    """Many long-lived, extremely slow TCP connections to one server."""

    def __init__(self, num_connections: int, server_ip: str = "10.80.0.1",
                 per_conn_rate_bps: float = 50.0, seed: int = 0) -> None:
        super().__init__(seed)
        self.num_connections = num_connections
        self.server_ip = server_ip
        self.per_conn_rate_bps = per_conn_rate_bps

    def _build(self) -> None:
        server = parse_ip(self.server_ip)
        for i in range(self.num_connections):
            key = FlowKey(_ip("172.25.0.0", i + 1), server,
                          52000 + i, 80, PROTO_TCP)
            self._make_flow(key, self.per_conn_rate_bps, in_port=i % 48,
                            out_port=0, packet_size=100, label=f"slow{i}")


class SshBruteForceWorkload(Workload):
    """Repeated short TCP connections to port 22 from a small attacker set."""

    def __init__(self, num_attackers: int, target_ip: str = "10.90.0.1",
                 attempts_per_second: float = 10.0, seed: int = 0) -> None:
        super().__init__(seed)
        self.num_attackers = num_attackers
        self.target_ip = target_ip
        self.attempts_per_second = attempts_per_second

    def _build(self) -> None:
        target = parse_ip(self.target_ip)
        for i in range(self.num_attackers):
            key = FlowKey(_ip("172.28.0.0", i + 1), target,
                          58000 + i, 22, PROTO_TCP)
            # ~500 bytes of handshake + failed auth per attempt.
            self._make_flow(key, self.attempts_per_second * 500,
                            in_port=i % 48, out_port=0, packet_size=250,
                            label=f"ssh{i}")
