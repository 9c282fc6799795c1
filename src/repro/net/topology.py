"""Network topology model and the spine-leaf builder used by the evaluation.

Switches and hosts are nodes of an undirected :mod:`networkx` graph.  Only
switches can host seeds; hosts anchor IP addresses so that the SDN
controller can resolve filter expressions to paths (``phi_path``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import TopologyError
from repro.net.addresses import Prefix, format_ip, parse_ip

SPINE = "spine"
LEAF = "leaf"
HOST = "host"


@dataclass
class NodeSpec:
    """Static description of a topology node."""

    node_id: int
    kind: str  # SPINE | LEAF | HOST
    name: str
    ip: Optional[int] = None  # hosts only
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def is_switch(self) -> bool:
        return self.kind in (SPINE, LEAF)


class Topology:
    """A data center network topology.

    Node ids are dense ints assigned at insertion.  Links carry bandwidth
    (bytes/s) and latency (seconds) attributes.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self.graph = nx.Graph()
        self._nodes: Dict[int, NodeSpec] = {}
        self._next_id = itertools.count(1)
        self._ip_index: Dict[int, int] = {}  # ip -> host node id

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, kind: str = LEAF, name: str = "",
                   **attrs: object) -> int:
        """Add a switch node; returns its id."""
        if kind not in (SPINE, LEAF):
            raise TopologyError(f"not a switch kind: {kind!r}")
        node_id = next(self._next_id)
        spec = NodeSpec(node_id, kind, name or f"{kind}{node_id}", attrs=attrs)
        self._nodes[node_id] = spec
        self.graph.add_node(node_id, spec=spec)
        return node_id

    def add_host(self, ip: str, name: str = "", **attrs: object) -> int:
        """Add a host with the given IPv4 address; returns its id."""
        ip_value = parse_ip(ip)
        if ip_value in self._ip_index:
            raise TopologyError(f"duplicate host IP {ip}")
        node_id = next(self._next_id)
        spec = NodeSpec(node_id, HOST, name or f"host{node_id}",
                        ip=ip_value, attrs=attrs)
        self._nodes[node_id] = spec
        self.graph.add_node(node_id, spec=spec)
        self._ip_index[ip_value] = node_id
        return node_id

    def add_link(self, u: int, v: int, bandwidth_bps: float = 1.25e10,
                 latency_s: float = 5e-6) -> None:
        """Connect two nodes (default: 100 Gbps, 5 us)."""
        for node in (u, v):
            if node not in self._nodes:
                raise TopologyError(f"unknown node {node}")
        self.graph.add_edge(u, v, bandwidth=bandwidth_bps, latency=latency_s)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> NodeSpec:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    @property
    def switch_ids(self) -> List[int]:
        return [n for n, spec in self._nodes.items() if spec.is_switch]

    @property
    def leaf_ids(self) -> List[int]:
        return [n for n, spec in self._nodes.items() if spec.kind == LEAF]

    @property
    def host_ids(self) -> List[int]:
        return [n for n, spec in self._nodes.items() if spec.kind == HOST]

    def hosts_in_prefix(self, prefix: Prefix) -> List[int]:
        """Host node ids whose address lies inside ``prefix``."""
        return [node_id for ip, node_id in sorted(self._ip_index.items())
                if prefix.contains(ip)]

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def switch_paths(self, src_host: int, dst_host: int,
                     limit: int = 16) -> List[Tuple[int, ...]]:
        """All shortest paths between two hosts, as switch-id tuples.

        Host endpoints are stripped: paths contain only switches, matching
        the paper's path examples (SIII-B-a) where placement ranges are
        measured in switch hops.
        """
        for node in (src_host, dst_host):
            if self.node(node).kind != HOST:
                raise TopologyError(f"node {node} is not a host")
        if src_host == dst_host:
            return []
        try:
            raw_paths = nx.all_shortest_paths(self.graph, src_host, dst_host)
            paths = []
            for path in itertools.islice(raw_paths, limit):
                switches = tuple(n for n in path if self._nodes[n].is_switch)
                if switches:
                    paths.append(switches)
            return sorted(set(paths))
        except nx.NetworkXNoPath:
            return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Topology {self.name!r}: {len(self.switch_ids)} switches, "
                f"{len(self.host_ids)} hosts>")


def spine_leaf(num_spines: int = 2, num_leaves: int = 4,
               hosts_per_leaf: int = 4,
               leaf_prefix_template: str = "10.{leaf}.1.0/24",
               link_bandwidth_bps: float = 1.25e10,
               link_latency_s: float = 5e-6) -> Topology:
    """Build a spine-leaf (2-tier Clos) topology like the SAP deployment.

    Every leaf connects to every spine; ``hosts_per_leaf`` hosts hang off
    each leaf with addresses drawn from the leaf's /24.

    >>> topo = spine_leaf(2, 3, 2)
    >>> len(topo.switch_ids), len(topo.leaf_ids), len(topo.host_ids)
    (5, 3, 6)
    """
    if num_spines < 1 or num_leaves < 1 or hosts_per_leaf < 0:
        raise TopologyError("spine/leaf/host counts must be positive")
    if hosts_per_leaf > 250:
        raise TopologyError("at most 250 hosts per leaf /24")
    topo = Topology(name=f"spine-leaf-{num_spines}x{num_leaves}")
    spines = [topo.add_switch(SPINE, f"spine{i + 1}")
              for i in range(num_spines)]
    for leaf_index in range(num_leaves):
        leaf = topo.add_switch(LEAF, f"leaf{leaf_index + 1}")
        for spine in spines:
            topo.add_link(spine, leaf, link_bandwidth_bps, link_latency_s)
        prefix = Prefix.parse(
            leaf_prefix_template.format(leaf=leaf_index + 1))
        for host_index in range(hosts_per_leaf):
            ip = format_ip(prefix.network + host_index + 1)
            host = topo.add_host(ip, f"h{leaf_index + 1}-{host_index + 1}")
            topo.add_link(leaf, host, link_bandwidth_bps, link_latency_s)
    return topo
