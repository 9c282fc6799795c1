"""Tests for topology construction and path queries."""

import pytest

from repro.errors import TopologyError
from repro.net.addresses import Prefix, parse_ip
from repro.net.controller import SdnController
from repro.net.filters import DstIpFilter, SrcIpFilter, TrueFilter, and_
from repro.net.topology import LEAF, SPINE, Topology, spine_leaf


def linear_topology(num_switches):
    """A chain of switches with one host at each end, so the switch path
    between the two hosts is the whole chain (path-range placement)."""
    topo = Topology(name=f"chain-{num_switches}")
    switches = [topo.add_switch(LEAF, f"s{i + 1}")
                for i in range(num_switches)]
    for u, v in zip(switches, switches[1:]):
        topo.add_link(u, v)
    left = topo.add_host("10.1.1.4", "sender")
    right = topo.add_host("10.0.1.1", "receiver")
    topo.add_link(left, switches[0])
    topo.add_link(right, switches[-1])
    return topo


class TestSpineLeaf:
    def test_structure(self):
        topo = spine_leaf(2, 4, 3)
        spines = [n for n in topo.switch_ids if topo.node(n).kind == SPINE]
        assert len(spines) == 2
        assert len(topo.leaf_ids) == 4
        assert len(topo.host_ids) == 12
        # Full bipartite spine-leaf connectivity.
        for spine in spines:
            assert topo.graph.degree(spine) == 4
        for leaf in topo.leaf_ids:
            assert topo.graph.degree(leaf) == 2 + 3

    def test_host_addressing_per_leaf(self):
        topo = spine_leaf(1, 2, 2)
        ips = sorted(topo.node(h).ip for h in topo.host_ids)
        assert parse_ip("10.1.1.1") in ips
        assert parse_ip("10.2.1.2") in ips

    def test_duplicate_host_ip_rejected(self):
        topo = Topology()
        topo.add_host("10.0.0.1")
        with pytest.raises(TopologyError):
            topo.add_host("10.0.0.1")

    def test_switch_kind_validated(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_switch("host")

    def test_link_requires_known_nodes(self):
        topo = Topology()
        a = topo.add_switch(LEAF)
        with pytest.raises(TopologyError):
            topo.add_link(a, 999)

    def test_unknown_node_lookup(self):
        with pytest.raises(TopologyError):
            Topology().node(42)


class TestPaths:
    def test_ecmp_paths_between_hosts(self):
        topo = spine_leaf(2, 2, 1)
        h1, h2 = topo.host_ids
        paths = topo.switch_paths(h1, h2)
        # leaf -> either spine -> leaf
        assert len(paths) == 2
        for path in paths:
            assert len(path) == 3
            assert topo.node(path[0]).kind == LEAF
            assert topo.node(path[1]).kind == SPINE

    def test_same_leaf_hosts_one_switch_path(self):
        topo = spine_leaf(2, 1, 2)
        h1, h2 = topo.host_ids
        paths = topo.switch_paths(h1, h2)
        assert paths == [(topo.leaf_ids[0],)]

    def test_paths_require_hosts(self):
        topo = spine_leaf(1, 2, 1)
        with pytest.raises(TopologyError):
            topo.switch_paths(topo.leaf_ids[0], topo.host_ids[0])

    def test_linear_topology_chain(self):
        topo = linear_topology(5)
        sender, receiver = topo.host_ids
        paths = topo.switch_paths(sender, receiver)
        assert len(paths) == 1
        assert len(paths[0]) == 5


class TestController:
    def test_paths_matching_ip_constraints(self):
        topo = spine_leaf(2, 2, 2)
        controller = SdnController(topo)
        fil = and_(SrcIpFilter(Prefix.parse("10.1.1.0/24")),
                   DstIpFilter(Prefix.parse("10.2.1.0/24")))
        paths = controller.paths_matching(fil)
        assert paths  # leaf1 -> spine -> leaf2
        for path in paths:
            assert path[0] == topo.leaf_ids[0]
            assert path[-1] == topo.leaf_ids[1]

    def test_unconstrained_filter_uses_all_hosts(self):
        topo = spine_leaf(1, 2, 1)
        controller = SdnController(topo)
        assert controller.paths_matching(TrueFilter())

    def test_pair_explosion_guard(self):
        topo = spine_leaf(1, 2, 4)
        controller = SdnController(topo, max_host_pairs=3)
        with pytest.raises(TopologyError):
            controller.paths_matching(TrueFilter())

    def test_all_switches_sorted(self):
        topo = spine_leaf(2, 3, 1)
        controller = SdnController(topo)
        switches = controller.all_switches()
        assert switches == sorted(switches)
        assert set(switches) == set(topo.switch_ids)
