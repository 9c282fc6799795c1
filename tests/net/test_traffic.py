"""Tests for synthetic traffic workloads against a recording sink."""

import pytest

from repro.errors import FarmError
from repro.net.traffic import (
    DDoSWorkload,
    DnsReflectionWorkload,
    HeavyHitterWorkload,
    PortScanWorkload,
    SlowlorisWorkload,
    SshBruteForceWorkload,
    SuperSpreaderWorkload,
    SynFloodWorkload,
    UniformWorkload,
)
from repro.sim.engine import Simulator


class RecordingSink:
    def __init__(self):
        self.attached = []
        self.detached = []

    def attach_flow(self, flow, in_port, out_port):
        self.attached.append((flow, in_port, out_port))

    def detach_flow(self, flow):
        self.detached.append(flow)


def run_workload(workload, until=1.0):
    sim = Simulator()
    sink = RecordingSink()
    workload.start(sim, sink)
    sim.run(until=until)
    return sim, sink


class TestHeavyHitterWorkload:
    def test_heavy_subset_size(self):
        workload = HeavyHitterWorkload(num_ports=100, hh_ratio=0.1, seed=1)
        run_workload(workload)
        assert len(workload.true_heavy_ports()) == 10

    def test_minimum_one_heavy(self):
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.01, seed=1)
        run_workload(workload)
        assert len(workload.true_heavy_ports()) == 1

    def test_rates_match_ground_truth(self):
        workload = HeavyHitterWorkload(
            num_ports=20, hh_ratio=0.2, hh_rate_bps=1e8,
            mouse_rate_bps=1e3, churn_interval=None, seed=2)
        sim, _sink = run_workload(workload)
        heavy = workload.true_heavy_ports()
        for port, flow in workload._port_flows.items():
            expected = 1e8 if port in heavy else 1e3
            assert flow.rate_at(sim.now) == expected

    def test_churn_reshuffles(self):
        workload = HeavyHitterWorkload(num_ports=50, hh_ratio=0.1,
                                       churn_interval=10.0, seed=3)
        run_workload(workload, until=35.0)
        # initial shuffle + 3 churn events
        assert workload.stats.churn_events == 4

    def test_invalid_parameters(self):
        with pytest.raises(FarmError):
            HeavyHitterWorkload(num_ports=10, hh_ratio=1.5)
        with pytest.raises(FarmError):
            HeavyHitterWorkload(num_ports=10, hh_rate_bps=10, mouse_rate_bps=10)

    def test_determinism_by_seed(self):
        w1 = HeavyHitterWorkload(num_ports=50, hh_ratio=0.1, seed=9)
        w2 = HeavyHitterWorkload(num_ports=50, hh_ratio=0.1, seed=9)
        run_workload(w1)
        run_workload(w2)
        assert w1.true_heavy_ports() == w2.true_heavy_ports()


class TestAttackWorkloads:
    def test_uniform_one_flow_per_port(self):
        workload = UniformWorkload(num_ports=7)
        _, sink = run_workload(workload)
        assert len(sink.attached) == 7

    def test_ddos_aggregate_rate(self):
        workload = DDoSWorkload(num_sources=50, per_source_rate_bps=1e4)
        run_workload(workload)
        assert workload.aggregate_rate_bps == pytest.approx(5e5)
        assert len(workload.flows) == 50
        victims = {flow.key.dst_ip for flow in workload.flows}
        assert len(victims) == 1

    def test_ddos_start_delay(self):
        workload = DDoSWorkload(num_sources=5, start_delay=2.0)
        sim = Simulator()
        sink = RecordingSink()
        workload.start(sim, sink)
        sim.run(until=1.0)
        assert not sink.attached
        sim.run(until=3.0)
        assert len(sink.attached) == 5

    def test_syn_flood_packets_are_syns(self):
        workload = SynFloodWorkload(syn_rate_pps=1000, num_sources=4)
        run_workload(workload)
        assert all(f.default_tcp_flags for f in workload.flows)
        assert workload.flows[0].sample_packet(1.0).is_syn

    def test_port_scan_distinct_ports(self):
        workload = PortScanWorkload(num_ports_scanned=30)
        run_workload(workload)
        ports = {flow.key.dst_port for flow in workload.flows}
        assert len(ports) == 30
        scanners = {flow.key.src_ip for flow in workload.flows}
        assert len(scanners) == 1

    def test_superspreader_fanout(self):
        workload = SuperSpreaderWorkload(fanout=40)
        run_workload(workload)
        dsts = {flow.key.dst_ip for flow in workload.flows}
        assert len(dsts) == 40

    def test_dns_reflection_signature(self):
        workload = DnsReflectionWorkload(num_reflectors=10)
        run_workload(workload)
        for flow in workload.flows:
            assert flow.key.src_port == 53
            assert flow.packet_size >= 1500

    def test_slowloris_low_and_slow(self):
        workload = SlowlorisWorkload(num_connections=25)
        sim, _ = run_workload(workload)
        assert len(workload.flows) == 25
        assert all(0 < flow.rate_at(sim.now) < 1000 for flow in workload.flows)

    def test_ssh_brute_force_targets_port_22(self):
        workload = SshBruteForceWorkload(num_attackers=6)
        run_workload(workload)
        assert all(flow.key.dst_port == 22 for flow in workload.flows)
