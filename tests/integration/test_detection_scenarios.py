"""End-to-end detection scenarios: task + matching workload -> detection
+ local reaction, through the full seeder/soil/harvester pipeline."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.net.addresses import parse_ip
from repro.net.topology import spine_leaf
from repro.net.traffic import (
    DDoSWorkload,
    DnsReflectionWorkload,
    HeavyHitterWorkload,
    PortScanWorkload,
    SshBruteForceWorkload,
    SuperSpreaderWorkload,
    SynFloodWorkload,
)
from repro.switchsim.tcam import RuleAction
from repro.tasks import (
    make_ddos_task,
    make_dns_reflection_task,
    make_heavy_hitter_task,
    make_link_failure_task,
    make_port_scan_task,
    make_ssh_brute_force_task,
    make_superspreader_task,
    make_syn_flood_task,
    make_traffic_change_task,
)


@pytest.fixture
def farm():
    return FarmDeployment(topology=spine_leaf(1, 1, 1))


def leaf_of(farm):
    return farm.topology.leaf_ids[0]


class TestHeavyHitterScenario:
    def test_detection_and_rate_limit_reaction(self, farm):
        task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        workload = HeavyHitterWorkload(num_ports=20, hh_ratio=0.1,
                                       hh_rate_bps=1e8,
                                       churn_interval=None, seed=11)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 0.5)
        harvester = task.harvester
        detected = {p for sw, p in harvester.heavy_ports() if sw == leaf}
        assert detected == workload.true_heavy_ports()
        # Local reaction: heavy ports rate-limited on the switch itself.
        switch = farm.fleet.get(leaf)
        for port in detected:
            assert switch.asic.read_port_stats(port).rate_bps \
                <= 1_000_000 + 1
        actions = {r.action for r in switch.tcam.rules("monitoring")}
        assert actions == {RuleAction.RATE_LIMIT}

    def test_churn_triggers_redetection(self, farm):
        task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        workload = HeavyHitterWorkload(num_ports=30, hh_ratio=0.1,
                                       hh_rate_bps=1e8,
                                       churn_interval=1.0, seed=12)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 3.5)
        detected = {p for sw, p in task.harvester.heavy_ports()
                    if sw == leaf}
        assert len(detected) > workload.num_heavy  # churn found new ones


class TestDdosScenario:
    def test_victim_detected_and_quenched(self, farm):
        task = make_ddos_task(rate_threshold=1e4, source_threshold=5)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        attack = DDoSWorkload(num_sources=30, victim_ip="10.200.0.1",
                              per_source_rate_bps=1e6)
        farm.start_workload(attack, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert "10.200.0.1" in task.harvester.victims
        switch = farm.fleet.get(leaf)
        rules = switch.tcam.rules("monitoring")
        assert any(r.action is RuleAction.RATE_LIMIT for r in rules)

    def test_harvester_can_lift_mitigation(self, farm):
        task = make_ddos_task(rate_threshold=1e4, source_threshold=5)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        farm.start_workload(DDoSWorkload(num_sources=30), leaf)
        farm.run(until=farm.sim.now + 1.0)
        switch = farm.fleet.get(leaf)
        assert switch.tcam.used("monitoring") >= 1
        task.harvester.lift_mitigation("10.200.0.1")
        farm.run(until=farm.sim.now + 0.2)
        assert switch.tcam.used("monitoring") == 0


class TestSynFloodScenario:
    def test_flood_detected_syn_rate_limited(self, farm):
        task = make_syn_flood_task(syn_threshold=20, interval_s=0.01)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        flood = SynFloodWorkload(syn_rate_pps=10000,
                                 victim_ip="10.200.0.2", num_sources=64)
        farm.start_workload(flood, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert "10.200.0.2" in task.harvester.suspects
        switch = farm.fleet.get(leaf)
        assert any(r.action is RuleAction.RATE_LIMIT
                   for r in switch.tcam.rules("monitoring"))


class TestPortScanScenario:
    def test_scanner_detected_and_dropped(self, farm):
        task = make_port_scan_task(port_threshold=10, interval_s=0.01)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        scan = PortScanWorkload(num_ports_scanned=64,
                                scanner_ip="172.31.0.9")
        farm.start_workload(scan, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert "172.31.0.9" in task.harvester.suspects
        switch = farm.fleet.get(leaf)
        drops = [r for r in switch.tcam.rules("monitoring")
                 if r.action is RuleAction.DROP]
        assert drops
        # scanner traffic actually dies
        stats = switch.asic.read_port_stats(0)
        assert stats.rate_bps == 0.0


class TestSuperspreaderScenario:
    def test_spreader_flagged(self, farm):
        task = make_superspreader_task(fanout_threshold=8,
                                       interval_s=0.01)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        spread = SuperSpreaderWorkload(fanout=16,
                                       spreader_ip="172.18.0.7")
        farm.start_workload(spread, leaf)
        farm.run(until=farm.sim.now + 2.0)
        assert "172.18.0.7" in task.harvester.suspects


class TestSshBruteForceScenario:
    def test_attackers_blocked(self, farm):
        task = make_ssh_brute_force_task(attempt_threshold=3,
                                         interval_s=0.02)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        attack = SshBruteForceWorkload(num_attackers=4)
        farm.start_workload(attack, leaf)
        farm.run(until=farm.sim.now + 2.0)
        assert len(task.harvester.suspects) >= 1
        switch = farm.fleet.get(leaf)
        assert any(r.action is RuleAction.DROP
                   for r in switch.tcam.rules("monitoring"))


class TestDnsReflectionScenario:
    def test_reflection_blocked_at_switch(self, farm):
        task = make_dns_reflection_task(volume_threshold=10_000,
                                        interval_s=0.01)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        attack = DnsReflectionWorkload(num_reflectors=20,
                                       victim_ip="10.200.0.3")
        farm.start_workload(attack, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert "10.200.0.3" in task.harvester.suspects
        switch = farm.fleet.get(leaf)
        assert any(r.action is RuleAction.DROP
                   for r in switch.tcam.rules("monitoring"))


class TestLinkFailureScenario:
    def test_silent_port_reported_down_then_up(self, farm):
        task = make_link_failure_task(interval_s=0.01, silent_polls=3)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        switch = farm.fleet.get(leaf)
        from repro.net.packet import Flow, FlowKey, PROTO_TCP
        key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"), 1, 80,
                      PROTO_TCP)
        flow = Flow(key, rate_bps=1e5, start_time=farm.sim.now)
        switch.asic.attach_flow(flow, 0, 5)
        farm.run(until=farm.sim.now + 0.2)
        flow.stop(at_time=farm.sim.now)  # link goes dark
        farm.run(until=farm.sim.now + 0.3)
        assert (leaf, 5) in task.harvester.down_ports()
        # link recovers
        flow.set_rate(1e5, at_time=farm.sim.now)
        farm.run(until=farm.sim.now + 0.3)
        assert (leaf, 5) not in task.harvester.down_ports()


class TestTrafficChangeScenario:
    def test_step_change_reported(self, farm):
        task = make_traffic_change_task(interval_s=0.05, factor=3)
        farm.submit(task)
        farm.settle()
        leaf = leaf_of(farm)
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.1,
                                       hh_rate_bps=1e8, mouse_rate_bps=1e4,
                                       churn_interval=None, seed=3)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 0.3)
        reports_before = len(task.harvester.reports)
        # 10x surge on every port
        for flow in workload.flows:
            flow.set_rate(flow.rate_bps * 10, at_time=farm.sim.now)
        farm.run(until=farm.sim.now + 0.3)
        assert len(task.harvester.reports) > reports_before
