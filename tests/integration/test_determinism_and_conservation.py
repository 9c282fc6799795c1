"""Cross-cutting invariants: simulation determinism and conservation laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload
from repro.tasks import make_heavy_hitter_task


def run_farm_trace(seed):
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
    farm.submit(task)
    farm.settle()
    leaf = farm.topology.leaf_ids[0]
    workload = HeavyHitterWorkload(num_ports=20, hh_ratio=0.1,
                                   hh_rate_bps=1e8, churn_interval=0.5,
                                   seed=seed)
    farm.start_workload(workload, leaf)
    farm.run(until=farm.sim.now + 2.0)
    return [(round(t, 9), sw, p)
            for t, sw, p in task.harvester.detections]


class TestDeterminism:
    def test_identical_runs_produce_identical_detections(self):
        assert run_farm_trace(7) == run_farm_trace(7)

    def test_different_workload_seeds_differ(self):
        assert run_farm_trace(7) != run_farm_trace(8)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1000))
    def test_determinism_property(self, seed):
        assert run_farm_trace(seed) == run_farm_trace(seed)


class TestConservation:
    def test_counter_monotonicity_under_rules(self):
        """Port counters never decrease, whatever rules do to rates."""
        from repro.net.addresses import parse_ip
        from repro.net.packet import PROTO_TCP, Flow, FlowKey
        from repro.net import filters as flt
        from repro.sim.engine import Simulator
        from repro.switchsim.chassis import Switch
        from repro.switchsim.tcam import MONITORING, RuleAction, TcamRule

        sim = Simulator()
        switch = Switch(sim, 1)
        key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"), 1, 80,
                      PROTO_TCP)
        flow = Flow(key, rate_bps=1e6)
        switch.asic.attach_flow(flow, 0, 1)
        readings = []
        for step in range(10):
            sim.run(until=sim.now + 0.1)
            if step == 3:
                switch.tcam.install(
                    TcamRule(flt.DstPortFilter(80), RuleAction.RATE_LIMIT,
                             params={"rate_bps": 10.0}, region=MONITORING),
                    now=sim.now)
            if step == 6:
                switch.tcam.install(
                    TcamRule(flt.DstPortFilter(80), RuleAction.DROP,
                             priority=5, region=MONITORING), now=sim.now)
            readings.append(switch.asic.read_port_stats(1).tx_bytes)
        assert readings == sorted(readings)

    def test_bus_accounting_matches_deliveries(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.2,
                                       hh_rate_bps=1e8,
                                       churn_interval=None, seed=1)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 0.5)
        bus = farm.bus
        assert farm.metrics.value("farm_bus_messages_total") \
            == len(bus.delivered)
        assert farm.metrics.value("farm_bus_bytes_total") \
            == sum(m.size_bytes for m in bus.delivered)

    def test_seed_tcam_rules_conserved_across_migration(self):
        """Migration moves a seed's state; its rules on the old switch are
        removed (they belong to the old location's TCAM) and the seed can
        re-install at the new home."""
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.2,
                                       hh_rate_bps=1e8,
                                       churn_interval=None, seed=2)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 0.3)
        switch = farm.fleet.get(leaf)
        assert switch.tcam.used("monitoring") > 0
        seeder_task = farm.seeder.tasks["heavy-hitter"]
        seed = next(s for s in seeder_task.seeds if s.switch == leaf)
        target = next(s for s in farm.topology.switch_ids if s != leaf)
        farm.seeder._migrate(seeder_task, seed, target,
                             {"vCPU": 1, "RAM": 128, "TCAM": 8,
                              "PCIe": 1000})
        farm.settle(0.1)
        assert switch.tcam.used("monitoring") == 0
        assert seed.switch == target
