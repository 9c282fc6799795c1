"""Chassis, platform models, and driver-abstraction tests."""

import pytest

from repro.errors import SwitchError
from repro.net import filters as flt
from repro.net.addresses import parse_ip
from repro.net.packet import PROTO_TCP, Flow, FlowKey
from repro.sim.engine import Simulator
from repro.switchsim.chassis import (
    ACCTON_AS5712,
    ARISTA_7280QRA,
    PLATFORMS,
    R_PCIE,
    R_RAM,
    R_TCAM,
    R_VCPU,
    RESOURCE_TYPES,
    Switch,
    SwitchFleet,
)
from repro.switchsim.stratum import (
    EosSdkDriver,
    StratumDriver,
    driver_for,
)
from repro.switchsim.tcam import MONITORING, RuleAction, TcamRule


def attach_test_flow(switch, rate=1000.0):
    key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"), 1000, 80,
                  PROTO_TCP)
    flow = Flow(key, rate_bps=rate, start_time=switch.sim.now)
    switch.asic.attach_flow(flow, 0, 1)
    return flow


class TestPlatforms:
    def test_four_evaluation_platforms_exist(self):
        assert len(PLATFORMS) == 4

    def test_resource_vector_complete(self):
        for model in PLATFORMS.values():
            resources = model.available_resources()
            assert set(resources) == set(RESOURCE_TYPES)
            assert all(v > 0 for v in resources.values())

    def test_as5712_matches_paper_specs(self):
        assert ACCTON_AS5712.cpu_cores == 4
        assert ACCTON_AS5712.ram_mb == 8192
        assert ACCTON_AS5712.available_resources()[R_VCPU] == 4.0

    def test_arista_runs_eos(self):
        assert ARISTA_7280QRA.os == "EOS"


class TestSwitch:
    def test_components_wired(self):
        switch = Switch(Simulator(), 7)
        assert switch.asic.tcam is switch.tcam
        assert switch.pcie.meter.capacity == ACCTON_AS5712.pcie_poll_bps

    def test_available_resources_includes_monitoring_tcam_share(self):
        switch = Switch(Simulator(), 1)
        resources = switch.available_resources()
        assert resources[R_TCAM] == int(ACCTON_AS5712.tcam_entries * 0.25)


class TestFleet:
    def test_for_topology_one_switch_per_node(self):
        from repro.net.topology import spine_leaf
        sim = Simulator()
        topo = spine_leaf(2, 3, 1)
        fleet = SwitchFleet.for_topology(sim, topo)
        assert len(fleet) == 5
        for switch_id in topo.switch_ids:
            assert switch_id in fleet

    def test_duplicate_switch_rejected(self):
        fleet = SwitchFleet(Simulator())
        fleet.add(1)
        with pytest.raises(SwitchError):
            fleet.add(1)

    def test_unknown_switch_lookup(self):
        with pytest.raises(SwitchError):
            SwitchFleet(Simulator()).get(42)

    def test_iteration_sorted_by_id(self):
        fleet = SwitchFleet(Simulator())
        fleet.add(5)
        fleet.add(2)
        assert [s.switch_id for s in fleet] == [2, 5]


class TestDrivers:
    def test_driver_for_picks_by_os(self):
        sim = Simulator()
        assert isinstance(driver_for(Switch(sim, 1, ACCTON_AS5712)),
                          StratumDriver)
        assert isinstance(driver_for(Switch(sim, 2, ARISTA_7280QRA)),
                          EosSdkDriver)

    def test_driver_platform_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(SwitchError):
            StratumDriver(Switch(sim, 1, ARISTA_7280QRA))
        with pytest.raises(SwitchError):
            EosSdkDriver(Switch(sim, 1, ACCTON_AS5712))

    def test_read_port_counters_returns_latency(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        attach_test_flow(switch)
        sim.run(until=1.0)
        driver = driver_for(switch)
        stats, latency = driver.read_port_counters([1])
        assert stats[0].tx_bytes == pytest.approx(1000.0)
        assert latency > 0

    def test_batched_read_covers_all_ports(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        driver = driver_for(switch)
        stats, _latency = driver.read_port_counters()
        assert len(stats) == switch.asic.num_ports

    def test_table_write_and_delete(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        driver = driver_for(switch)
        rule = TcamRule(flt.DstPortFilter(80), RuleAction.DROP,
                        region=MONITORING)
        rule_id, latency = driver.write_table_entry(rule)
        assert latency > 0
        assert driver.get_table_entry(flt.DstPortFilter(80)) is rule
        driver.delete_table_entry(rule_id)
        assert driver.get_table_entry(flt.DstPortFilter(80)) is None

    def test_sample_packets_via_driver(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        attach_test_flow(switch)
        driver = driver_for(switch)
        batch, latency = driver.sample_packets(flt.TrueFilter())
        assert batch  # the lone flow soaks up the whole budget
        assert len({p.key for p in batch.packets()}) == 1
        assert latency > 0

    def test_rule_counters_via_driver(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        attach_test_flow(switch, rate=100.0)
        driver = driver_for(switch)
        rule_id, _ = driver.write_table_entry(
            TcamRule(flt.DstPortFilter(80), RuleAction.COUNT,
                     region=MONITORING))
        sim.run(until=10.0)
        stats, _latency = driver.read_rule_counters([rule_id])
        assert stats[0].matched_bytes == pytest.approx(1000.0)

    def test_eos_driver_has_higher_overhead(self):
        assert EosSdkDriver.CALL_OVERHEAD_S > StratumDriver.CALL_OVERHEAD_S

    def test_calls_counted(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        driver = driver_for(switch)
        driver.read_port_counters([0])
        driver.read_port_counters([0])
        assert driver.calls == 2
