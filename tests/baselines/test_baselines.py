"""Baseline system tests: sFlow, Sonata, Newton, Planck, Helios."""

import pytest

from repro.baselines.sflow import SflowAgent, SflowCollector, SflowDeployment
from repro.baselines.sonata import (
    NewtonDeployment,
    SonataDeployment,
    SonataQuery,
)
from repro.baselines.specialized import HeliosMonitor, PlanckMonitor
from repro.core.comm import ControlBus
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch, SwitchFleet
from repro.switchsim.stratum import driver_for

THRESHOLD = 10e6


def rig(num_ports=20, hh_ratio=0.1):
    sim = Simulator()
    switch = Switch(sim, 1)
    bus = ControlBus(sim)
    workload = HeavyHitterWorkload(num_ports=num_ports, hh_ratio=hh_ratio,
                                   hh_rate_bps=1e8, churn_interval=None,
                                   seed=5)
    workload.start(sim, switch.asic)
    return sim, switch, bus, workload


class TestSflow:
    def test_detects_heavy_hitters(self):
        sim, switch, bus, workload = rig()
        collector = SflowCollector(sim, bus, THRESHOLD)
        SflowAgent(sim, switch, driver_for(switch), bus, collector.endpoint,
                   probe_period_s=0.001)
        sim.run(until=2.0)
        detected = {port for _t, _sw, port in collector.detections}
        assert detected == workload.true_heavy_ports()

    def test_latency_dominated_by_analysis_interval(self):
        sim, switch, bus, workload = rig()
        collector = SflowCollector(sim, bus, THRESHOLD,
                                   analysis_interval_s=0.1)
        SflowAgent(sim, switch, driver_for(switch), bus, collector.endpoint,
                   probe_period_s=0.001)
        sim.run(until=2.0)
        first = collector.first_detection_time()
        assert first is not None
        assert 0.001 < first <= 0.25

    def test_network_load_scales_with_ports_and_rate(self):
        def bytes_for(period, ports):
            sim = Simulator()
            switch = Switch(sim, 1)
            bus = ControlBus(sim)
            collector = SflowCollector(sim, bus, THRESHOLD)
            SflowAgent(sim, switch, driver_for(switch), bus,
                       collector.endpoint, probe_period_s=period,
                       monitored_ports=list(range(ports)))
            sim.run(until=1.0)
            return bus.metrics.value("farm_bus_bytes_total")

        assert bytes_for(0.001, 10) > 5 * bytes_for(0.010, 10)
        assert bytes_for(0.010, 40) > 3 * bytes_for(0.010, 10)

    def test_agent_cpu_load_flat_in_flow_count(self):
        sim, switch, bus, _workload = rig(num_ports=5)
        collector = SflowCollector(sim, bus, THRESHOLD)
        SflowAgent(sim, switch, driver_for(switch), bus,
                   collector.endpoint, probe_period_s=0.01)
        load_before = switch.cpu.standing_load_cores
        # attaching more flows does not change the standing agent load:
        # sFlow's cost is per sample, not per monitored flow (Fig. 5)
        more = HeavyHitterWorkload(num_ports=30, hh_ratio=0.1, seed=9,
                                   churn_interval=None)
        more.start(sim, switch.asic)
        assert switch.cpu.standing_load_cores == load_before > 0.0

    def test_deployment_bundles_fleet(self):
        sim = Simulator()
        topo = spine_leaf(1, 2, 1)
        fleet = SwitchFleet.for_topology(sim, topo)
        bus = ControlBus(sim)
        deployment = SflowDeployment(
            sim, [(sw, driver_for(sw)) for sw in fleet], bus, THRESHOLD)
        sim.run(until=0.1)
        assert sum(agent.samples_sent for agent in deployment.agents) > 0


class TestSonata:
    def test_detects_after_window_and_batch(self):
        sim, switch, bus, workload = rig()
        deployment = SonataDeployment(
            sim, [(switch, driver_for(switch))], bus,
            SonataQuery(threshold_bps=THRESHOLD))
        sim.run(until=10.0)
        first = deployment.collector.first_detection_time()
        assert first is not None
        # window (1s) + spark batch (2s) + job: seconds, not milliseconds
        assert first > 1.0

    def test_aggregation_factor_reduces_records(self):
        def records(factor):
            sim, switch, bus, _workload = rig()
            deployment = SonataDeployment(
                sim, [(switch, driver_for(switch))], bus,
                SonataQuery(threshold_bps=THRESHOLD,
                            aggregation_factor=factor))
            sim.run(until=5.0)
            return sum(p.records_sent for p in deployment.pipelines)

        assert records(0.75) < records(0.0) * 0.4

    def test_invalid_aggregation_factor(self):
        with pytest.raises(ValueError):
            SonataQuery(aggregation_factor=1.0)

    def test_query_update_resets_pipeline_state(self):
        sim, switch, bus, _workload = rig()
        deployment = SonataDeployment(
            sim, [(switch, driver_for(switch))], bus,
            SonataQuery(threshold_bps=THRESHOLD))
        sim.run(until=2.5)
        pipeline = deployment.pipelines[0]
        assert pipeline._last_bytes
        pipeline.update_query(SonataQuery(threshold_bps=1.0))
        assert not pipeline._last_bytes  # state lost (Sonata semantics)

    def test_sonata_is_switch_local_only(self):
        """Sonata cannot merge streams: per-switch keys stay distinct."""
        sim = Simulator()
        topo = spine_leaf(1, 2, 1)
        fleet = SwitchFleet.for_topology(sim, topo)
        bus = ControlBus(sim)
        pairs = [(sw, driver_for(sw)) for sw in fleet
                 if sw.switch_id in topo.leaf_ids]
        # Each leaf carries half-threshold traffic on port 0: only a
        # network-wide (merged) view crosses the threshold.
        for sw, _d in pairs:
            wl = HeavyHitterWorkload(num_ports=1, hh_ratio=1.0,
                                     hh_rate_bps=0.6 * THRESHOLD,
                                     mouse_rate_bps=1, churn_interval=None,
                                     seed=1)
            wl.start(sim, sw.asic)
        sonata = SonataDeployment(sim, pairs, bus,
                                  SonataQuery(threshold_bps=THRESHOLD))
        sim.run(until=8.0)
        assert sonata.collector.first_detection_time() is None

    def test_newton_merges_streams(self):
        sim = Simulator()
        topo = spine_leaf(1, 2, 1)
        fleet = SwitchFleet.for_topology(sim, topo)
        bus = ControlBus(sim)
        pairs = [(sw, driver_for(sw)) for sw in fleet
                 if sw.switch_id in topo.leaf_ids]
        for sw, _d in pairs:
            wl = HeavyHitterWorkload(num_ports=1, hh_ratio=1.0,
                                     hh_rate_bps=0.6 * THRESHOLD,
                                     mouse_rate_bps=1, churn_interval=None,
                                     seed=1)
            wl.start(sim, sw.asic)
        newton = NewtonDeployment(sim, pairs, bus,
                                  SonataQuery(threshold_bps=THRESHOLD))
        sim.run(until=8.0)
        assert newton.collector.first_detection_time() is not None

    def test_newton_query_update_keeps_state(self):
        sim, switch, bus, _workload = rig()
        newton = NewtonDeployment(sim, [(switch, driver_for(switch))], bus,
                                  SonataQuery(threshold_bps=THRESHOLD))
        sim.run(until=2.5)
        state_before = dict(newton.pipelines[0]._last_bytes)
        newton.update_query(SonataQuery(threshold_bps=5.0))
        assert newton.pipelines[0]._last_bytes == state_before
        assert newton.query_updates == 1


class TestSpecialized:
    def test_planck_detects_in_milliseconds(self):
        sim, switch, _bus, workload = rig()
        monitor = PlanckMonitor(sim, switch, driver_for(switch), THRESHOLD)
        sim.run(until=1.0)
        first = monitor.first_detection_time()
        assert first is not None
        assert first < 0.02

    def test_planck_noise_rejection_needs_streak(self):
        sim, switch, _bus, _workload = rig()
        monitor = PlanckMonitor(sim, switch, driver_for(switch), THRESHOLD,
                                epochs_to_confirm=3)
        sim.run(until=1.0)
        first = monitor.first_detection_time()
        assert first >= 3 * monitor.epoch_s

    def test_helios_detects_on_pooling_schedule(self):
        sim, switch, _bus, _workload = rig()
        monitor = HeliosMonitor(sim, switch, driver_for(switch), THRESHOLD)
        sim.run(until=2.0)
        first = monitor.first_detection_time()
        assert first is not None
        assert 0.02 < first < 0.3

    def test_latency_ordering_matches_tab4(self):
        """Planck < Helios on the same scenario (Tab. 4 ordering)."""
        def detect(cls):
            sim, switch, _bus, _workload = rig()
            monitor = cls(sim, switch, driver_for(switch), THRESHOLD)
            sim.run(until=5.0)
            return monitor.first_detection_time()

        assert detect(PlanckMonitor) < detect(HeliosMonitor)
