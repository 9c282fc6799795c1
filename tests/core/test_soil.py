"""Soil tests: deployment, polling, aggregation, reactions, realloc."""

import pytest

from repro.almanac.parser import parse
from repro.almanac.xmlcodec import encode_program
from repro.core.comm import (
    CommScheme,
    ControlBus,
    ExecutionMode,
    SoilCommConfig,
)
from repro.core.soil import Soil
from repro.errors import DeploymentError
from repro.net.packet import PROTO_TCP, Flow, FlowKey
from repro.net.addresses import parse_ip
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for

COUNTING_SEED = """
machine Counter {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state counting {
    util (res) { return 1; }
    when (pollStats as stats) do {
      polls = polls + 1;
      send polls to harvester;
    }
  }
}
"""

REACTING_SEED = """
machine Reactor {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
  external long threshold;
  state watching {
    when (pollStats as stats) do {
      int i = 0;
      while (i < size(stats)) {
        if (get(stats, i).rate_bps >= threshold) then {
          addTCAMRule(makeRule(port get(stats, i).port,
                               makeRateLimitAction(1000)));
        }
        i = i + 1;
      }
    }
  }
}
"""


@pytest.fixture
def rig():
    sim = Simulator()
    switch = Switch(sim, 1)
    bus = ControlBus(sim)
    soil = Soil(sim, switch, driver_for(switch), bus)
    return sim, switch, bus, soil


def deploy(soil, source, seed_id="s1", externals=None, allocation=None,
           **kwargs):
    program = parse(source)
    return soil.deploy(
        seed_id=seed_id, task_id=f"task/{seed_id}",
        program_xml=encode_program(program),
        machine_name=program.machines[-1].name,
        externals=externals,
        allocation=allocation or {"vCPU": 0.1, "RAM": 64, "TCAM": 8,
                                  "PCIe": 100},
        **kwargs)


def attach_flow(switch, rate=1e6, port=1):
    key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"), 1000, 80,
                  PROTO_TCP)
    flow = Flow(key, rate_bps=rate, start_time=switch.sim.now)
    switch.asic.attach_flow(flow, 0, port)
    return flow


class TestDeployment:
    def test_deploy_starts_machine_and_timers(self, rig):
        sim, switch, bus, soil = rig
        received = []
        bus.register("harvester/task/s1", lambda m: received.append(
            m.payload["value"]))
        deploy(soil, COUNTING_SEED)
        sim.run(until=0.105)
        assert received == list(range(1, len(received) + 1))
        assert len(received) >= 8

    def test_duplicate_seed_rejected(self, rig):
        _sim, _switch, _bus, soil = rig
        deploy(soil, COUNTING_SEED)
        with pytest.raises(DeploymentError):
            deploy(soil, COUNTING_SEED)

    def test_undeploy_stops_everything(self, rig):
        sim, switch, bus, soil = rig
        deploy(soil, COUNTING_SEED)
        sim.run(until=0.05)
        snapshot = soil.undeploy("s1")
        events_at_undeploy = sim.events_processed
        sim.run(until=1.0)
        assert soil.num_seeds == 0
        assert snapshot["machine"] == "Counter"
        assert snapshot["machine_vars"]["polls"] >= 4

    def test_undeploy_unknown_rejected(self, rig):
        _sim, _switch, _bus, soil = rig
        with pytest.raises(DeploymentError):
            soil.undeploy("ghost")

    def test_snapshot_and_resume_on_other_soil(self, rig):
        sim, switch, bus, soil = rig
        deploy(soil, COUNTING_SEED)
        sim.run(until=0.05)
        snapshot = soil.undeploy("s1")
        switch2 = Switch(sim, 2)
        soil2 = Soil(sim, switch2, driver_for(switch2), bus)
        deploy(soil2, COUNTING_SEED, seed_id="s1", snapshot=snapshot)
        count_before = snapshot["machine_vars"]["polls"]
        sim.run(until=sim.now + 0.05)
        resumed = soil2.deployments["s1"].instance
        assert resumed.snapshot()["machine_vars"]["polls"] > count_before

    def test_zero_pcie_allocation_disables_resource_dependent_poll(self, rig):
        sim, _switch, _bus, soil = rig
        source = COUNTING_SEED.replace(".ival = 0.01",
                                       ".ival = 10 / res().PCIe")
        deployment = deploy(soil, source,
                            allocation={"vCPU": 0.1, "RAM": 64, "TCAM": 8,
                                        "PCIe": 0})
        assert deployment.timers == {}


class TestPollingAggregation:
    def _deploy_many(self, soil, count):
        for index in range(count):
            deploy(soil, COUNTING_SEED, seed_id=f"s{index}")

    def test_aggregation_dedupes_driver_polls(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        soil = Soil(sim, switch, driver_for(switch), ControlBus(sim),
                    config=SoilCommConfig(aggregation=True))
        self._deploy_many(soil, 10)
        sim.run(until=0.5)
        total = soil.metrics.sum_values
        assert total("farm_soil_poll_cache_hits_total") > 0
        # With aggregation, ~one driver poll per tick instead of ten.
        assert total("farm_soil_polls_total") \
            < total("farm_soil_poll_cache_hits_total")

    def test_no_aggregation_polls_per_seed(self):
        sim = Simulator()
        switch = Switch(sim, 1)
        soil = Soil(sim, switch, driver_for(switch), ControlBus(sim),
                    config=SoilCommConfig(aggregation=False))
        self._deploy_many(soil, 10)
        sim.run(until=0.5)
        total = soil.metrics.sum_values
        assert total("farm_soil_poll_cache_hits_total") == 0
        assert total("farm_soil_polls_total") >= 10 * 40

    def test_pcie_standing_demand_aggregated_is_lower(self):
        def standing(aggregation):
            sim = Simulator()
            switch = Switch(sim, 1)
            soil = Soil(sim, switch, driver_for(switch), ControlBus(sim),
                        config=SoilCommConfig(aggregation=aggregation))
            self._deploy_many(soil, 10)
            return switch.pcie.standing_demand_bps

        assert standing(True) * 5 < standing(False)


class TestLocalReactions:
    def test_rule_installed_on_detection(self, rig):
        sim, switch, _bus, soil = rig
        attach_flow(switch, rate=1e6, port=3)
        deploy(soil, REACTING_SEED, externals={"threshold": 500_000})
        sim.run(until=0.05)
        rules = switch.tcam.rules("monitoring")
        assert len(rules) >= 1
        # reaction took effect: port rate limited
        assert switch.asic.read_port_stats(3).rate_bps == pytest.approx(1000)

    def test_tcam_budget_enforced(self, rig):
        sim, switch, _bus, soil = rig
        for port in range(5):
            key = FlowKey(parse_ip("10.0.0.1") + port, parse_ip("10.1.0.1"),
                          1000 + port, 80, PROTO_TCP)
            switch.asic.attach_flow(Flow(key, 1e6), 0, port)
        deploy(soil, REACTING_SEED, externals={"threshold": 1},
               allocation={"vCPU": 0.1, "RAM": 64, "TCAM": 2, "PCIe": 100})
        with pytest.raises(Exception):
            sim.run(until=0.05)

    def test_rules_cleaned_up_on_undeploy(self, rig):
        sim, switch, _bus, soil = rig
        attach_flow(switch, rate=1e6, port=3)
        deploy(soil, REACTING_SEED, externals={"threshold": 500_000})
        sim.run(until=0.05)
        assert switch.tcam.used("monitoring") >= 1
        soil.undeploy("s1")
        assert switch.tcam.used("monitoring") == 0


class TestRealloc:
    def test_realloc_updates_resources_and_fires_event(self, rig):
        sim, _switch, bus, soil = rig
        source = """
machine M {
  place all;
  poll p = Poll { .ival = 10 / res().PCIe, .what = port ANY };
  state s {
    when (realloc) do { send res().PCIe to harvester; }
    when (p as stats) do { }
  }
}
"""
        received = []
        bus.register("harvester/task/s1",
                     lambda m: received.append(m.payload["value"]))
        deploy(soil, source, allocation={"vCPU": 0.1, "RAM": 64,
                                         "TCAM": 8, "PCIe": 100})
        old_interval = soil.deployments["s1"].timers["p"].interval
        soil.reallocate("s1", {"vCPU": 0.1, "RAM": 64, "TCAM": 8,
                               "PCIe": 1000})
        sim.run(until=0.5)
        assert received == [1000.0]
        assert soil.deployments["s1"].timers["p"].interval < old_interval


class TestDynamicPollingRate:
    def test_seed_changes_own_interval(self, rig):
        sim, _switch, _bus, soil = rig
        source = """
machine M {
  place all;
  poll p = Poll { .ival = 0.1, .what = port ANY };
  long n = 0;
  state s {
    when (p as stats) do {
      n = n + 1;
      if (n == 1) then { p.ival = 0.01; }
    }
  }
}
"""
        deploy(soil, source)
        sim.run(until=1.0)
        instance = soil.deployments["s1"].instance
        # 0.1s until first poll, then ~90 polls at 10ms
        assert instance.snapshot()["machine_vars"]["n"] > 50


class TestExternals:
    def test_exec_requires_registration(self, rig):
        sim, _switch, _bus, soil = rig
        source = """
machine M {
  place all;
  time t = 0.01;
  state s { when (t) do { exec("mystery", 0); } }
}
"""
        deploy(soil, source)
        with pytest.raises(Exception):
            sim.run(until=0.05)

    def test_exec_charges_cpu(self, rig):
        sim, switch, _bus, soil = rig
        soil.register_external("work", lambda arg: arg, cpu_cost_s=0.001)
        source = """
machine M {
  place all;
  time t = 0.01;
  state s { when (t) do { exec("work", 1); } }
}
"""
        deploy(soil, source)
        sim.run(until=1.0)
        # ~100 invocations x 1ms = 0.1 core-seconds over 1s -> ~10%+
        assert switch.cpu.mean_load_percent() > 5.0
