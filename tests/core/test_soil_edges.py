"""Soil edge cases: probes with flag filters, time triggers, cache
freshness, rule lookups from seeds, inter-seed addressing errors."""

import pytest

from repro.almanac.parser import parse
from repro.almanac.xmlcodec import encode_program
from repro.core.comm import ControlBus, SoilCommConfig
from repro.core.soil import PROBE_BATCH_SIZE, Soil
from repro.errors import DeploymentError
from repro.net.addresses import parse_ip
from repro.net.packet import PROTO_TCP, Flow, FlowKey, TCP_SYN
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for


@pytest.fixture
def rig():
    sim = Simulator()
    switch = Switch(sim, 1)
    bus = ControlBus(sim)
    soil = Soil(sim, switch, driver_for(switch), bus)
    return sim, switch, bus, soil


def deploy(soil, source, seed_id="s", externals=None, machine=None):
    program = parse(source)
    return soil.deploy(
        seed_id=seed_id, task_id=f"t/{seed_id}",
        program_xml=encode_program(program),
        machine_name=machine or program.machines[0].name,
        externals=externals,
        allocation={"vCPU": 0.1, "RAM": 64, "TCAM": 8, "PCIe": 100})


class TestProbeFiltering:
    def test_syn_filter_sees_only_syn_flows(self, rig):
        sim, switch, bus, soil = rig
        syn_key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"),
                          1, 80, PROTO_TCP)
        plain_key = FlowKey(parse_ip("10.0.0.2"), parse_ip("10.1.0.1"),
                            2, 80, PROTO_TCP)
        switch.asic.attach_flow(
            Flow(syn_key, 1e5, default_tcp_flags=TCP_SYN), 0, 1)
        switch.asic.attach_flow(Flow(plain_key, 1e6), 0, 1)
        received = []
        bus.register("harvester/t/s",
                     lambda m: received.extend(m.payload["value"]))
        deploy(soil, """
machine SynWatch {
  place all;
  probe pkts = Probe { .ival = 0.05, .what = tcpFlags 2 };
  state s {
    when (pkts as samples) do {
      list srcs;
      int i = 0;
      while (i < size(samples)) {
        append(srcs, ipstr(get(samples, i).src_ip));
        i = i + 1;
      }
      send srcs to harvester;
    }
  }
}""")
        sim.run(until=0.2)
        assert received
        assert set(received) == {"10.0.0.1"}

    def test_probe_batch_bounded(self, rig):
        sim, switch, bus, soil = rig
        for index in range(PROBE_BATCH_SIZE + 30):
            key = FlowKey(parse_ip("10.0.0.1") + index,
                          parse_ip("10.1.0.1"), 1000 + index, 80, PROTO_TCP)
            switch.asic.attach_flow(Flow(key, 1e4), 0, index % 8)
        sizes = []
        bus.register("harvester/t/s",
                     lambda m: sizes.append(m.payload["value"]))
        deploy(soil, """
machine Batch {
  place all;
  probe pkts = Probe { .ival = 0.05, .what = port ANY };
  state s { when (pkts as samples) do { send size(samples) to harvester; } }
}""")
        sim.run(until=0.2)
        assert sizes and max(sizes) == PROBE_BATCH_SIZE


class TestTimeTriggers:
    def test_time_trigger_delivers_none(self, rig):
        sim, _switch, bus, soil = rig
        received = []
        bus.register("harvester/t/s",
                     lambda m: received.append(m.payload["value"]))
        deploy(soil, """
machine Clock {
  place all;
  time tick = 0.1;
  long n = 0;
  state s { when (tick) do { n = n + 1; send n to harvester; } }
}""")
        sim.run(until=1.05)
        assert received == list(range(1, len(received) + 1))
        assert len(received) == 10


class TestRuleLookupFromSeed:
    def test_get_tcam_rule_roundtrip(self, rig):
        sim, switch, bus, soil = rig
        received = []
        bus.register("harvester/t/s",
                     lambda m: received.append(m.payload["value"]))
        deploy(soil, """
machine Lookup {
  place all;
  time tick = 0.05;
  long phase = 0;
  state s {
    when (tick) do {
      if (phase == 0) then {
        addTCAMRule(makeRule(dstPort 80, makeDropAction()));
        phase = 1;
      } else {
        if (getTCAMRule(dstPort 80) <> 0) then {
          send "found" to harvester;
        }
        removeTCAMRule(dstPort 80);
        if (getTCAMRule(dstPort 80) == 0) then {
          send "gone" to harvester;
        }
        phase = 0;
      }
    }
  }
}""")
        sim.run(until=0.2)
        # Bus latency scales with message size, so delivery order between
        # different-sized messages is not FIFO; compare as a set.
        assert set(received) == {"found", "gone"}


class TestSeedMessagingErrors:
    def test_send_without_router_raises(self, rig):
        sim, _switch, _bus, soil = rig
        deploy(soil, """
machine Talker {
  place all;
  time tick = 0.05;
  state s { when (tick) do { send 1 to Other; } }
}
machine Other { place all; state s { } }
""", seed_id="talker")
        with pytest.raises(DeploymentError, match="router"):
            sim.run(until=0.1)


class TestCacheFreshness:
    def test_fast_poller_refreshes_for_slow_poller(self, rig):
        """A 10 ms poller keeps the cache fresh enough that a 50 ms poller
        always hits it; the slow poller alone would poll the driver."""
        sim, _switch, _bus, soil = rig
        fast = """
machine Fast {
  place all;
  poll p = Poll { .ival = 0.01, .what = port ANY };
  state s { when (p as d) do { } }
}"""
        slow = """
machine Slow {
  place all;
  poll p = Poll { .ival = 0.05, .what = port ANY };
  state s { when (p as d) do { } }
}"""
        deploy(soil, fast, seed_id="fast")
        deploy(soil, slow, seed_id="slow")
        sim.run(until=1.0)
        # ~100 fast polls drive the driver; ~20 slow polls all hit cache
        total = soil.metrics.sum_values
        assert total("farm_soil_poll_cache_hits_total") >= 19
        assert total("farm_soil_polls_total") <= 105
