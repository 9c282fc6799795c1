"""Differential tests: fused poll groups vs the scalar reference path.

The batched data path (``Soil(batching=True)``, the default) must be
*observationally identical* to per-seed scalar firing: same seed reports
in the same order, same registry counters, same final machine snapshots.
Only internal event-heap traffic may differ (that is the optimization).
"""

import pytest

from repro.almanac.parser import parse
from repro.almanac.xmlcodec import encode_program
from repro.core.comm import ControlBus
from repro.core.soil import Soil
from repro.net.addresses import parse_ip
from repro.net.packet import PROTO_TCP, Flow, FlowKey
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for

COUNTING_SEED = """
machine Counter {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state counting {
    when (pollStats as stats) do {
      polls = polls + 1;
      send polls to harvester;
    }
  }
}
"""

# Kitchen sink: branches, a transit, TCAM reactions, a while loop —
# nothing here is vector-eligible, so this exercises the fused-group
# scalar fallback end to end.
KITCHEN_SINK_SEED = """
machine Sink {
  place all;
  poll pollStats = Poll { .ival = 0.02, .what = port ANY };
  external long threshold;
  long rounds = 0;
  list seen;
  state watching {
    when (pollStats as stats) do {
      rounds = rounds + 1;
      int i = 0;
      while (i < size(stats)) {
        if (get(stats, i).rate_bps >= threshold) then {
          if (not contains(seen, get(stats, i).port)) then {
            append(seen, get(stats, i).port);
            addTCAMRule(makeRule(port get(stats, i).port,
                                 makeRateLimitAction(1000)));
            transit alerting;
          }
        }
        i = i + 1;
      }
    }
  }
  state alerting {
    when (enter) do {
      send size(seen) to harvester;
      transit watching;
    }
  }
}
"""

INTERVAL_CHANGER = """
machine Changer {
  place all;
  poll p = Poll { .ival = 0.02, .what = port ANY };
  long n = 0;
  state s {
    when (p as stats) do {
      n = n + 1;
      if (n == 3) then { p.ival = 0.005; }
      send n to harvester;
    }
  }
}
"""


def _make_soil(batching):
    sim = Simulator()
    switch = Switch(sim, 1)
    bus = ControlBus(sim)
    soil = Soil(sim, switch, driver_for(switch), bus, batching=batching)
    return sim, switch, bus, soil


def _deploy_n(soil, bus, source, n, received, externals=None, prefix="s"):
    program = parse(source)
    xml = encode_program(program)
    name = program.machines[-1].name
    if not bus.is_registered("harvester/task"):
        bus.register("harvester/task", lambda m: received.append(
            (m.payload["seed_id"], m.payload["value"])))
    for i in range(n):
        soil.deploy(seed_id=f"{prefix}{i}", task_id="task", program_xml=xml,
                    machine_name=name, externals=externals,
                    allocation={"vCPU": 0.1, "RAM": 64, "TCAM": 8,
                                "PCIe": 100})


def _attach_flow(switch, rate=1e6, port=1):
    key = FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"), 1000, 80,
                  PROTO_TCP)
    flow = Flow(key, rate_bps=rate, start_time=switch.sim.now)
    switch.asic.attach_flow(flow, 0, port)
    return flow


def _observe(sim, soil, received):
    snaps = {sid: soil.deployments[sid].instance.snapshot()
             for sid in sorted(soil.deployments)}
    return {
        "messages": list(received),
        "snapshots": snaps,
        "polls": soil.metrics.sum_values("farm_soil_polls_total"),
        "cache_hits": soil.metrics.sum_values(
            "farm_soil_poll_cache_hits_total"),
        "events": int(soil._m_events.value),
        "rules": {sid: len(d.rules) for sid, d in soil.deployments.items()},
    }


class TestCountingParity:
    def _run(self, batching):
        sim, switch, bus, soil = _make_soil(batching)
        received = []
        _deploy_n(soil, bus, COUNTING_SEED, 8, received)
        sim.run(until=0.2)
        return _observe(sim, soil, received), soil, sim

    def test_batched_matches_scalar(self):
        batched, bsoil, bsim = self._run(True)
        scalar, ssoil, ssim = self._run(False)
        assert batched == scalar
        # The batched run really took the fused + vectorized path...
        assert bsoil._m_batched_polls.value > 0
        assert bsoil._m_vector_events.value > 0
        assert ssoil._m_batched_polls.value == 0
        # ...and it shrank the event heap traffic.
        assert bsim.events_processed < ssim.events_processed

    def test_mixed_machines_share_nothing(self):
        # Different machines on one switch: groups fuse per plan, the
        # vector kernel only fires for compatible (machine, state) rows.
        def run(batching):
            sim, switch, bus, soil = _make_soil(batching)
            _attach_flow(switch, rate=5e6)
            received = []
            _deploy_n(soil, bus, COUNTING_SEED, 4, received, prefix="c")
            _deploy_n(soil, bus, KITCHEN_SINK_SEED, 3, received,
                      externals={"threshold": 1e6}, prefix="k")
            sim.run(until=0.3)
            return _observe(sim, soil, received)
        assert run(True) == run(False)


class TestKitchenSinkParity:
    def _run(self, batching):
        sim, switch, bus, soil = _make_soil(batching)
        _attach_flow(switch, rate=5e6, port=1)
        _attach_flow(switch, rate=3e6, port=2)
        received = []
        _deploy_n(soil, bus, KITCHEN_SINK_SEED, 6, received,
                  externals={"threshold": 1e6})
        sim.run(until=0.4)
        return _observe(sim, soil, received)

    def test_reactions_and_transits_match(self):
        assert self._run(True) == self._run(False)


class TestDynamicsParity:
    def test_mid_run_interval_change(self):
        def run(batching):
            sim, switch, bus, soil = _make_soil(batching)
            received = []
            _deploy_n(soil, bus, INTERVAL_CHANGER, 5, received)
            sim.run(until=0.3)
            return _observe(sim, soil, received)
        assert run(True) == run(False)

    def test_staggered_deploys_and_undeploy(self):
        def run(batching):
            sim, switch, bus, soil = _make_soil(batching)
            received = []
            _deploy_n(soil, bus, COUNTING_SEED, 3, received, prefix="a")
            sim.run(until=0.055)
            _deploy_n(soil, bus, COUNTING_SEED, 3, received, prefix="b")
            sim.run(until=0.101)
            undeployed = soil.undeploy("a1")
            sim.run(until=0.2)
            obs = _observe(sim, soil, received)
            obs["undeployed"] = undeployed
            return obs
        assert run(True) == run(False)

    def test_power_off_drops_everything(self):
        def run(batching):
            sim, switch, bus, soil = _make_soil(batching)
            received = []
            _deploy_n(soil, bus, COUNTING_SEED, 4, received)
            sim.run(until=0.1)
            soil.power_off()
            sim.run(until=0.3)
            return list(received), soil.num_seeds, sim.pending()
        assert run(True) == run(False)

    def test_crash_restart_parity(self):
        crasher = """
machine Crasher {
  place all;
  poll p = Poll { .ival = 0.01, .what = port ANY };
  long n = 0;
  state s {
    when (p as stats) do {
      n = n + 1;
      if (n == 4) then { n = n / 0; }
      send n to harvester;
    }
  }
}
"""
        def run(batching):
            sim, switch, bus, soil = _make_soil(batching)
            soil.crash_policy = "restart"
            received = []
            _deploy_n(soil, bus, crasher, 4, received)
            sim.run(until=0.1)
            obs = _observe(sim, soil, received)
            obs["crashes"] = dict(soil.seed_crashes)
            return obs
        assert run(True) == run(False)


class TestFullDeploymentParity:
    def test_heavy_hitter_detections_identical(self):
        from repro.core.deployment import FarmDeployment
        from repro.net.topology import spine_leaf
        from repro.net.traffic import HeavyHitterWorkload
        from repro.tasks import make_heavy_hitter_task

        def trace(scalar):
            farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
            if scalar:
                # Read when a trigger is armed, so before any deploy.
                for soil in farm.seeder.soils.values():
                    soil.batching = False
            task = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
            farm.submit(task)
            farm.settle()
            leaf = farm.topology.leaf_ids[0]
            workload = HeavyHitterWorkload(num_ports=20, hh_ratio=0.1,
                                           hh_rate_bps=1e8,
                                           churn_interval=0.5, seed=7)
            farm.start_workload(workload, leaf)
            farm.run(until=farm.sim.now + 2.0)
            return [(round(t, 9), sw, p)
                    for t, sw, p in task.harvester.detections]

        batched = trace(scalar=False)
        scalar = trace(scalar=True)
        assert batched, "workload produced no detections"
        assert batched == scalar


# ---------------------------------------------------------------------------
# Group-level firing: one poll, one bulk charge pass and at most two
# delivery buckets per fused group.  Everything below compares it with
# groups of one (``batching=False``) and, for the arithmetic, with ``==``:
# registry and integral must keep their bits.
# ---------------------------------------------------------------------------

TIMER_SEED = """
machine Ticker {
  place all;
  time tick = 0.01;
  long ticks = 0;
  state s {
    when (tick) do {
      ticks = ticks + 1;
      send ticks to harvester;
    }
  }
}
"""


def _make_world(batching, config=None, trace=False):
    from repro.obs import Observability
    sim = Simulator()
    obs = Observability(sim, trace=trace)
    switch = Switch(sim, 1, registry=obs.registry)
    bus = ControlBus(sim, registry=obs.registry, tracer=obs.tracer)
    soil = Soil(sim, switch, driver_for(switch), bus, config=config,
                batching=batching)
    return sim, switch, bus, soil, obs


def _deploy_timed(sim, soil, bus, source, n, arrivals, prefix="s"):
    """``_deploy_n`` with a harvester that also records arrival times, so
    delivery *times* are compared, not only their order."""
    if not bus.is_registered("harvester/task"):
        bus.register("harvester/task", lambda m: arrivals.append(
            (sim.now, m.payload["seed_id"], m.payload["value"])))
    _deploy_n(soil, bus, source, n, None, prefix=prefix)


def _observe_exact(sim, switch, soil, obs, arrivals):
    total = obs.registry.sum_values
    return {
        "arrivals": list(arrivals),
        "snapshots": {sid: soil.deployments[sid].instance.snapshot()
                      for sid in sorted(soil.deployments)},
        "delivered": {sid: d.events_delivered
                      for sid, d in soil.deployments.items()},
        "polls": total("farm_soil_polls_total"),
        "cache_hits": total("farm_soil_poll_cache_hits_total"),
        "events": total("farm_soil_events_total"),
        "pcie_bytes": total("farm_pcie_bytes_total"),
        "pcie_transfers": total("farm_pcie_transfers_total"),
        "cpu_work_s": total("farm_cpu_work_seconds_total"),
        "cpu_ctx": total("farm_cpu_context_switches_total"),
        "cpu_demand": switch.cpu.mean_demand_percent(),
        "spans": list(obs.tracer.events),
    }


def _run_counting(batching, config=None, trace=False, seeds=8, until=0.2,
                  source=COUNTING_SEED, script=None):
    sim, switch, bus, soil, obs = _make_world(batching, config, trace)
    _attach_flow(switch, rate=5e6)
    arrivals = []
    _deploy_timed(sim, soil, bus, source, seeds, arrivals)
    if script is not None:
        script(sim, soil)
    sim.run(until=until)
    return _observe_exact(sim, switch, soil, obs, arrivals), soil


class TestGroupLevelFiringParity:
    def _assert_parity(self, **kwargs):
        batched, bsoil = _run_counting(True, **kwargs)
        scalar, ssoil = _run_counting(False, **kwargs)
        assert batched == scalar
        assert batched["arrivals"], "nothing was delivered"
        assert bsoil._m_batched_polls.value > 0
        assert ssoil._m_batched_polls.value == 0
        return batched

    def test_process_seeds_charge_context_switches(self):
        from repro.core.comm import CommScheme, ExecutionMode, SoilCommConfig
        obs = self._assert_parity(config=SoilCommConfig(
            execution_mode=ExecutionMode.PROCESS,
            comm_scheme=CommScheme.GRPC))
        # Two switches for the fan-out and two for the handler, per seed
        # per round, whoever polled.
        assert obs["cpu_ctx"] == 4 * obs["events"]

    def test_grpc_latency_depends_on_deployment_count(self):
        from repro.core.comm import CommScheme, SoilCommConfig

        def grow(sim, soil):
            # A later, differently-phased deploy changes len(deployments)
            # and with it every group's gRPC latency from then on.
            sim.schedule_at(0.105, _deploy_timed, sim, soil, soil.bus,
                            COUNTING_SEED, 3, [], "late")

        self._assert_parity(config=SoilCommConfig(
            comm_scheme=CommScheme.GRPC), script=grow)

    def test_aggregation_off_every_member_polls(self):
        from repro.core.comm import SoilCommConfig
        obs = self._assert_parity(config=SoilCommConfig(aggregation=False))
        assert obs["cache_hits"] == 0
        assert obs["polls"] == obs["events"]

    def test_traced_runs_emit_identical_span_lists(self):
        obs = self._assert_parity(trace=True)
        polls = [e for e in obs["spans"] if e.get("cat") == "poll"]
        assert len(polls) == obs["events"]  # one span per member per round

    def test_time_triggers_fuse_too(self):
        obs = self._assert_parity(source=TIMER_SEED)
        assert obs["polls"] == obs["cache_hits"] == 0

    def test_member_undeployed_between_firing_and_delivery(self):
        def script(sim, soil):
            # Followers are delivered ~13 us after the tick, the leader
            # later still (its poll crossed PCIe): 5 us after a tick both
            # deliveries are in flight.
            sim.schedule_at(0.03 + 5e-6, soil.undeploy, "s2")
            sim.schedule_at(0.06 + 5e-6, soil.undeploy, "s0")  # the leader

        obs = self._assert_parity(script=script)
        assert obs["delivered"]["s1"] == 19
        # s2 saw ticks 1-2, s0 ticks 1-5: their in-flight events were
        # dropped, everyone else's were not.
        counts = {}
        for _t, seed_id, value in obs["arrivals"]:
            counts[seed_id] = max(counts.get(seed_id, 0), value)
        assert counts["s2"] == 2 and counts["s0"] == 5
        assert counts["s1"] == 19

    def test_group_shrinks_to_two_then_one(self):
        def script(sim, soil):
            sim.schedule_at(0.045, soil.undeploy, "s3")
            sim.schedule_at(0.085, soil.undeploy, "s0")   # two left
            sim.schedule_at(0.125, soil.undeploy, "s2")   # one left
            sim.schedule_at(0.165, soil.undeploy, "s1")   # none

        batched, bsoil = _run_counting(True, seeds=4, script=script)
        scalar, _ = _run_counting(False, seeds=4, script=script)
        assert batched == scalar
        # Fused while >= 2 members remained (ticks 1-12), not after.
        assert bsoil._m_batched_polls.value == 12
        assert not bsoil._poll_groups and not bsoil._memberships
        assert batched["events"] == 4 * 4 + 3 * 4 + 2 * 4 + 1 * 4

    def test_fifty_seeds_keep_every_bit_of_the_cpu_account(self):
        batched, bsoil = _run_counting(True, seeds=50, until=0.5)
        scalar, _ = _run_counting(False, seeds=50, until=0.5)
        # == on floats, deliberately: Fig. 4/5 recompute load from the
        # registry and compare with the integral exactly.
        assert batched["cpu_demand"] == scalar["cpu_demand"]
        assert batched["cpu_work_s"] == scalar["cpu_work_s"]
        assert batched == scalar
        assert bsoil._m_vector_events.value > 0

    def test_a_fused_group_costs_kernel_events_per_group_not_per_seed(self):
        # Beyond the bus deliveries both arms share, a round costs the
        # kernel one timer firing and at most two delivery buckets however
        # many seeds are fused; groups of one pay both per seed.
        seeds, rounds = 50, 50

        def kernel_overhead(batching):
            obs, soil = _run_counting(batching, seeds=seeds, until=0.505)
            assert obs["events"] == seeds * rounds
            return (soil.sim.events_processed
                    - soil.metrics.sum_values("farm_bus_messages_total"))

        assert kernel_overhead(True) <= 3 * rounds
        assert kernel_overhead(False) == 2 * seeds * rounds


READING_SEED = """
machine Reader {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
  state reading {
    when (pollStats as stats) do {
      send get(stats, 1).tx_bytes to harvester;
    }
  }
}
"""


class TestAggregationTransparency:
    """Polling aggregation saves PCIe reads without changing what a seed
    sees (SVI-E): with the soil's aggregation cache on or off, every seed
    receives the same sequence of counter values."""

    @staticmethod
    def _inputs(aggregation, batching):
        from repro.core.comm import SoilCommConfig
        sim, switch, bus, soil, obs = _make_world(
            batching, SoilCommConfig(aggregation=aggregation))
        _attach_flow(switch, rate=5e6)
        arrivals = []
        _deploy_timed(sim, soil, bus, READING_SEED, 6, arrivals)
        sim.run(until=0.405)  # 40 rounds at 10 ms
        inputs = {}
        for _, seed_id, value in arrivals:
            inputs.setdefault(seed_id, []).append(value)
        return inputs, obs.registry.sum_values("farm_soil_polls_total")

    @pytest.mark.parametrize("batching", [True, False])
    def test_aggregation_on_off_yields_identical_seed_inputs(self, batching):
        on, on_polls = self._inputs(True, batching)
        off, off_polls = self._inputs(False, batching)
        assert on == off
        assert sorted(on) == [f"s{i}" for i in range(6)]
        for values in on.values():
            assert len(values) == 40
            # A round served the previous round's counters repeats a value.
            assert all(a < b for a, b in zip(values, values[1:]))
        assert (on_polls, off_polls) == (40, 6 * 40)

    @pytest.mark.parametrize("batching", [True, False])
    def test_each_plan_interval_is_its_timers_interval(self, batching):
        # The cache's expiry repeats the timer's float add, which is exact
        # only while the two intervals are the same number.
        sim, switch, bus, soil, _ = _make_world(batching)
        _attach_flow(switch)
        received = []
        _deploy_n(soil, bus, COUNTING_SEED, 3, received, prefix="c")
        _deploy_n(soil, bus, INTERVAL_CHANGER, 3, received, prefix="v")

        def check():
            for seed_id, deployment in soil.deployments.items():
                for var, plan in deployment.poll_plans.items():
                    timer = soil._memberships[seed_id, var].timer
                    assert deployment.timers[var] is timer
                    assert plan.interval == timer.interval

        check()
        sim.run(until=0.1)  # the changers retime themselves to 5 ms
        assert {d.poll_plans["p"].interval for sid, d in
                soil.deployments.items() if sid.startswith("v")} == {0.005}
        check()
        deployment = soil.deployments["c0"]
        soil.set_trigger_interval(deployment, "pollStats", 0.0137)
        assert deployment.poll_plans["pollStats"].interval == 0.0137
        check()


class TestStaleRoundCacheHit:
    """No poll round is served the previous round's counters.

    A cached poll expires at its timer's own deadline: the cache test is
    ``now < cached.time + interval``, the float add the timer makes to arm
    its next firing.  The older test, ``now - cached.time < interval``,
    held on rounds where ``(t + 0.01) - t < 0.01`` in floats, and on those
    the whole group — or a lone seed — saw a zero counter delta.
    """

    OLD_STALE_ROUNDS = [3, 8, 10, 12, 25]  # of 40 at 10 ms from t = 0

    def test_float_arithmetic_predicts_the_stale_rounds(self):
        def stale_rounds(fresh):
            now, cached_at, stale = 0.0, None, []
            for round_no in range(1, 41):
                now = now + 0.01
                if cached_at is not None and fresh(now, cached_at):
                    stale.append(round_no)
                else:
                    cached_at = now
            return stale

        assert stale_rounds(lambda now, at: now - at < 0.01) \
            == self.OLD_STALE_ROUNDS
        assert stale_rounds(lambda now, at: now < at + 0.01) == []

    @pytest.mark.parametrize("batching", [True, False])
    @pytest.mark.parametrize("seeds", [1, 10])
    def test_todays_poll_counts(self, batching, seeds):
        obs, soil = _run_counting(batching, seeds=seeds, until=0.405)
        rounds = 40
        assert obs["events"] == seeds * rounds
        assert obs["polls"] == rounds                  # 40 ASIC polls
        assert obs["cache_hits"] == (seeds - 1) * rounds
        if batching and seeds > 1:
            assert soil._m_batched_polls.value == rounds  # 40 firings
