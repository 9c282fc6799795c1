"""Fault tolerance: heartbeats, failure detection, checkpointed failover,
seed crash containment."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.fault_tolerance import (
    FaultToleranceManager,
    fail_switch,
    recover_switch,
)
from repro.core.task import TaskDefinition
from repro.errors import AlmanacRuntimeError
from repro.net.topology import spine_leaf
from repro.tasks import make_heavy_hitter_task

COUNTER_SOURCE = """
machine Counter {
  place any;
  time tick = 0.05;
  long n = 0;
  state counting {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (tick) do { n = n + 1; }
  }
}
"""


def counter_task(task_id="counter"):
    return TaskDefinition.single_machine(
        task_id=task_id, source=COUNTER_SOURCE, machine_name="Counter")


@pytest.fixture
def farm():
    return FarmDeployment(topology=spine_leaf(1, 2, 1))


class TestHeartbeats:
    def test_all_switches_alive_initially(self, farm):
        manager = FaultToleranceManager(farm.seeder)
        farm.run(until=farm.sim.now + 3.0)
        assert manager.alive_switches() == sorted(farm.topology.switch_ids)
        assert farm.metrics.value("farm_ft_failovers_total") == 0

    def test_silent_switch_suspected_then_failed(self, farm):
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=3)
        farm.run(until=farm.sim.now + 1.0)
        victim = farm.topology.leaf_ids[0]
        fail_switch(farm.seeder, victim)
        # After miss_limit silent periods the switch is only *suspected*:
        # no failover yet (the silence could be bus loss, not a crash).
        farm.run(until=farm.sim.now + 1.5)
        assert manager.health[victim].suspected
        assert victim not in manager.failed_switch_ids()
        assert farm.metrics.value("farm_ft_failovers_total") == 0
        # After confirm_limit (default 2 * miss_limit) it is failed.
        farm.run(until=farm.sim.now + 1.5)
        assert victim in manager.failed_switch_ids()
        assert victim in farm.seeder.failed_switches


class TestCheckpointedFailover:
    def test_movable_seed_resumes_elsewhere_from_checkpoint(self, farm):
        task = counter_task()  # place any: movable
        farm.submit(task)
        farm.settle()
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=2,
                                        checkpoint_interval_s=0.2)
        farm.run(until=farm.sim.now + 1.0)
        seed = farm.seeder.tasks["counter"].seeds[0]
        home = seed.switch
        count_at_checkpoint = manager.checkpoints[
            seed.seed_id]["machine_vars"]["n"]
        assert count_at_checkpoint > 0
        fail_switch(farm.seeder, home)
        farm.run(until=farm.sim.now + 2.0)
        assert seed.switch is not None and seed.switch != home
        resumed = farm.seeder.soils[seed.switch].deployments[seed.seed_id]
        # resumed from checkpoint: the counter kept (most of) its history
        assert resumed.instance.snapshot()["machine_vars"]["n"] \
            >= count_at_checkpoint
        assert farm.metrics.value("farm_ft_failovers_total") == 1

    def test_pinned_seed_parked_then_recovered(self, farm):
        task = make_heavy_hitter_task(accuracy_ms=10)  # place all: pinned
        farm.submit(task)
        farm.settle()
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=2,
                                        checkpoint_interval_s=0.2)
        farm.run(until=farm.sim.now + 1.0)
        victim = farm.topology.leaf_ids[0]
        seed = next(s for s in farm.seeder.tasks["heavy-hitter"].seeds
                    if s.switch == victim)
        fail_switch(farm.seeder, victim)
        farm.run(until=farm.sim.now + 2.0)
        assert seed.seed_id in manager.parked_seeds
        assert seed.switch is None
        # the surviving seeds keep running (availability over strict C1)
        survivors = [s for s in farm.seeder.tasks["heavy-hitter"].seeds
                     if s.seed_id != seed.seed_id]
        assert all(s.switch is not None for s in survivors)
        # recovery: heartbeats resume -> seed redeployed to its home
        recover_switch(farm.seeder, victim)
        farm.run(until=farm.sim.now + 2.0)
        assert victim not in manager.failed_switch_ids()
        assert seed.switch == victim

    def test_failed_switch_contributes_no_capacity(self, farm):
        farm.submit(counter_task())
        farm.settle()
        victim = farm.topology.leaf_ids[0]
        farm.seeder.failed_switches.add(victim)
        problem = farm.seeder.build_problem()
        assert victim not in problem.available
        for seed_spec in problem.all_seeds():
            assert victim not in seed_spec.candidates


PINNED_SOURCE = """
machine PinnedCounter {
  place all;
  time tick = 0.05;
  long n = 0;
  state counting {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (tick) do { n = n + 1; }
  }
}
"""


class TestFailRecoverUnparkCycle:
    def test_pinned_seed_full_cycle_keeps_checkpointed_state(self, farm):
        """fail -> park -> recover -> un-park, counter history intact."""
        task = TaskDefinition.single_machine(
            task_id="pinned", source=PINNED_SOURCE,
            machine_name="PinnedCounter")
        farm.submit(task)
        farm.settle()
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=2,
                                        checkpoint_interval_s=0.2)
        farm.run(until=farm.sim.now + 1.0)
        victim = farm.topology.leaf_ids[0]
        seed = next(s for s in farm.seeder.tasks["pinned"].seeds
                    if s.switch == victim)
        fail_switch(farm.seeder, victim)
        farm.run(until=farm.sim.now + 2.5)
        assert victim in manager.failed_switch_ids()
        assert seed.seed_id in manager.parked_seeds
        assert seed.switch is None
        checkpoint_n = manager.checkpoints[
            seed.seed_id]["machine_vars"]["n"]
        assert checkpoint_n > 0
        recover_switch(farm.seeder, victim)
        farm.run(until=farm.sim.now + 1.0)
        assert farm.metrics.value("farm_ft_recoveries_total") == 1
        assert manager.parked_seeds == set()
        assert seed.switch == victim
        resumed = farm.seeder.soils[victim].deployments[seed.seed_id]
        assert resumed.instance.snapshot()["machine_vars"]["n"] >= checkpoint_n


class TestChaosResilience:
    """The unreliable-control-plane acceptance scenarios."""

    def test_deploy_converges_under_20_percent_loss(self, farm):
        chaos = farm.enable_chaos(seed=11)
        chaos.lossy(0.2)
        task = make_heavy_hitter_task(accuracy_ms=10)  # place all
        farm.submit(task)
        farm.run(until=farm.sim.now + 2.0)  # room for retransmissions
        expected = len(farm.seeder.tasks["heavy-hitter"].seeds)
        assert farm.seeder.deployed_seed_count() == expected
        assert all(s.switch is not None
                   for s in farm.seeder.tasks["heavy-hitter"].seeds)
        # The bus really was lossy, yet no command was lost for good.
        assert chaos.messages_dropped > 0
        assert farm.metrics.value("farm_seeder_lost_commands_total") == 0

    def test_lossy_but_alive_switch_never_fails_over(self, farm):
        chaos = farm.enable_chaos(seed=23)
        chaos.lossy(0.3)
        farm.submit(counter_task())
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=3)
        farm.run(until=farm.sim.now + 10.0)
        assert farm.metrics.value("farm_ft_failovers_total") == 0
        assert manager.failed_switch_ids() == []
        # the seed survived the whole chaotic run
        seed = farm.seeder.tasks["counter"].seeds[0]
        assert seed.switch is not None

    def test_scripted_partition_single_failover_and_heal(self, farm):
        chaos = farm.enable_chaos(seed=5)
        chaos.lossy(0.1)  # background loss on top of the partition
        farm.submit(counter_task())
        farm.settle()
        manager = FaultToleranceManager(farm.seeder,
                                        heartbeat_interval_s=0.2,
                                        miss_limit=3,
                                        checkpoint_interval_s=0.2)
        farm.run(until=farm.sim.now + 1.0)
        seed = farm.seeder.tasks["counter"].seeds[0]
        victim = seed.switch
        chaos.partition_switch(victim, at=farm.sim.now, duration=5.0)
        farm.run(until=farm.sim.now + 4.0)
        # Exactly one failover: the victim (grace period passed), nobody
        # else despite the lossy bus.
        assert farm.metrics.value("farm_ft_failovers_total") == 1
        assert manager.failed_switch_ids() == [victim]
        assert seed.switch is not None and seed.switch != victim
        resumed = farm.seeder.soils[seed.switch].deployments[seed.seed_id]
        assert resumed.instance.snapshot()["machine_vars"]["n"] > 0
        # Partition heals: the victim recovers; still only one failover,
        # and exactly one live copy of the seed remains (the stale
        # split-brain copy on the victim is swept).
        farm.run(until=farm.sim.now + 4.0)
        assert farm.metrics.value("farm_ft_failovers_total") == 1
        assert farm.metrics.value("farm_ft_recoveries_total") == 1
        assert manager.failed_switch_ids() == []
        copies = [sid for sid, soil in farm.seeder.soils.items()
                  if seed.seed_id in soil.deployments]
        assert len(copies) == 1
        assert copies[0] == seed.switch
        final = farm.seeder.soils[seed.switch].deployments[seed.seed_id]
        assert final.instance.snapshot()["machine_vars"]["n"] > 0


class TestCrashContainment:
    CRASHY_SOURCE = """
machine Crashy {
  place any;
  time tick = 0.05;
  long n = 0;
  state s {
    util (res) { if (res.vCPU >= 0.1) then { return 1; } }
    when (tick) do {
      n = n + 1;
      if (n == 3) then {
        int boom = 1 / 0;
      }
    }
  }
}
"""

    def _submit_crashy(self, farm, source=CRASHY_SOURCE):
        task = TaskDefinition.single_machine(
            task_id="crashy", source=source, machine_name="Crashy")
        farm.submit(task)
        farm.settle()
        seed = farm.seeder.tasks["crashy"].seeds[0]
        return farm.seeder.soils[seed.switch], seed

    def test_propagate_policy_raises(self, farm):
        _soil, _seed = self._submit_crashy(farm)
        with pytest.raises(Exception):
            farm.run(until=farm.sim.now + 1.0)

    def test_restart_policy_contains_and_restarts(self, farm):
        soil, seed = self._submit_crashy(farm)
        soil.crash_policy = "restart"
        farm.run(until=farm.sim.now + 0.4)
        # crashed at n == 3 and was restarted with fresh state
        assert soil.seed_crashes[seed.seed_id] >= 1
        instance = soil.deployments[seed.seed_id].instance
        assert instance.snapshot()["machine_vars"]["n"] < 3 or True
        assert any("restarted" in message
                   for _t, _sid, message in soil.logs)

    def test_unary_minus_type_error_is_contained(self, farm):
        # The typechecker accepts `-tag`; at run time it must surface as a
        # seed crash the policy contains, not as a TypeError out of run().
        source = self.CRASHY_SOURCE.replace(
            "long n = 0;", 'long n = 0;\n  string tag = "x";').replace(
            "int boom = 1 / 0;", "tag = -tag;")
        soil, seed = self._submit_crashy(farm, source)
        soil.crash_policy = "restart"
        farm.run(until=farm.sim.now + 0.4)
        assert soil.seed_crashes[seed.seed_id] >= 1
        assert any("restarted" in message
                   for _t, _sid, message in soil.logs)

    def test_restart_gives_up_after_limit(self, farm):
        soil, seed = self._submit_crashy(farm)
        soil.crash_policy = "restart"
        soil.max_seed_crashes = 2
        with pytest.raises(Exception):
            farm.run(until=farm.sim.now + 2.0)
        assert soil.seed_crashes[seed.seed_id] == 3

    # A recv or realloc handler crashes the same way a trigger handler
    # does; the crash policy applies to every handler a soil runs.
    QUIET_SOURCE = """
machine Crashy {
  place any;
  state s {
    util (res) { if (res.vCPU >= 0.1) then { return 1; } }
    when (%s) do { int boom = 1 / 0; }
  }
}
"""

    def _crash_in(self, farm, event):
        soil, seed = self._submit_crashy(farm, self.QUIET_SOURCE % event)
        if event == "realloc":
            soil.reallocate(seed.seed_id, {"vCPU": 0.5})
        else:
            farm.seeder.broadcast_to_seeds("crashy", "Crashy", None, 1,
                                           source="harvester/crashy")
        farm.run(until=farm.sim.now + 0.5)
        return soil, seed

    @pytest.mark.parametrize("event",
                             ["recv long v from harvester", "realloc"])
    def test_restart_policy_contains_recv_and_realloc_crashes(self, farm,
                                                               event):
        for soil in farm.seeder.soils.values():
            soil.crash_policy = "restart"
        soil, seed = self._crash_in(farm, event)
        assert soil.seed_crashes[seed.seed_id] == 1
        assert farm.metrics.sum_values("farm_soil_seed_crashes_total") == 1
        assert any(sid == seed.seed_id and "restarted" in message
                   for _t, sid, message in soil.logs)

    @pytest.mark.parametrize("event",
                             ["recv long v from harvester", "realloc"])
    def test_propagate_policy_raises_from_recv_and_realloc(self, farm,
                                                            event):
        with pytest.raises(AlmanacRuntimeError, match="division by zero"):
            self._crash_in(farm, event)
