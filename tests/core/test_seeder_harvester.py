"""Seeder and harvester tests over a full FarmDeployment."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.harvester import Harvester
from repro.core.task import MachineConfig, TaskDefinition
from repro.errors import DeploymentError
from repro.net.topology import spine_leaf

PING_SOURCE = """
machine Ping {
  place all;
  time tick = 0.05;
  long n = 0;
  state running {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (tick) do {
      n = n + 1;
      send n to harvester;
    }
  }
}
"""

CHATTY_PAIR_SOURCE = """
machine Speaker {
  place all;
  time tick = 0.05;
  state talking {
    util (res) { if (res.vCPU >= 0.1) then { return 5; } }
    when (tick) do { send "hello" to Listener; }
  }
}
machine Listener {
  place all;
  list heard;
  state listening {
    util (res) { if (res.vCPU >= 0.1) then { return 5; } }
    when (recv string msg from Speaker) do {
      append(heard, msg);
      send size(heard) to harvester;
    }
  }
}
"""


def ping_task(task_id="ping", harvester=None):
    return TaskDefinition.single_machine(
        task_id=task_id, source=PING_SOURCE, machine_name="Ping",
        harvester=harvester or Harvester())


class TestSubmit:
    def test_place_all_deploys_per_switch(self):
        farm = FarmDeployment(topology=spine_leaf(1, 3, 1))
        farm.submit(ping_task())
        farm.settle()
        assert farm.seeder.deployed_seed_count() == 4  # 1 spine + 3 leaves

    def test_duplicate_task_rejected(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        farm.submit(ping_task())
        with pytest.raises(DeploymentError):
            farm.submit(ping_task())

    def test_harvester_receives_reports_from_all_seeds(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        harvester = Harvester()
        farm.submit(ping_task(harvester=harvester))
        farm.settle()
        farm.run(until=farm.sim.now + 0.3)
        switches = {r.switch for r in harvester.reports}
        assert switches == set(farm.topology.switch_ids)

    def test_remove_task_undeploys(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        farm.submit(ping_task())
        farm.settle()
        assert farm.seeder.deployed_seed_count() > 0
        farm.seeder.remove_task("ping")
        farm.settle()  # undeploy commands travel over the bus
        assert farm.seeder.deployed_seed_count() == 0
        with pytest.raises(DeploymentError):
            farm.seeder.remove_task("ping")

    def test_task_without_machines_rejected(self):
        with pytest.raises(DeploymentError):
            TaskDefinition(task_id="x", source=PING_SOURCE, machines=[])


class TestSeedMessaging:
    def test_seed_to_seed_via_seeder(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        harvester = Harvester()
        task = TaskDefinition(
            task_id="pair", source=CHATTY_PAIR_SOURCE,
            machines=[MachineConfig("Speaker"), MachineConfig("Listener")],
            harvester=harvester)
        farm.submit(task)
        farm.settle()
        farm.run(until=farm.sim.now + 0.5)
        values = [report.value for report in harvester.reports]
        assert values
        assert max(values) >= 2

    def test_harvester_broadcast_to_seeds(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        harvester = Harvester()
        source = """
machine Adj {
  place all;
  long value = 0;
  time tick = 0.05;
  state s {
    util (res) { if (res.vCPU >= 0.1) then { return 3; } }
    when (recv long v from harvester) do { value = v; }
    when (tick) do { send value to harvester; }
  }
}
"""
        task = TaskDefinition.single_machine(
            task_id="adj", source=source, machine_name="Adj",
            harvester=harvester)
        farm.submit(task)
        farm.settle()
        sent = harvester.send_to_seeds("Adj", 99)
        assert sent == 3
        farm.run(until=farm.sim.now + 0.2)
        assert 99 in [report.value for report in harvester.reports]

    def test_broadcast_restricted_to_switch(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        harvester = Harvester()
        farm.submit(ping_task(harvester=harvester))
        farm.settle()
        target = farm.topology.leaf_ids[0]
        sent = farm.seeder.broadcast_to_seeds(
            "ping", "Ping", target, 1, source="test")
        assert sent == 1


class TestMigrationLifecycle:
    def test_reoptimize_is_stable_when_nothing_changes(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        farm.submit(ping_task())
        farm.settle()
        before = {
            seed.seed_id: seed.switch
            for task in farm.seeder.tasks.values() for seed in task.seeds}
        solution = farm.seeder.reoptimize()
        farm.settle()
        after = {
            seed.seed_id: seed.switch
            for task in farm.seeder.tasks.values() for seed in task.seeds}
        assert before == after
        assert solution.migrated_seeds(farm.seeder.build_problem()) == []

    def test_seed_state_tracked_by_seeder(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        source = """
machine Flip {
  place all;
  time tick = 0.05;
  state a {
    util (res) { if (res.vCPU >= 0.1) then { return 1; } }
    when (tick) do { transit b; }
  }
  state b {
    util (res) { if (res.vCPU >= 0.1) then { return 2; } }
  }
}
"""
        task = TaskDefinition.single_machine(task_id="flip", source=source,
                                             machine_name="Flip")
        farm.submit(task)
        farm.settle()
        farm.run(until=farm.sim.now + 0.2)
        seeds = farm.seeder.tasks["flip"].seeds
        assert all(seed.current_state == "b" for seed in seeds)

    def test_manual_migration_preserves_seed_state(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        farm.submit(ping_task())
        farm.settle()
        farm.run(until=farm.sim.now + 0.3)
        task = farm.seeder.tasks["ping"]
        seed = task.seeds[0]
        source_soil = farm.seeder.soils[seed.switch]
        count_before = source_soil.deployments[
            seed.seed_id].instance.snapshot()["machine_vars"]["n"]
        target = next(s for s in farm.topology.switch_ids
                      if s != seed.switch)
        farm.seeder._migrate(task, seed, target,
                             {"vCPU": 0.2, "RAM": 32, "TCAM": 4,
                              "PCIe": 100})
        farm.settle(0.1)
        assert seed.switch == target
        resumed = farm.seeder.soils[target].deployments[seed.seed_id]
        assert resumed.instance.snapshot()["machine_vars"]["n"] >= count_before
        assert farm.metrics.value("farm_seeder_migrations_total") == 1


class TestHarvesterLifecycle:
    def test_double_attach_rejected(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        harvester = Harvester()
        farm.submit(ping_task(harvester=harvester))
        with pytest.raises(DeploymentError):
            harvester.attach(farm.sim, farm.bus, "other", farm.seeder)

    def test_detached_harvester_stops_receiving(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        harvester = Harvester()
        farm.submit(ping_task(harvester=harvester))
        farm.settle()
        farm.run(until=farm.sim.now + 0.12)
        count = len(harvester.reports)
        assert count > 0
        harvester.detach()
        farm.run(until=farm.sim.now + 0.3)
        assert len(harvester.reports) == count

    def test_unattached_send_rejected(self):
        with pytest.raises(DeploymentError):
            Harvester().send_to_seeds("M", 1)
