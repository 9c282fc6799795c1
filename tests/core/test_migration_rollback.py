"""Dead-lettered migration deploys: roll back to the source, never strand."""

from repro.core.deployment import FarmDeployment
from repro.core.task import TaskDefinition
from repro.net.topology import spine_leaf

ROVER_SOURCE = """
machine Rover {
  place any;
  time tick = 0.05;
  long n = 0;
  state running {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (tick) do { n = n + 1; }
  }
}
"""

ALLOC = {"vCPU": 0.2, "RAM": 32, "TCAM": 4, "PCIe": 100}


def rover_task():
    return TaskDefinition.single_machine(
        task_id="rover", source=ROVER_SOURCE, machine_name="Rover")


def live_on(farm, seed, switch):
    return seed.seed_id in farm.seeder.soils[switch].deployments


class TestDeadLetterRollback:
    def test_deploy_dead_letter_rolls_back_to_source(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        chaos = farm.enable_chaos(seed=5)
        farm.submit(rover_task())
        farm.settle()
        farm.run(until=farm.sim.now + 0.5)
        task = farm.seeder.tasks["rover"]
        seed = task.seeds[0]
        source = seed.switch
        count_before = farm.seeder.soils[source].deployments[
            seed.seed_id].instance.snapshot()["machine_vars"]["n"]
        target = next(s for s in farm.topology.switch_ids if s != source)
        # The target goes dark before the migration: the undeploy (and
        # its state snapshot) succeeds at the source, but the deploy at
        # the target exhausts every retransmission.
        chaos.partition_switch(target, duration=30.0)
        farm.seeder._migrate(task, seed, target, dict(ALLOC))
        farm.run(until=farm.sim.now + 5.0)
        assert seed.switch == source
        assert not seed.migrating
        assert seed.migration_source is None
        assert live_on(farm, seed, source)
        assert farm.metrics.value(
            "farm_seeder_migration_rollbacks_total") == 1
        # The dead deploy carried the snapshot; rolling back restored it.
        resumed = farm.seeder.soils[source].deployments[seed.seed_id]
        assert resumed.instance.snapshot()["machine_vars"]["n"] >= count_before

    def test_unusable_source_requeues_for_reoptimize(self):
        # Two switches only: the seed's source is cordoned mid-migration,
        # so a rollback is off the table — the seed must be re-queued and
        # re-placed once the target heals, not stranded with switch=None.
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        chaos = farm.enable_chaos(seed=5)
        farm.submit(rover_task())
        farm.settle()
        task = farm.seeder.tasks["rover"]
        seed = task.seeds[0]
        source = seed.switch
        target = next(s for s in farm.topology.switch_ids if s != source)
        chaos.partition_switch(target, duration=2.0)
        farm.seeder._migrate(task, seed, target, dict(ALLOC))
        farm.seeder.cordoned_switches.add(source)
        farm.run(until=farm.sim.now + 5.0)
        assert farm.metrics.value(
            "farm_seeder_migration_rollbacks_total") == 0
        assert farm.metrics.value("farm_seeder_lost_commands_total") >= 1
        assert seed.switch == target
        assert live_on(farm, seed, target)

    def test_rollback_skipped_when_source_failed(self):
        # Same shape, but the source *fails* outright instead of being
        # cordoned; rollback would deploy onto a dead soil.
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        chaos = farm.enable_chaos(seed=5)
        farm.submit(rover_task())
        farm.settle()
        task = farm.seeder.tasks["rover"]
        seed = task.seeds[0]
        source = seed.switch
        target = next(s for s in farm.topology.switch_ids if s != source)
        chaos.partition_switch(target, duration=2.0)
        farm.seeder._migrate(task, seed, target, dict(ALLOC))
        farm.seeder.failed_switches.add(source)
        farm.run(until=farm.sim.now + 5.0)
        assert farm.metrics.value(
            "farm_seeder_migration_rollbacks_total") == 0
        assert seed.switch == target
        assert live_on(farm, seed, target)
