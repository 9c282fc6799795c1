#!/usr/bin/env python3
"""Fault-tolerant monitoring: surviving a switch crash.

The fault-tolerance extension (the paper's SVIII future work) adds
heartbeats, periodic seed checkpointing, and checkpointed failover.  This
example crashes a leaf switch mid-run and shows the displaced seed
resuming *with its accumulated state* on a survivor, then returning home
when the switch recovers.

Run:  python examples/fault_tolerant_monitoring.py
"""

from repro.core import FarmDeployment, FaultToleranceManager, fail_switch, recover_switch
from repro.core.task import TaskDefinition
from repro.net.topology import spine_leaf

SOURCE = """
machine FlowLedger {
  place any;
  poll pollStats = Poll { .ival = 0.05, .what = port ANY };
  float totalBytes = 0.0;
  long polls = 0;
  state accounting {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (pollStats as stats) do {
      polls = polls + 1;
      int i = 0;
      while (i < size(stats)) {
        totalBytes = totalBytes + get(stats, i).rate_bps * 0.05;
        i = i + 1;
      }
    }
  }
}
"""


def ledger_state(farm, seed):
    instance = farm.seeder.soils[seed.switch].deployments[
        seed.seed_id].instance
    return instance.snapshot()["machine_vars"]["polls"]


def main() -> None:
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    task = TaskDefinition.single_machine(
        task_id="ledger", source=SOURCE, machine_name="FlowLedger")
    farm.submit(task)
    farm.settle()
    manager = FaultToleranceManager(farm.seeder,
                                    heartbeat_interval_s=0.2,
                                    miss_limit=2,
                                    checkpoint_interval_s=0.25)
    seed = farm.seeder.tasks["ledger"].seeds[0]
    home = seed.switch
    farm.run(until=farm.sim.now + 2.0)
    print(f"[t=2.0s] ledger on switch {home}: "
          f"{ledger_state(farm, seed)} polls accumulated")

    print(f"[t=2.0s] switch {home} crashes (power loss)")
    fail_switch(farm.seeder, home)
    farm.run(until=farm.sim.now + 2.0)
    print(f"[t=4.0s] failure detected: failed={manager.failed_switch_ids()}"
          f", failovers={int(farm.metrics.value('farm_ft_failovers_total'))}")
    print(f"         ledger resumed on switch {seed.switch} from its "
          f"checkpoint: {ledger_state(farm, seed)} polls retained")

    print(f"[t=4.0s] switch {home} comes back")
    recover_switch(farm.seeder, home)
    farm.run(until=farm.sim.now + 2.0)
    print(f"[t=6.0s] fleet healthy again: alive={manager.alive_switches()}"
          f", ledger now at {ledger_state(farm, seed)} polls on switch "
          f"{seed.switch}")


if __name__ == "__main__":
    main()
