#!/usr/bin/env python3
"""Chaos scenarios: monitoring through an unreliable control plane.

The control bus in a real data center loses, duplicates, and delays
messages, and sometimes a whole rack drops off the management network.
This example scripts both kinds of trouble against a running FARM
deployment and shows the two defenses working together:

* the **reliable command channel** (acks + seeded-backoff retries +
  dedup) absorbs uniform message loss — every deploy lands eventually;
* the **suspected -> failed grace period** in the fault-tolerance
  manager keeps a lossy-but-alive switch in service, while a genuine
  5-second partition still triggers exactly one checkpointed failover
  and a clean recovery when the partition heals.

Everything is seeded: rerunning prints identical numbers.

Run:  python examples/chaos_scenarios.py
"""

from repro.core import FarmDeployment, FaultToleranceManager
from repro.core.task import TaskDefinition
from repro.net.topology import spine_leaf

SOURCE = """
machine Sentinel {
  place any;
  time tick = 0.05;
  long beats = 0;
  state watching {
    util (res) { if (res.vCPU >= 0.1) then { return 10; } }
    when (tick) do { beats = beats + 1; }
  }
}
"""


def sentinel_beats(farm, seed):
    deployment = farm.seeder.soils[seed.switch].deployments[seed.seed_id]
    return deployment.instance.snapshot()["machine_vars"]["beats"]


def main() -> None:
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    chaos = farm.enable_chaos(seed=7)

    # -- scenario 1: deploy through 20% uniform control-message loss ----
    chaos.lossy(0.2)
    print("[t=0s] 20% of all control messages are being dropped")
    task = TaskDefinition.single_machine(
        task_id="sentinel", source=SOURCE, machine_name="Sentinel")
    farm.submit(task)
    farm.run(until=1.0)
    seed = farm.seeder.tasks["sentinel"].seeds[0]

    def count(name):
        return int(farm.metrics.sum_values(name))

    print(f"[t=1s] sentinel deployed on switch {seed.switch} anyway: "
          f"{chaos.messages_dropped} messages dropped so far, "
          f"{count('farm_reliable_retransmissions_total')} retransmissions, "
          f"{count('farm_seeder_lost_commands_total')} commands lost for good")

    # -- scenario 2: lossy-but-alive switches are not failed over -------
    FaultToleranceManager(farm.seeder, heartbeat_interval_s=0.2,
                          miss_limit=3, checkpoint_interval_s=0.2)
    farm.run(until=5.0)
    print(f"[t=5s] four seconds of lossy heartbeats: "
          f"failovers={count('farm_ft_failovers_total')}, "
          f"suspicions raised={count('farm_ft_suspicions_raised_total')} "
          f"(cleared={count('farm_ft_suspicions_cleared_total')}) — nobody "
          f"failed over")

    # -- scenario 3: partition the sentinel's rack for 5 s at t=10 s ----
    victim = seed.switch
    chaos.partition_switch(victim, at=10.0, duration=5.0)
    print(f"[t=5s] scripted: switch {victim} will be partitioned "
          f"from t=10s to t=15s")
    farm.run(until=14.0)
    print(f"[t=14s] partition detected and failed over "
          f"(failovers={count('farm_ft_failovers_total')}): sentinel resumed "
          f"on switch {seed.switch} from its checkpoint with "
          f"{sentinel_beats(farm, seed)} beats retained")
    farm.run(until=20.0)
    copies = [sid for sid, soil in farm.seeder.soils.items()
              if seed.seed_id in soil.deployments]
    print(f"[t=20s] partition healed: switch {victim} recovered "
          f"(recoveries={count('farm_ft_recoveries_total')}), the stale "
          f"split-brain copy was swept — live copies on {copies}")
    print(f"        final chaos tally: {chaos.stats()}")


if __name__ == "__main__":
    main()
