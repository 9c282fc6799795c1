"""``Seeder.drain``: what a drain promises and what it still re-places.

A drain cordons one switch and warm-starts Alg. 1 from the live
placement with every other placed seed pinned to its switch, so its
blast radius is the drained switch's seeds.
"""

import random

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.task import MachineConfig, TaskDefinition
from repro.net.topology import spine_leaf
from repro.placement.model import validate_solution


def probe_tasks(rng, count):
    """``count`` tasks of one to three ``place any`` probes.  A probe is
    placed idle, worth a constant above a drawn vCPU floor; its first
    tick turns it busy, worth a multiple of its vCPU — so the live
    placement is no longer what Alg. 1 would choose, and a re-solve free
    to move seeds would move some."""
    tasks = []
    for index in range(count):
        machines = rng.randint(1, 3)
        probes = []
        for m in range(machines):
            floor = rng.choice([0.25, 0.5, 1.0, 1.5])
            probes.append(f"""
machine P{m} {{
  place any;
  time tick = 0.5;
  state idle {{
    util (res) {{
      if (res.vCPU >= {floor}) then {{ return {rng.randint(1, 9)}; }}
    }}
    when (tick) do {{ transit busy; }}
  }}
  state busy {{
    util (res) {{
      if (res.vCPU >= {floor}) then {{
        return {rng.randint(1, 9)} * res.vCPU;
      }}
    }}
  }}
}}""")
        tasks.append(TaskDefinition(
            task_id=f"probe{index}", source="\n".join(probes),
            machines=[MachineConfig(machine_name=f"P{m}")
                      for m in range(machines)]))
    return tasks


class TestDrain:
    @pytest.mark.parametrize("fleet_seed", [1, 2, 3])
    def test_only_the_drained_switchs_seeds_move(self, fleet_seed):
        # Drain the whole fleet one switch at a time: the later drains
        # run out of room, so both the warm path and its eviction rung
        # are exercised.
        rng = random.Random(fleet_seed)
        farm = FarmDeployment(topology=spine_leaf(2, 4, 1))
        tasks = probe_tasks(rng, rng.randint(4, 10))
        for task in tasks:
            farm.submit(task, reoptimize=task is tasks[-1])
        farm.settle()
        farm.run(until=farm.sim.now + 1.0)  # every probe is busy now
        seeder = farm.seeder
        rungs = set()
        for switch in sorted(farm.topology.switch_ids):
            before = dict(seeder.last_solution.placement)
            solution = seeder.drain(switch)
            fallback = solution.info.get("fallback")
            assert solution.info["incremental"] is True \
                or fallback == "eviction"
            rungs.add(fallback)
            for sid, home in before.items():
                if home == switch:
                    continue
                # The warm path keeps every other seed where it is; the
                # eviction rung's full solve may park a pinned task to
                # keep the displaced one, but never moves a seed.
                allowed = (home,) if fallback is None else (home, None)
                assert solution.placement.get(sid) in allowed, sid
            farm.settle()
            assert validate_solution(seeder.build_problem(),
                                     seeder.last_solution) == []
        assert rungs == {None, "eviction"}

    def test_displaced_seed_fits_after_the_residents_are_reclaimed(self):
        # The resident's utility grows with vCPU, so the per-switch LP
        # gives it all four of its switch's cores.  The mover, displaced
        # by the drain, needs two of them: it is re-placed only if the
        # solver shrinks the resident back to its one-core floor first.
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        home, refuge = sorted(farm.topology.switch_ids)
        resident = TaskDefinition.single_machine(
            task_id="resident", machine_name="R", source=f"""
machine R {{
  place all {refuge};
  time tick = 1;
  state s {{ util (res) {{ if (res.vCPU >= 1) then {{ return res.vCPU; }} }} }}
}}""")
        mover = TaskDefinition.single_machine(
            task_id="mover", machine_name="M", source=f"""
machine M {{
  place any {home}, {refuge};
  time tick = 1;
  state s {{ util (res) {{ if (res.vCPU >= 2) then {{ return 5; }} }} }}
}}""")
        farm.submit(resident, reoptimize=False)
        farm.submit(mover)
        farm.settle()
        seeder = farm.seeder
        assert seeder.last_solution.placement == {
            "mover/M#0": home, "resident/R#0": refuge}
        assert seeder.last_solution.allocations["resident/R#0"]["vCPU"] \
            == 4.0
        solution = seeder.drain(home)
        assert solution.info["incremental"] is True
        assert solution.placement == {
            "mover/M#0": refuge, "resident/R#0": refuge}
        assert solution.allocations["mover/M#0"]["vCPU"] == 2.0
