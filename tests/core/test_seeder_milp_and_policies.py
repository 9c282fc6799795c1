"""The live Seeder checked against the exact MILP + placement-policy
integration."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.task import TaskDefinition
from repro.net.topology import spine_leaf
from repro.placement.milp import solve_milp
from repro.placement.model import validate_solution
from repro.tasks import make_heavy_hitter_task


class TestMilpSeeder:
    @pytest.mark.parametrize("leaves", [1, 2])
    def test_live_placement_matches_the_milp(self, leaves):
        """The MILP is the oracle for Alg. 1 on fabrics small enough to
        solve exactly: same placement, same objective."""
        farm = FarmDeployment(topology=spine_leaf(1, leaves, 1))
        farm.submit(make_heavy_hitter_task(accuracy_ms=10))
        farm.settle()
        problem = farm.seeder.build_problem()
        live = farm.seeder.last_solution
        exact = solve_milp(problem, time_limit_s=10)
        assert exact.status == "optimal"
        assert exact.placement == live.placement
        assert exact.objective == pytest.approx(live.objective)
        assert validate_solution(problem, live) == []
        assert validate_solution(problem, exact) == []


class TestPlacementPolicies:
    def test_place_any_puts_exactly_one_seed(self):
        farm = FarmDeployment(topology=spine_leaf(1, 3, 1))
        source = """
machine Anywhere {
  place any;
  time tick = 0.1;
  state s { util (res) { if (res.vCPU >= 0.1) then { return 5; } } }
}
"""
        task = TaskDefinition.single_machine(
            task_id="anywhere", source=source, machine_name="Anywhere")
        farm.submit(task)
        farm.settle()
        assert farm.seeder.deployed_seed_count() == 1
        seed = farm.seeder.tasks["anywhere"].seeds[0]
        assert seed.switch in farm.topology.switch_ids
        assert set(seed.candidates) == set(farm.topology.switch_ids)

    def test_path_range_placement_on_chain(self):
        """place any midpoint <filter> range == 0 on a 5-switch chain."""
        from tests.net.test_topology import linear_topology
        farm = FarmDeployment(topology=linear_topology(5))
        source = """
machine MidBox {
  place any midpoint (srcIP "10.1.1.4" and dstIP "10.0.1.0/24") range == 0;
  time tick = 0.1;
  state s { util (res) { if (res.vCPU >= 0.1) then { return 5; } } }
}
"""
        task = TaskDefinition.single_machine(
            task_id="midbox", source=source, machine_name="MidBox")
        farm.submit(task)
        farm.settle()
        seed = farm.seeder.tasks["midbox"].seeds[0]
        # chain switches are ids 1..5; the midpoint is switch 3
        assert seed.candidates == (3,)
        assert seed.switch == 3

    def test_receiver_range_placement(self):
        from tests.net.test_topology import linear_topology
        farm = FarmDeployment(topology=linear_topology(5))
        source = """
machine NearReceiver {
  place all receiver (dstIP "10.0.1.0/24") range <= 1;
  time tick = 0.1;
  state s { util (res) { if (res.vCPU >= 0.1) then { return 5; } } }
}
"""
        task = TaskDefinition.single_machine(
            task_id="nr", source=source, machine_name="NearReceiver")
        farm.submit(task)
        farm.settle()
        seeds = farm.seeder.tasks["nr"].seeds
        # receiver-side switches of the chain: 4 and 5, pinned singly
        assert sorted(s.candidates for s in seeds) == [(4,), (5,)]
