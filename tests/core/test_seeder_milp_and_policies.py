"""Seeder with the exact MILP solver + placement-policy integration."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.task import TaskDefinition
from repro.net.topology import spine_leaf
from repro.placement.model import validate_solution
from repro.tasks import make_heavy_hitter_task


class TestMilpSeeder:
    def test_milp_backend_places_and_validates(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1), solver="milp")
        farm.submit(make_heavy_hitter_task(accuracy_ms=10))
        farm.settle()
        assert farm.seeder.deployed_seed_count() == 3
        problem = farm.seeder.build_problem()
        assert validate_solution(problem, farm.seeder.last_solution) == []

    def test_milp_and_heuristic_agree_on_trivial_case(self):
        placements = {}
        for solver in ("milp", "heuristic"):
            farm = FarmDeployment(topology=spine_leaf(1, 1, 1),
                                  solver=solver)
            farm.submit(make_heavy_hitter_task(accuracy_ms=10))
            farm.settle()
            placements[solver] = dict(
                farm.seeder.last_solution.placement)
        assert placements["milp"] == placements["heuristic"]


    def test_invalid_incumbent_falls_back_to_the_heuristic(self, monkeypatch):
        """A MILP time limit that leaves a (C1)-(C4)-breaking incumbent
        must not reconcile the fleet to an empty placement."""
        from repro.core import seeder as seeder_module
        from repro.placement.model import PlacementSolution

        def truncated(problem, **kwargs):
            return PlacementSolution(
                placement={}, allocations={}, objective=0.0, solver="milp",
                status="invalid-incumbent",
                info={"violations": ["C2: crafted"]})

        monkeypatch.setattr(seeder_module, "solve_milp", truncated)
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1), solver="milp")
        farm.submit(make_heavy_hitter_task(accuracy_ms=10))
        farm.settle()
        assert farm.seeder.last_solution.solver == "heuristic"
        assert farm.seeder.deployed_seed_count() == 3
        problem = farm.seeder.build_problem()
        assert validate_solution(problem, farm.seeder.last_solution) == []


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
        from repro.net.topology import linear_topology
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
        from repro.net.topology import linear_topology
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
