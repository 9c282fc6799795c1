"""Placement model and validator tests."""

import pytest

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.errors import PlacementError
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    PollDemand,
    SeedSpec,
    TaskSpec,
    compute_objective,
    validate_solution,
)

R = ("vCPU", "RAM", "TCAM", "PCIe")


def utility(floor_vcpu=1.0, value=10.0):
    return PiecewiseUtility([UtilityPiece(
        constraints=(LinPoly({"vCPU": 1.0}, -floor_vcpu),),
        utility=ConcaveUtility.constant(value))])


def seed(seed_id, task_id="t", candidates=(1,), floor=1.0, value=10.0,
         poll=None):
    return SeedSpec(seed_id=seed_id, task_id=task_id,
                    candidates=tuple(candidates),
                    utility=utility(floor, value),
                    poll_demands=tuple(poll or ()))


def problem(seeds, available=None, **kwargs):
    tasks = {}
    for s in seeds:
        tasks.setdefault(s.task_id, []).append(s)
    return PlacementProblem(
        tasks=[TaskSpec(task_id=k, seeds=v) for k, v in tasks.items()],
        available=available or {1: {"vCPU": 4.0, "RAM": 1000.0,
                                    "TCAM": 100.0, "PCIe": 1000.0}},
        resource_types=R, **kwargs)


class TestProblemValidation:
    def test_duplicate_seed_ids_rejected(self):
        with pytest.raises(PlacementError):
            problem([seed("a"), seed("a")])

    def test_unknown_candidate_switch_rejected(self):
        with pytest.raises(PlacementError):
            problem([seed("a", candidates=(9,))])

    def test_empty_candidates_rejected(self):
        with pytest.raises(PlacementError):
            seed("a", candidates=())

    def test_lookup_helpers(self):
        p = problem([seed("a"), seed("b")])
        assert p.seed("a").seed_id == "a"
        assert p.num_seeds == 2
        with pytest.raises(PlacementError):
            p.seed("ghost")


class TestObjective:
    def test_sums_placed_seed_utilities(self):
        p = problem([seed("a", value=10.0), seed("b", value=20.0)])
        placement = {"a": 1, "b": 1}
        allocations = {"a": {"vCPU": 1.0}, "b": {"vCPU": 1.0}}
        assert compute_objective(p, placement, allocations) == 30.0

    def test_unplaced_seeds_contribute_zero(self):
        p = problem([seed("a", value=10.0)])
        assert compute_objective(p, {}, {}) == 0.0

    def test_infeasible_allocation_contributes_zero(self):
        p = problem([seed("a", floor=2.0, value=10.0)])
        assert compute_objective(p, {"a": 1}, {"a": {"vCPU": 1.0}}) == 0.0


class TestValidator:
    def _solution(self, placement, allocations):
        return PlacementSolution(placement=placement,
                                 allocations=allocations, objective=0.0,
                                 solver="test")

    def test_clean_solution_passes(self):
        p = problem([seed("a")])
        sol = self._solution({"a": 1}, {"a": {"vCPU": 1.0}})
        assert validate_solution(p, sol) == []

    def test_partial_task_placement_flagged(self):
        p = problem([seed("a"), seed("b")])
        sol = self._solution({"a": 1}, {"a": {"vCPU": 1.0}})
        assert any("C1" in e for e in validate_solution(p, sol))

    def test_placement_off_candidate_flagged(self):
        p = problem([seed("a", candidates=(1,))],
                    available={1: dict(vCPU=4, RAM=10, TCAM=1, PCIe=10),
                               2: dict(vCPU=4, RAM=10, TCAM=1, PCIe=10)})
        sol = self._solution({"a": 2}, {"a": {"vCPU": 1.0}})
        assert any("outside N^s" in e for e in validate_solution(p, sol))

    def test_constraint_violation_flagged(self):
        p = problem([seed("a", floor=2.0)])
        sol = self._solution({"a": 1}, {"a": {"vCPU": 1.0}})
        assert any("C2" in e for e in validate_solution(p, sol))

    def test_switch_capacity_violation_flagged(self):
        p = problem([seed("a"), seed("b", task_id="u")],
                    available={1: {"vCPU": 1.5, "RAM": 1000.0,
                                   "TCAM": 10.0, "PCIe": 10.0}})
        sol = self._solution({"a": 1, "b": 1},
                             {"a": {"vCPU": 1.0}, "b": {"vCPU": 1.0}})
        assert any("C4" in e for e in validate_solution(p, sol))

    def test_unplaced_seed_with_resources_flagged(self):
        p = problem([seed("a")])
        sol = self._solution({}, {"a": {"vCPU": 1.0}})
        assert any("C3" in e for e in validate_solution(p, sol))

    def test_mandatory_task_dropped_flagged(self):
        p = PlacementProblem(
            tasks=[TaskSpec(task_id="t", seeds=[seed("a")], mandatory=True)],
            available={1: {"vCPU": 4.0, "RAM": 10.0, "TCAM": 1.0,
                           "PCIe": 10.0}},
            resource_types=R)
        sol = self._solution({}, {})
        assert any("mandatory" in e for e in validate_solution(p, sol))

    def test_poll_aggregation_max_not_sum(self):
        demand = PollDemand(subject=frozenset({("port", 0)}),
                            inv_interval=LinPoly.constant(60.0), weight=10.0)
        seeds = [seed("a", poll=[demand]), seed("b", task_id="u",
                                                poll=[demand])]
        p = problem(seeds, available={1: {"vCPU": 4.0, "RAM": 1000.0,
                                          "TCAM": 10.0, "PCIe": 700.0}})
        sol = self._solution({"a": 1, "b": 1},
                             {"a": {"vCPU": 1.0}, "b": {"vCPU": 1.0}})
        # 10*60 = 600 <= 700 aggregated (max); a sum would be 1200 > 700.
        assert validate_solution(p, sol) == []

    def test_distinct_subjects_sum(self):
        d1 = PollDemand(subject=frozenset({("port", 0)}),
                        inv_interval=LinPoly.constant(60.0), weight=10.0)
        d2 = PollDemand(subject=frozenset({("port", 1)}),
                        inv_interval=LinPoly.constant(60.0), weight=10.0)
        seeds = [seed("a", poll=[d1]), seed("b", task_id="u", poll=[d2])]
        p = problem(seeds, available={1: {"vCPU": 4.0, "RAM": 1000.0,
                                          "TCAM": 10.0, "PCIe": 700.0}})
        sol = self._solution({"a": 1, "b": 1},
                             {"a": {"vCPU": 1.0}, "b": {"vCPU": 1.0}})
        assert any("C4(poll)" in e for e in validate_solution(p, sol))

    def test_migration_residue_charged_on_old_switch(self):
        available = {1: {"vCPU": 1.2, "RAM": 100.0, "TCAM": 1.0,
                         "PCIe": 10.0},
                     2: {"vCPU": 4.0, "RAM": 100.0, "TCAM": 1.0,
                         "PCIe": 10.0}}
        moving = seed("m", candidates=(1, 2))
        staying = seed("s", task_id="u", candidates=(1,), floor=0.5)
        p = problem([moving, staying], available=available,
                    previous_placement={"m": 1},
                    previous_allocations={"m": {"vCPU": 1.0}})
        # m migrates 1 -> 2; residue vCPU 1.0 stays at 1; s takes 0.5:
        # 1.5 > 1.2 -> violation
        sol = self._solution({"m": 2, "s": 1},
                             {"m": {"vCPU": 1.0}, "s": {"vCPU": 0.5}})
        assert any("C4" in e for e in validate_solution(p, sol))
        assert sol.migrated_seeds(p) == ["m"]
