"""Solver tests: MILP exactness on small cases, heuristic feasibility and
quality, property-based feasibility over random instances."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.placement.heuristic import solve_heuristic
from repro.placement.instances import generate_problem
from repro.placement.linprog_builder import LinProgram, SolveResult
from repro.placement.milp import MilpPlacementSolver, solve_milp
from repro.placement.model import (
    PlacementProblem,
    PollDemand,
    SeedSpec,
    TaskSpec,
    compute_objective,
    validate_solution,
)

R = ("vCPU", "RAM", "TCAM", "PCIe")


def const_seed(seed_id, task_id, candidates, value, floor=1.0):
    return SeedSpec(
        seed_id=seed_id, task_id=task_id, candidates=tuple(candidates),
        utility=PiecewiseUtility([UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -floor),),
            utility=ConcaveUtility.constant(value))]))


def linear_seed(seed_id, task_id, candidates, slope=10.0, floor=0.5):
    return SeedSpec(
        seed_id=seed_id, task_id=task_id, candidates=tuple(candidates),
        utility=PiecewiseUtility([UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -floor),),
            utility=ConcaveUtility.linear(LinPoly({"vCPU": slope})))]))


def make_problem(seeds, capacities=None, **kwargs):
    tasks = {}
    for s in seeds:
        tasks.setdefault(s.task_id, []).append(s)
    available = capacities or {
        n: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0, "PCIe": 1000.0}
        for n in {c for s in seeds for c in s.candidates}}
    return PlacementProblem(
        tasks=[TaskSpec(task_id=k, seeds=v) for k, v in tasks.items()],
        available=available, resource_types=R, **kwargs)


class TestMilpExactness:
    def test_places_single_seed(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0)])
        sol = solve_milp(p)
        assert sol.placement == {"a": 1}
        assert sol.objective == pytest.approx(10.0)
        assert validate_solution(p, sol) == []

    def test_prefers_higher_utility_task_under_contention(self):
        # one switch, vCPU 4, both tasks need 3 vCPU -> only one fits
        capacities = {1: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        cheap = const_seed("cheap", "low", (1,), 5.0, floor=3.0)
        rich = const_seed("rich", "high", (1,), 50.0, floor=3.0)
        p = make_problem([cheap, rich], capacities)
        sol = solve_milp(p)
        assert sol.placement == {"rich": 1}
        assert sol.objective == pytest.approx(50.0)

    def test_linear_utility_maximizes_allocation(self):
        p = make_problem([linear_seed("a", "t", (1,), slope=10.0)])
        sol = solve_milp(p)
        # all 4 vCPU poured into the seed: utility 40
        assert sol.objective == pytest.approx(40.0)
        assert sol.allocations["a"]["vCPU"] == pytest.approx(4.0)

    def test_task_atomicity(self):
        # Task u has two seeds, switch only fits one -> whole task dropped.
        capacities = {1: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        seeds = [const_seed("u1", "u", (1,), 10.0, floor=3.0),
                 const_seed("u2", "u", (1,), 10.0, floor=3.0),
                 const_seed("v1", "v", (1,), 8.0, floor=3.0)]
        p = make_problem(seeds, capacities)
        sol = solve_milp(p)
        assert set(sol.placement) == {"v1"}

    def test_min_utility_epigraph(self):
        seed = SeedSpec(
            seed_id="m", task_id="t", candidates=(1,),
            utility=PiecewiseUtility([UtilityPiece(
                constraints=(),
                utility=ConcaveUtility((LinPoly({"vCPU": 1.0}),
                                        LinPoly({"PCIe": 0.002}))))]))
        p = make_problem([seed])
        sol = solve_milp(p)
        # min(vCPU<=4, 0.002*PCIe<=2) -> optimum 2.0
        assert sol.objective == pytest.approx(2.0, rel=1e-3)

    def test_spreads_seeds_across_switches(self):
        seeds = [linear_seed(f"s{i}", "t", (1, 2), slope=10.0, floor=1.0)
                 for i in range(2)]
        p = make_problem(seeds)
        sol = solve_milp(p)
        assert set(sol.placement.values()) == {1, 2}
        assert sol.objective == pytest.approx(80.0)

    def test_migration_avoided_when_costly(self):
        # Seed previously on 1; moving to 2 would double-occupy switch 1,
        # which is exactly full with a mandatory-ish competitor.
        capacities = {1: {"vCPU": 2.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0},
                      2: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        mover = const_seed("mover", "t", (1, 2), 10.0, floor=1.0)
        blocker = const_seed("blocker", "u", (1,), 100.0, floor=1.0)
        p = make_problem([mover, blocker], capacities,
                         previous_placement={"mover": 1},
                         previous_allocations={"mover": {"vCPU": 1.0}})
        sol = solve_milp(p)
        assert validate_solution(p, sol) == []
        assert len(sol.placement) == 2

    def test_timeout_still_returns_solution(self):
        p = generate_problem(40, 8, num_tasks=4, seed=0)
        sol = solve_milp(p, time_limit_s=0.5)
        # HiGHS may or may not prove optimality in 0.5s, but must not crash
        # — and an incumbent that breaks (C1)-(C4) comes back empty.
        assert sol.status in ("optimal", "feasible", "timeout",
                              "invalid-incumbent")
        assert validate_solution(p, sol) == []

    @pytest.mark.parametrize("status,expected", [
        ("feasible", "invalid-incumbent"), ("optimal", "optimal")])
    def test_truncated_incumbent_is_validated(self, monkeypatch, status,
                                              expected):
        """A time-limit incumbent with an allocation a hair under its
        piece's floor (C2) is refused; an optimal solve's is lifted onto
        the floor."""
        p = make_problem([const_seed("a", "t", (1, 2), 10.0, floor=1.0),
                          linear_seed("b", "u", (1,), floor=0.5)])
        probe = MilpPlacementSolver(p)
        probe.build()
        real = probe.program.solve_milp()
        home = next(n for n in (1, 2)
                    if real.value(probe._plc[("a", n, 0)]) > 0.5)
        values = real.values.copy()
        values[probe._res[("a", home, "vCPU")]] = 1.0 - 1e-3
        monkeypatch.setattr(
            LinProgram, "solve_milp",
            lambda self, **kwargs: SolveResult(status, real.objective,
                                               values))
        sol = solve_milp(p, time_limit_s=1.0)
        assert sol.status == expected
        if expected == "optimal":
            assert sol.placement["a"] == home
            assert validate_solution(p, sol) == []
            return
        assert sol.placement == {} and sol.allocations == {}
        assert sol.objective == 0.0
        (violation,) = sol.info["violations"]
        assert violation.startswith("C2: seed 'a'")


class TestHeuristic:
    def test_simple_placement(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0)])
        sol = solve_heuristic(p)
        assert sol.placement == {"a": 1}
        assert validate_solution(p, sol) == []

    def test_redistribution_raises_utility_above_floors(self):
        p = make_problem([linear_seed("a", "t", (1,), slope=10.0)])
        no_lp = solve_heuristic(p, redistribute=False, migrate=False)
        with_lp = solve_heuristic(p, migrate=False)
        assert with_lp.objective > no_lp.objective
        assert with_lp.objective == pytest.approx(40.0, rel=1e-4)

    def test_tracks_milp_on_small_instances(self):
        p = generate_problem(30, 6, num_tasks=4, seed=3)
        h = solve_heuristic(p)
        m = solve_milp(p, time_limit_s=20)
        assert validate_solution(p, h) == []
        assert h.objective >= 0.5 * m.objective
        assert h.objective <= m.objective + 1e-6

    def test_task_ordering_by_min_utility(self):
        capacities = {1: {"vCPU": 3.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        low = const_seed("low", "low", (1,), 5.0, floor=2.0)
        high = const_seed("high", "high", (1,), 50.0, floor=2.0)
        p = make_problem([low, high], capacities)
        sol = solve_heuristic(p)
        assert "high" in sol.placement
        assert "low" not in sol.placement

    def test_prefers_staying_put(self):
        p = make_problem([const_seed("a", "t", (1, 2), 10.0)],
                         previous_placement={"a": 1},
                         previous_allocations={"a": {"vCPU": 1.0}})
        sol = solve_heuristic(p)
        assert sol.placement["a"] == 1
        assert sol.migrated_seeds(p) == []

    def test_migrates_for_better_utility(self):
        # Seed previously on a tiny switch; a big switch offers more vCPU
        # for its linear utility.
        capacities = {1: {"vCPU": 1.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0},
                      2: {"vCPU": 8.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        p = make_problem([linear_seed("a", "t", (1, 2), slope=10.0,
                                      floor=0.5)],
                         capacities,
                         previous_placement={"a": 1},
                         previous_allocations={"a": {"vCPU": 0.5}})
        sol = solve_heuristic(p)
        assert sol.placement["a"] == 2
        assert sol.migrated_seeds(p) == ["a"]
        assert validate_solution(p, sol) == []

    def test_runtime_scales_to_thousands(self):
        p = generate_problem(2000, 200, num_tasks=10, seed=5)
        sol = solve_heuristic(p)
        assert validate_solution(p, sol) == []
        assert sol.runtime_s < 60.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10000), st.integers(10, 80), st.integers(2, 12),
           st.sampled_from([0.0, 0.3, 0.7]))
    def test_heuristic_always_feasible(self, rng_seed, num_seeds,
                                       num_switches, prev_fraction):
        """Property: C1-C4 hold on every heuristic output."""
        p = generate_problem(num_seeds, num_switches, num_tasks=5,
                             seed=rng_seed, previous_fraction=prev_fraction)
        sol = solve_heuristic(p)
        assert validate_solution(p, sol) == []
        assert sol.objective == pytest.approx(
            compute_objective(p, sol.placement, sol.allocations))


class TestInstanceGenerator:
    def test_counts(self):
        p = generate_problem(57, 12, num_tasks=5, seed=1)
        assert p.num_seeds == 57
        assert len(p.switches) == 12
        assert len(p.tasks) == 5

    def test_determinism(self):
        a = generate_problem(20, 5, seed=4)
        b = generate_problem(20, 5, seed=4)
        assert [s.seed_id for s in a.all_seeds()] \
            == [s.seed_id for s in b.all_seeds()]
        assert a.available == b.available

    def test_previous_fraction(self):
        p = generate_problem(100, 10, seed=2, previous_fraction=1.0)
        assert len(p.previous_placement) == 100
        for seed_id, switch in p.previous_placement.items():
            assert switch in p.seed(seed_id).candidates

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_problem(0, 5)
