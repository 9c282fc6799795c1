"""Fig. 7: global seed placement — utility (a) and runtime (b).

Paper setup: up to 10 tasks, up to 10200 seeds on 1040 switches; Gurobi
with 1 s and 10 min timeouts vs FARM's heuristic.  Shape to reproduce:
the heuristic's utility tracks the long-timeout MILP while its runtime
stays near the short-timeout regime; at full scale the heuristic still
completes while the MILP becomes impractical.

HiGHS stands in for Gurobi and pure Python for the Rust heuristic, so
absolute runtimes differ; the crossover shape is what matters.
"""

import pytest

from repro.eval import run_fig7_placement
from repro.eval.reporting import format_table
from repro.placement import generate_problem, solve_heuristic, solve_milp
from repro.placement.model import validate_solution


def test_fig7_utility_and_runtime_small_scale(once):
    """Head-to-head at MILP-tractable sizes (quality comparison)."""
    points = once(run_fig7_placement,
                  seed_counts=(50, 100, 200),
                  num_switches=30, runs_per_size=2,
                  milp_time_limits=(1.0, 60.0))
    print("\nFig. 7 (small scale) — utility and runtime:")
    print(format_table(
        ["solver", "seeds", "utility", "runtime (s)"],
        [(p.solver, p.num_seeds, f"{p.utility:.0f}", f"{p.runtime_s:.2f}")
         for p in points]))
    by = {(p.solver, p.num_seeds): p for p in points}
    for count in (50, 100, 200):
        farm = by[("FARM", count)]
        milp_long = by[("MILP(60s)", count)]
        milp_short = by[("MILP(1s)", count)]
        # utility close to the long-timeout MILP (paper: "close in utility
        # to Gurobi with 10 min timeout")...
        assert farm.utility >= 0.6 * milp_long.utility
        assert farm.utility <= milp_long.utility * 1.001
        # ...and never worse than what the short-timeout MILP salvages
        # by much (short MILP may time out with poor incumbents).
        assert farm.runtime_s < milp_long.runtime_s + 1.0
        assert milp_short.runtime_s < milp_long.runtime_s + 1.0


def test_fig7_heuristic_full_scale(once):
    """The paper's headline scale: 10200 seeds across 1040 switches."""
    def full_scale():
        problem = generate_problem(10200, 1040, num_tasks=10, seed=0)
        solution = solve_heuristic(problem)
        errors = validate_solution(problem, solution)
        return problem, solution, errors

    problem, solution, errors = once(full_scale)
    print(f"\nFig. 7 (full scale): 10200 seeds / 1040 switches -> "
          f"utility {solution.objective:.0f}, placed "
          f"{len(solution.placement)} seeds "
          f"({len(solution.placed_tasks)} whole tasks, C1), "
          f"{solution.runtime_s:.1f}s")
    assert errors == []
    assert solution.objective > 0
    # C1 task atomicity: tasks of ~1020 seeds place whole-or-not; the
    # instance's vCPU floors cap the fleet at a few full tasks.
    assert len(solution.placed_tasks) >= 3
    assert len(solution.placement) >= 3000
    # scalable: minutes, not the MILP's hours at this size
    assert solution.runtime_s < 600


def test_fig7_milp_timeout_degrades_gracefully(once):
    """The 1 s-timeout MILP returns a usable (if weaker) incumbent."""
    def run():
        problem = generate_problem(150, 25, num_tasks=6, seed=1)
        fast = solve_milp(problem, time_limit_s=1.0)
        slow = solve_milp(problem, time_limit_s=30.0)
        return problem, fast, slow

    problem, fast, slow = once(run)
    print(f"\nMILP(1s): {fast.objective:.0f} [{fast.status}]  "
          f"MILP(30s): {slow.objective:.0f} [{slow.status}]")
    for truncated in (fast, slow):
        # Where the wall-clock limit cuts branch-and-bound decides the
        # incumbent; one that breaks (C1)-(C4) is refused, not returned.
        if truncated.status == "invalid-incumbent":
            assert truncated.placement == {}
            assert truncated.info["violations"]
        assert validate_solution(problem, truncated) == []
    if slow.status != "invalid-incumbent":
        assert fast.objective <= slow.objective + 1e-6
