"""Cross-solver properties: the MILP is an upper bound on the heuristic."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.placement import (
    generate_problem,
    solve_heuristic,
    solve_milp,
    validate_solution,
)
from repro.placement.model import compute_objective


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 14), st.integers(2, 4))
@example(116, 8, 2)  # "optimal" with a binary at 1 - 8e-7: C2 leaks
def test_milp_dominates_heuristic_on_tiny_instances(rng_seed, num_seeds,
                                                    num_switches):
    """On instances small enough for HiGHS to prove optimality, the exact
    solver's objective upper-bounds the heuristic's."""
    problem = generate_problem(num_seeds, num_switches, num_tasks=3,
                               seed=rng_seed)
    heuristic = solve_heuristic(problem)
    milp = solve_milp(problem, time_limit_s=30.0)
    assert validate_solution(problem, heuristic) == []
    assert validate_solution(problem, milp) == []
    if milp.status == "optimal":
        # "optimal" means within HiGHS's mip_rel_gap (1e-4); allow it.
        assert heuristic.objective \
            <= milp.objective * (1 + 2e-4) + 1e-3


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10_000))
@example(1)  # does not prove optimality in 2 s: a time-limited incumbent
def test_solution_objective_is_reproducible(rng_seed):
    """The reported objective equals recomputing MU from the placement,
    for a time-limited MILP incumbent as much as for a proven optimum."""
    problem = generate_problem(30, 6, num_tasks=3, seed=rng_seed)
    for solver in (solve_heuristic, lambda p: solve_milp(p, 2.0)):
        solution = solver(problem)
        recomputed = compute_objective(problem, solution.placement,
                                       solution.allocations)
        assert solution.objective == pytest.approx(recomputed, rel=1e-6)


def test_heuristic_idempotent_on_stable_input():
    """Re-solving with the previous placement as prior changes nothing
    (no gratuitous migrations on an already-optimized layout)."""
    problem = generate_problem(60, 10, num_tasks=5, seed=3)
    first = solve_heuristic(problem)
    problem2 = generate_problem(60, 10, num_tasks=5, seed=3)
    problem2.previous_placement.update(first.placement)
    problem2.previous_allocations.update(first.allocations)
    second = solve_heuristic(problem2)
    assert second.migrated_seeds(problem2) == []
    assert second.objective >= first.objective - 1e-6
