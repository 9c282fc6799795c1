#!/usr/bin/env python3
"""Global seed placement at data-center scale (SIV / Fig. 7).

Generates randomized M&M workloads on a heterogeneous fleet and compares
FARM's heuristic (Alg. 1) against the exact MILP at two timeouts, then
runs the heuristic alone at the paper's headline scale (10 200 seeds on
1040 switches) to show it stays practical.

Run:  python examples/placement_at_scale.py [--full-scale]
"""

import sys

from repro.eval.reporting import format_table
from repro.placement import (
    generate_problem,
    solve_heuristic,
    solve_milp,
    validate_solution,
)


def head_to_head() -> None:
    rows = []
    host_dependent = []
    for num_seeds, num_switches in ((60, 12), (120, 20), (240, 40)):
        problem = generate_problem(num_seeds, num_switches, num_tasks=8,
                                   seed=1, previous_fraction=0.3)
        heuristic = solve_heuristic(problem)
        milp_fast = solve_milp(problem, time_limit_s=1.0)
        milp_slow = solve_milp(problem, time_limit_s=30.0)
        assert validate_solution(problem, heuristic) == []
        for name, solution, limit in (("FARM heuristic", heuristic, None),
                                      ("MILP (1 s)", milp_fast, "1 s"),
                                      ("MILP (30 s)", milp_slow, "30 s")):
            utility = f"{solution.objective:.0f}"
            placed = len(solution.placement)
            migrated = len(solution.migrated_seeds(problem))
            if limit is not None:
                # How far a time-limited solve gets depends on the host,
                # so the table keeps only the runtime of these rows.
                host_dependent.append(
                    f"host-dependent ({limit} time limit): {num_seeds} "
                    f"seeds: utility {utility}, placed {placed}, "
                    f"migrated {migrated}")
                utility = placed = migrated = "-"
            rows.append((num_seeds, name, utility,
                         f"{solution.runtime_s:.2f}s", placed, migrated))
    print(format_table(
        ["seeds", "solver", "utility", "runtime", "placed", "migrated"],
        rows))
    print("\n".join(host_dependent))


def full_scale() -> None:
    print("\nfull scale: 10200 seeds x 1040 switches (paper's Fig. 7 "
          "right edge) ...")
    problem = generate_problem(10200, 1040, num_tasks=10, seed=0)
    solution = solve_heuristic(problem)
    errors = validate_solution(problem, solution)
    print(f"  utility   : {solution.objective:.0f}")
    print(f"  placed    : {len(solution.placement)} seeds "
          f"({len(solution.placed_tasks)} tasks)")
    print(f"  runtime   : {solution.runtime_s:.1f} s")
    print(f"  feasible  : {'yes' if not errors else errors[:2]}")


def main() -> None:
    head_to_head()
    if "--full-scale" in sys.argv:
        full_scale()
    else:
        print("\n(pass --full-scale for the 10200-seed/1040-switch run)")


if __name__ == "__main__":
    main()
