"""Seed-placement optimization (SIV): model, MILP, and Alg. 1 heuristic."""

from repro.placement.heuristic import HeuristicPlacementSolver, solve_heuristic
from repro.placement.incremental import (
    FALLBACK_RATIO,
    ChurnDelta,
    IncrementalPlacementSolver,
    apply_delta,
    compute_dirty,
    solve_incremental,
)
from repro.placement.instances import TASK_TEMPLATES, generate_problem
from repro.placement.linprog_builder import LinProgram, SolveResult
from repro.placement.milp import MilpPlacementSolver, solve_milp
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    PollDemand,
    SeedSpec,
    TaskSpec,
    compute_objective,
    validate_solution,
)

__all__ = [
    "HeuristicPlacementSolver", "solve_heuristic",
    "FALLBACK_RATIO", "ChurnDelta",
    "IncrementalPlacementSolver", "apply_delta", "compute_dirty",
    "solve_incremental",
    "TASK_TEMPLATES", "generate_problem",
    "LinProgram", "SolveResult",
    "MilpPlacementSolver", "solve_milp",
    "PlacementProblem", "PlacementSolution", "PollDemand", "SeedSpec",
    "TaskSpec", "compute_objective", "validate_solution",
]
