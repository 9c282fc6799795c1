"""The seed-placement optimization model (SIV).

Maximize monitoring utility (MU) subject to (C1)-(C4), accounting for
migration overhead and polling-aggregation benefits.  This module defines
the problem/solution data model and a validator; solvers live in
:mod:`repro.placement.milp` and :mod:`repro.placement.heuristic`.

Conventions
-----------
* Resource variables are named by resource type (vCPU, RAM, TCAM, PCIe).
* ``r_poll`` (default PCIe) is special: per-seed PCIe allocations control
  poll intervals, but switch capacity is charged through aggregated
  ``pollres(n, p)`` variables — the soil polls each subject once no matter
  how many seeds want it (SII-B-b).
* A seed's utility is piecewise (SIII-B-b); choosing a piece is part of
  the optimization ("splitting the seed into several copies").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Tuple

from repro.almanac.poly import LinPoly, PiecewiseUtility
from repro.errors import PlacementError

#: Tolerance for floating-point feasibility checks.
FEAS_TOL = 1e-6


@dataclass(frozen=True)
class PollDemand:
    """One poll variable's contribution to PCIe demand.

    ``subject`` identifies *what* is polled (``phi_enc`` output, hashable);
    ``inv_interval`` is the linear polynomial ``1 / y.ival`` over this
    seed's resource variables; ``weight`` scales per-poll cost by the
    number of atomic counters the subject covers.
    """

    subject: FrozenSet
    inv_interval: LinPoly
    weight: float = 1.0


@dataclass
class SeedSpec:
    """One seed as the optimizer sees it."""

    seed_id: str
    task_id: str
    candidates: Tuple[int, ...]  # N^s: allowed switches
    utility: PiecewiseUtility
    poll_demands: Tuple[PollDemand, ...] = ()

    def __post_init__(self) -> None:
        if not self.candidates:
            raise PlacementError(f"seed {self.seed_id!r} has no candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise PlacementError(
                f"seed {self.seed_id!r} has duplicate candidates")


@dataclass
class TaskSpec:
    """A task: all of its seeds are placed, or none (C1)."""

    task_id: str
    seeds: List[SeedSpec]
    mandatory: bool = False  # if True, dropping the task is an error

    def min_utility(self) -> float:
        return min(s.utility.min_utility() for s in self.seeds)


@dataclass
class PlacementProblem:
    """Full optimizer input (Tab. III's 'optimization input' rows)."""

    tasks: List[TaskSpec]
    available: Dict[int, Dict[str, float]]  # ares(n, r)
    resource_types: Tuple[str, ...]
    r_poll: str = "PCIe"
    alpha_poll: Dict[int, float] = field(default_factory=dict)
    #: plc' — the current placement, source of migration accounting.
    previous_placement: Dict[str, int] = field(default_factory=dict)
    #: res' — allocations under the current placement.
    previous_allocations: Dict[str, Dict[str, float]] = field(
        default_factory=dict)

    #: Not a field (no annotation): set by ``apply_delta`` on a problem it
    #: derived for a live placement session and cleared by the solve that
    #: consumes it (:mod:`repro.placement.incremental`, "Sessions").
    _lineage = None

    def __post_init__(self) -> None:
        seen = set()
        for task in self.tasks:
            for seed in task.seeds:
                if seed.seed_id in seen:
                    raise PlacementError(f"duplicate seed id {seed.seed_id!r}")
                seen.add(seed.seed_id)
                unknown = [n for n in seed.candidates if n not in self.available]
                if unknown:
                    raise PlacementError(
                        f"seed {seed.seed_id!r} references unknown switches "
                        f"{unknown}")
        if self.r_poll not in self.resource_types:
            raise PlacementError(
                f"r_poll {self.r_poll!r} not in resource types")

    # -- helpers -----------------------------------------------------------
    def all_seeds(self) -> List[SeedSpec]:
        return [seed for task in self.tasks for seed in task.seeds]

    def seed(self, seed_id: str) -> SeedSpec:
        for task in self.tasks:
            for seed in task.seeds:
                if seed.seed_id == seed_id:
                    return seed
        raise PlacementError(f"unknown seed {seed_id!r}")

    def task(self, task_id: str) -> TaskSpec:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise PlacementError(f"unknown task {task_id!r}")

    def alpha(self, switch: int) -> float:
        return self.alpha_poll.get(switch, 1.0)

    @property
    def num_seeds(self) -> int:
        return sum(len(task.seeds) for task in self.tasks)

    @property
    def switches(self) -> List[int]:
        return sorted(self.available)


@dataclass
class PlacementSolution:
    """Solver output: where every placed seed goes and with what resources."""

    placement: Dict[str, int]  # seed_id -> switch (absent = task dropped)
    allocations: Dict[str, Dict[str, float]]  # seed_id -> {r: amount}
    objective: float
    solver: str
    runtime_s: float = 0.0
    placed_tasks: Tuple[str, ...] = ()
    status: str = "ok"
    #: Solver-specific diagnostics (e.g. the incremental solver's dirty-set
    #: sizes and fallback reason); never interpreted by the model layer.
    info: Dict[str, Any] = field(default_factory=dict)

    #: Not a field (no annotation, so outside ``repr``/``==``/``asdict``):
    #: the placement session this solution is the latest result of, if any
    #: (:mod:`repro.placement.incremental`, "Sessions").
    _session = None

    def migrated_seeds(self, problem: PlacementProblem) -> List[str]:
        """Seeds whose switch changed relative to the previous placement."""
        moved = []
        for seed_id, switch in self.placement.items():
            old = problem.previous_placement.get(seed_id)
            if old is not None and old != switch:
                moved.append(seed_id)
        return sorted(moved)


def compute_objective(problem: PlacementProblem,
                      placement: Mapping[str, int],
                      allocations: Mapping[str, Mapping[str, float]]) -> float:
    """Monitoring utility (MU) of a concrete assignment."""
    total = 0.0
    for task in problem.tasks:
        for seed in task.seeds:
            switch = placement.get(seed.seed_id)
            if switch is None:
                continue
            env = _full_env(problem, allocations.get(seed.seed_id, {}))
            total += seed.utility.evaluate(env)
    return total


def _full_env(problem: PlacementProblem,
              alloc: Mapping[str, float]) -> Dict[str, float]:
    env = {r: 0.0 for r in problem.resource_types}
    env.update(alloc)
    return env


def validate_solution(problem: PlacementProblem,
                      solution: PlacementSolution,
                      tol: float = FEAS_TOL) -> List[str]:
    """Check (C1)-(C4) plus aggregation accounting; returns violations.

    An empty list means the solution is feasible.  Property-based tests run
    every solver's output through this.
    """
    errors: List[str] = []
    placement = solution.placement
    allocations = solution.allocations

    # C1: task atomicity + every placed seed on a candidate switch.
    for task in problem.tasks:
        placed = [s for s in task.seeds if s.seed_id in placement]
        if placed and len(placed) != len(task.seeds):
            errors.append(
                f"C1: task {task.task_id!r} partially placed "
                f"({len(placed)}/{len(task.seeds)})")
        if task.mandatory and not placed:
            errors.append(f"C1: mandatory task {task.task_id!r} dropped")
        for seed in placed:
            if placement[seed.seed_id] not in seed.candidates:
                errors.append(
                    f"C1: seed {seed.seed_id!r} placed on "
                    f"{placement[seed.seed_id]} outside N^s {seed.candidates}")

    # C2: allocations satisfy some utility piece.  The same pass groups
    # the seeds by the switches that account for them — where each runs,
    # and where a migrating one still holds its old copy — so the C3/C4
    # block below reads every seed once instead of once per switch:
    # switch -> (seed, allocation charged there, its env, placed there?).
    charged: Dict[Any, List[Tuple]] = {}
    for task in problem.tasks:
        for seed in task.seeds:
            if seed.seed_id not in placement:
                if seed.seed_id in allocations and any(
                        v > tol for v in allocations[seed.seed_id].values()):
                    errors.append(
                        f"C3: unplaced seed {seed.seed_id!r} holds resources")
                continue
            switch = placement[seed.seed_id]
            alloc = allocations.get(seed.seed_id, {})
            env = _full_env(problem, alloc)
            charged.setdefault(switch, []).append((seed, alloc, env, True))
            previous = problem.previous_placement.get(seed.seed_id)
            if previous is not None and previous != switch:
                # During migration the old copy still holds resources.
                old = problem.previous_allocations.get(seed.seed_id, {})
                charged.setdefault(previous, []).append(
                    (seed, old, _full_env(problem, old), False))
            if not seed.utility.feasible(env):
                errors.append(
                    f"C2: seed {seed.seed_id!r} allocation {env} satisfies "
                    f"no utility piece")

    # C3 + C4: per-switch totals, with migration double-occupancy and
    # aggregated polling; each switch folds its seeds in problem order.
    for switch in problem.switches:
        ares = problem.available[switch]
        alpha = problem.alpha(switch)
        usage = {r: 0.0 for r in problem.resource_types}
        pollres: Dict[FrozenSet, float] = {}
        for seed, alloc, env, placed_here in charged.get(switch, ()):
            for r in problem.resource_types:
                amount = alloc.get(r, 0.0)
                if placed_here:
                    if amount < -tol:
                        errors.append(
                            f"negative allocation {r} for {seed.seed_id!r}")
                    if amount > ares.get(r, 0.0) + tol:
                        errors.append(
                            f"C3: seed {seed.seed_id!r} gets {amount} {r} "
                            f"on switch {switch} (cap {ares.get(r, 0.0)})")
                if r != problem.r_poll:
                    usage[r] += amount
            for demand in seed.poll_demands:
                rate = (alpha * demand.weight
                        * max(demand.inv_interval.evaluate(env), 0.0))
                key = demand.subject
                pollres[key] = max(pollres.get(key, 0.0), rate)
        for r in problem.resource_types:
            if r == problem.r_poll:
                continue
            if usage[r] > ares.get(r, 0.0) + tol * max(1.0, ares.get(r, 0.0)):
                errors.append(
                    f"C4: switch {switch} over capacity on {r}: "
                    f"{usage[r]:.6f} > {ares.get(r, 0.0):.6f}")
        poll_total = sum(pollres.values())
        poll_cap = ares.get(problem.r_poll, 0.0)
        if poll_total > poll_cap + tol * max(1.0, poll_cap):
            errors.append(
                f"C4(poll): switch {switch} polling demand {poll_total:.6f} "
                f"exceeds capacity {poll_cap:.6f}")
    return errors
