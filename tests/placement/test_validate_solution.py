"""``validate_solution`` reads every seed once, and says what it said.

The C3/C4 block used to scan every seed once per switch; it now folds
the seeds grouped by switch in one pass.  Pinned here to the
per-switch scan (kept below as the reference): ``==`` lists — same
messages, same order — on feasible solutions and on crafted violators of
every kind.
"""

import copy
import time
from typing import Dict, FrozenSet, List

from repro.placement.heuristic import solve_heuristic
from repro.placement.instances import generate_problem
from repro.placement.model import (
    FEAS_TOL,
    PlacementProblem,
    PlacementSolution,
    _full_env,
    validate_solution,
)


def reference_validate(problem: PlacementProblem,
                       solution: PlacementSolution,
                       tol: float = FEAS_TOL) -> List[str]:
    """The O(switches x seeds) validator this module replaced."""
    errors: List[str] = []
    placement = solution.placement
    allocations = solution.allocations
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
    for seed in problem.all_seeds():
        if seed.seed_id not in placement:
            if seed.seed_id in allocations and any(
                    v > tol for v in allocations[seed.seed_id].values()):
                errors.append(
                    f"C3: unplaced seed {seed.seed_id!r} holds resources")
            continue
        env = _full_env(problem, allocations.get(seed.seed_id, {}))
        if not seed.utility.feasible(env):
            errors.append(
                f"C2: seed {seed.seed_id!r} allocation {env} satisfies "
                f"no utility piece")
    for switch in problem.switches:
        ares = problem.available[switch]
        usage = {r: 0.0 for r in problem.resource_types}
        pollres: Dict[FrozenSet, float] = {}
        for seed in problem.all_seeds():
            placed_here = placement.get(seed.seed_id) == switch
            migrating_from_here = (
                seed.seed_id in placement
                and problem.previous_placement.get(seed.seed_id) == switch
                and placement[seed.seed_id] != switch)
            if placed_here:
                alloc = allocations.get(seed.seed_id, {})
                for r in problem.resource_types:
                    amount = alloc.get(r, 0.0)
                    if amount < -tol:
                        errors.append(
                            f"negative allocation {r} for {seed.seed_id!r}")
                    if amount > ares.get(r, 0.0) + tol:
                        errors.append(
                            f"C3: seed {seed.seed_id!r} gets {amount} {r} "
                            f"on switch {switch} (cap {ares.get(r, 0.0)})")
                    if r != problem.r_poll:
                        usage[r] += amount
                env = _full_env(problem, alloc)
                for demand in seed.poll_demands:
                    rate = (problem.alpha(switch) * demand.weight
                            * max(demand.inv_interval.evaluate(env), 0.0))
                    key = demand.subject
                    pollres[key] = max(pollres.get(key, 0.0), rate)
            elif migrating_from_here:
                old_alloc = problem.previous_allocations.get(seed.seed_id, {})
                for r in problem.resource_types:
                    if r != problem.r_poll:
                        usage[r] += old_alloc.get(r, 0.0)
                old_env = _full_env(problem, old_alloc)
                for demand in seed.poll_demands:
                    rate = (problem.alpha(switch) * demand.weight
                            * max(demand.inv_interval.evaluate(old_env), 0.0))
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


def _migrated_case():
    """A solved instance, then told that six of its seeds used to run
    on another of their candidates (which gets the headroom to hold the
    old copies): ``plc'`` differs from the placement, so the residue
    branch of C4 is live and the solution still feasible."""
    problem = generate_problem(200, 20, num_tasks=8, seed=3)
    for caps in problem.available.values():
        for resource in caps:
            caps[resource] *= 1.5
    solution = solve_heuristic(problem)
    moved = [sid for sid in sorted(solution.placement)
             if len(problem.seed(sid).candidates) > 1][:6]
    for sid in moved:
        source = next(n for n in problem.seed(sid).candidates
                      if n != solution.placement[sid])
        problem.previous_placement[sid] = source
        problem.previous_allocations[sid] = dict(solution.allocations[sid])
        for resource, amount in solution.allocations[sid].items():
            problem.available[source][resource] += amount
        problem.available[source]["PCIe"] += 100.0
    assert solution.migrated_seeds(problem) == moved
    return problem, solution, moved


def _same(problem, solution, expect):
    got = validate_solution(problem, solution)
    assert got == reference_validate(problem, solution)
    assert any(expect in message for message in got), (expect, got[:3])
    return got


class TestOnePassValidator:
    def test_feasible_solution_validates_clean_on_both(self):
        problem, solution, _moved = _migrated_case()
        assert (validate_solution(problem, solution)
                == reference_validate(problem, solution) == [])

    def test_every_kind_of_violator_reads_the_same(self):
        problem, incumbent, moved = _migrated_case()
        task = problem.tasks[2]
        first, second = task.seeds[0], task.seeds[1]
        resident = next(sid for sid in incumbent.placement
                        if sid not in moved)
        home = incumbent.placement[resident]

        def broken():
            return copy.deepcopy(incumbent)

        bad = broken()  # C1 partial
        del bad.placement[first.seed_id]
        _same(problem, bad, "partially placed")

        bad = broken()  # C1 off-candidate
        bad.placement[first.seed_id] = next(
            n for n in problem.switches if n not in first.candidates)
        _same(problem, bad, "outside N^s")

        bad = broken()  # mandatory dropped
        task.mandatory = True
        try:
            for member in task.seeds:
                del bad.placement[member.seed_id]
                del bad.allocations[member.seed_id]
            _same(problem, bad, "mandatory task")
        finally:
            task.mandatory = False

        bad = broken()  # C2
        bad.allocations[second.seed_id] = {"vCPU": 0.0, "RAM": 0.0}
        _same(problem, bad, "C2: seed")

        bad = broken()  # unplaced seed holds resources
        for member in task.seeds:
            del bad.placement[member.seed_id]
        _same(problem, bad, "holds resources")

        bad = broken()  # negative allocation
        bad.allocations[resident]["TCAM"] = -1.0
        _same(problem, bad, "negative allocation")

        bad = broken()  # C3 per-seed cap
        bad.allocations[resident]["vCPU"] = (
            problem.available[home]["vCPU"] + 1.0)
        got = _same(problem, bad, "C3: seed")
        assert any(m.startswith(f"C4: switch {home} ") for m in got)

        bad = broken()  # C4 through migration residue alone
        source = problem.previous_placement[moved[0]]
        fat = copy.deepcopy(problem)
        fat.previous_allocations[moved[0]]["vCPU"] = (
            problem.available[source]["vCPU"])
        got = validate_solution(fat, bad)
        assert got == reference_validate(fat, bad)
        assert any(m.startswith(f"C4: switch {source} ") for m in got)

        bad = broken()  # C4 poll
        polled = next(sid for sid in incumbent.placement
                      if problem.seed(sid).poll_demands)
        bad.allocations[polled]["PCIe"] = 1e6
        _same(problem, bad, "C4(poll)")

        bad = broken()  # several at once: the order is part of the contract
        del bad.placement[first.seed_id]
        bad.allocations[second.seed_id] = {"vCPU": 0.0, "RAM": 0.0}
        bad.allocations[resident]["vCPU"] = 1e3
        bad.allocations[polled]["PCIe"] = 1e6
        assert len(_same(problem, bad, "C4")) >= 5

    def test_one_call_reads_each_seed_once(self):
        # The churn-benchmark instance: 22 ms a call before, ~3 ms now —
        # asserted as a ratio so that a slow runner cannot fail it.
        problem = generate_problem(1000, 150, num_tasks=10, seed=2)
        for caps in problem.available.values():
            for resource in caps:
                caps[resource] *= 2.0
        solution = solve_heuristic(problem)

        def best(function):
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                assert function(problem, solution) == []
                samples.append(time.perf_counter() - start)
            return min(samples)

        assert best(validate_solution) < best(reference_validate) / 3.0
