"""The full solve pays only for what changed — and changes nothing.

``HeuristicPlacementSolver._place_members`` keeps each remaining seed's
best option and re-scores only the seeds a commit's ``_mark`` reaches;
``redistribute`` solves only marked switches.  Both are pinned here to
the recompute-everything versions they replaced: identical commit
sequences and ``==`` floats, plus counts showing the saving is engaged.
"""

import random

import pytest

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.errors import PlacementError
from repro.placement.heuristic import HeuristicPlacementSolver
from repro.placement.incremental import (
    ChurnDelta,
    IncrementalPlacementSolver,
    _FallbackNeeded,
    apply_delta,
)
from repro.placement.instances import generate_problem
from repro.placement.model import (
    PlacementProblem,
    PollDemand,
    SeedSpec,
    TaskSpec,
)
from tests.placement.test_solvers import (
    R,
    const_seed,
    linear_seed,
    make_problem,
)


# ----------------------------------------------------------------------
# Reference: the recompute-everything greedy loop, kept as the oracle
# ----------------------------------------------------------------------
class _Recording:
    """Mixin: log every commit/uncommit and count what the cache saves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self.evaluations = 0
        self.residue_rejections = 0

    def _commit(self, seed, switch, piece_index, alloc):
        self.log.append((seed.seed_id, switch, piece_index, dict(alloc)))
        super()._commit(seed, switch, piece_index, alloc)

    def _uncommit(self, seed_id):
        self.log.append(("uncommit", seed_id))
        super()._uncommit(seed_id)

    def _best_option(self, seed):
        self.evaluations += 1
        return super()._best_option(seed)

    def _residue_fits(self, seed, prev):
        fits = super()._residue_fits(seed, prev)
        self.residue_rejections += not fits
        return fits


class _ScoreEverything:
    """Mixin: re-score every remaining seed before every commit."""

    def _place_members(self, members, unstick=None):
        committed = []
        remaining = list(members)
        while remaining:
            options = []
            for seed in remaining:
                option = self._best_option(seed)
                if option is not None:
                    options.append((option[0], seed, option))
            if not options:
                if unstick is not None:
                    hook, unstick = unstick, None
                    if hook(remaining):
                        continue
                return committed, False
            options.sort(key=lambda item: (-item[0], item[1].seed_id))
            _score, seed, (_s, n, k, alloc) = options[0]
            self._commit(seed, n, k, alloc)
            committed.append(seed.seed_id)
            remaining.remove(seed)
        return committed, True


class CachedFull(_Recording, HeuristicPlacementSolver):
    pass


class ReferenceFull(_Recording, _ScoreEverything, HeuristicPlacementSolver):
    pass


class CachedIncremental(_Recording, IncrementalPlacementSolver):
    pass


class ReferenceIncremental(_Recording, _ScoreEverything,
                           IncrementalPlacementSolver):
    pass


# ----------------------------------------------------------------------
# Instances: tight, with everything the option cache must get right
# ----------------------------------------------------------------------
def _utility(rng):
    """One or two pieces; the second trades a higher floor for more value."""
    floor = rng.choice((0.25, 0.5, 1.0))
    ram = rng.choice((32.0, 64.0, 96.0))
    base = rng.uniform(10.0, 60.0)
    slope = rng.uniform(5.0, 20.0)
    style = rng.choice(("const", "linear", "min"))
    if style == "const":
        utility = ConcaveUtility.constant(base)
    elif style == "linear":
        utility = ConcaveUtility.linear(LinPoly({"vCPU": slope}, base))
    else:
        utility = ConcaveUtility((LinPoly({"vCPU": slope}, base),
                                  LinPoly({"PCIe": slope / 10.0}, base)))
    pieces = [UtilityPiece(
        constraints=(LinPoly({"vCPU": 1.0}, -floor),
                     LinPoly({"RAM": 1.0}, -ram)),
        utility=utility)]
    if rng.random() < 0.4:
        pieces.append(UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -2.0 * floor),
                         LinPoly({"RAM": 1.0}, -ram)),
            utility=ConcaveUtility.constant(base + rng.uniform(5.0, 30.0))))
    return PiecewiseUtility(pieces)


def _task(rng, task_id, switch_ids, num_seeds, previous):
    """``previous``: (placement, allocations) dicts to fill, or None."""
    shared = rng.random() < 0.6
    seeds = []
    for index in range(num_seeds):
        seed_id = f"{task_id}/s{index}"
        candidates = tuple(sorted(rng.sample(
            switch_ids, rng.randint(1, min(3, len(switch_ids))))))
        utility = _utility(rng)
        subject = frozenset({("port", "all")}) if shared else frozenset(
            {("tcam", task_id)})
        demand = PollDemand(
            subject=subject, weight=rng.choice((2.0, 4.0, 8.0)),
            inv_interval=LinPoly({"PCIe": rng.uniform(0.05, 0.15)},
                                 rng.uniform(0.0, 1.0)))
        seeds.append(SeedSpec(seed_id=seed_id, task_id=task_id,
                              candidates=candidates, utility=utility,
                              poll_demands=(demand,)))
        if previous is not None and rng.random() < 0.5:
            # Mostly a candidate; sometimes a switch outside N^s, which
            # only the residue check reads.  Fat old allocations make
            # full old switches reject the move.
            prev = rng.choice(candidates if rng.random() < 0.8
                              else switch_ids)
            placement, allocations = previous
            placement[seed_id] = prev
            allocations[seed_id] = {
                "vCPU": rng.choice((0.5, 1.0, 2.0)), "RAM": 64.0,
                "TCAM": 0.0, "PCIe": rng.choice((0.0, 5.0))}
    return TaskSpec(task_id=task_id, seeds=seeds)


def tight_instance(rng_seed, mandatory=()):
    rng = random.Random(rng_seed)
    switch_ids = list(range(1, rng.randint(5, 10) + 1))
    available = {n: {"vCPU": rng.uniform(1.5, 4.0),
                     "RAM": rng.uniform(200.0, 500.0), "TCAM": 64.0,
                     "PCIe": rng.uniform(15.0, 60.0)} for n in switch_ids}
    placement, allocations = {}, {}
    tasks = [_task(rng, f"t{index}", switch_ids, rng.randint(3, 12),
                   (placement, allocations))
             for index in range(rng.randint(4, 7))]
    for task in tasks:
        task.mandatory = task.task_id in mandatory
    return PlacementProblem(
        tasks=tasks, available=available, resource_types=R,
        previous_placement=placement, previous_allocations=allocations)


def _same_state(cached, reference):
    assert cached.log == reference.log
    assert cached.placement == reference.placement
    assert cached.allocations == reference.allocations
    assert cached.piece_choice == reference.piece_choice
    for n, state in cached.states.items():
        other = reference.states[n]
        assert state.used == other.used
        assert state.poll_rates == other.poll_rates
        assert state.residents == other.residents
        assert state.residue == other.residue
        assert state.residue_poll == other.residue_poll


INSTANCE_SEEDS = range(40)


class TestDifferentialGreedy:
    def test_full_solver_commits_what_the_reference_commits(self):
        rolled_back = multi_piece = rejections = saved = 0
        for rng_seed in INSTANCE_SEEDS:
            problem = tight_instance(rng_seed)
            cached, reference = CachedFull(problem), ReferenceFull(problem)
            assert cached.greedy_place() == reference.greedy_place()
            _same_state(cached, reference)
            rolled_back += any(e[0] == "uncommit" for e in cached.log)
            multi_piece += any(len(e) == 4 and e[2] > 0 for e in cached.log)
            rejections += reference.residue_rejections
            saved += reference.evaluations - cached.evaluations
        # The batch must exercise what it claims to, or it proves nothing.
        assert rolled_back >= 5 and multi_piece >= 5 and rejections >= 20
        assert saved > 0

    def test_mandatory_task_raises_at_the_same_commit(self):
        raised = 0
        for rng_seed in INSTANCE_SEEDS:
            probe = CachedFull(tight_instance(rng_seed))
            placed = probe.greedy_place()
            dropped = [t.task_id for t in probe.problem.tasks
                       if t.task_id not in placed]
            if not dropped:
                continue
            problem = tight_instance(rng_seed, mandatory=dropped[-1:])
            cached, reference = CachedFull(problem), ReferenceFull(problem)
            with pytest.raises(PlacementError):
                cached.greedy_place()
            with pytest.raises(PlacementError):
                reference.greedy_place()
            _same_state(cached, reference)
            raised += 1
        assert raised >= 5

    def test_incremental_solver_commits_what_the_reference_commits(self):
        reclaimed = escalated = 0
        for rng_seed in INSTANCE_SEEDS:
            rng = random.Random(1000 + rng_seed)
            problem = tight_instance(rng_seed)
            incumbent = HeuristicPlacementSolver(problem).solve()
            switch_ids = sorted(problem.available)
            shrunk = rng.sample(switch_ids, 2)
            delta = ChurnDelta(
                added_tasks=(_task(rng, "new", switch_ids,
                                   rng.randint(2, 6), None),),
                removed_seeds=tuple(rng.sample(
                    sorted(incumbent.placement),
                    min(2, len(incumbent.placement)))),
                capacity_changes={
                    n: {"vCPU": problem.available[n]["vCPU"]
                        * rng.uniform(0.5, 1.2)} for n in shrunk})
            churned = apply_delta(problem, delta, incumbent=incumbent)
            outcomes = []
            solvers = [cls(churned, incumbent, delta=delta)
                       for cls in (CachedIncremental, ReferenceIncremental)]
            for solver in solvers:
                solver._rebase(set(solver.states))
                try:
                    outcomes.append(solver._greedy_dirty())
                except _FallbackNeeded as exc:
                    outcomes.append(("fallback", str(exc)))
            assert outcomes[0] == outcomes[1]
            _same_state(*solvers)
            assert solvers[0].touched == solvers[1].touched
            escalated += isinstance(outcomes[0], tuple)
            reclaimed += any(
                solvers[0].allocations[sid] != incumbent.allocations.get(sid)
                for sid in solvers[0].allocations
                if sid not in solvers[0].dirty_seeds)
        assert reclaimed >= 3 and escalated >= 1
        assert escalated < len(INSTANCE_SEEDS)


class TestEngagement:
    """Counts that the parent's loops fail."""

    @pytest.fixture(scope="class")
    def fig7(self):
        return generate_problem(3000, 780, num_tasks=10, seed=3)

    def test_greedy_scores_each_seed_a_handful_of_times(self, fig7):
        solver = CachedFull(fig7)
        per_task = {}
        for task in solver._task_order():
            before = solver.evaluations
            solver._place_members(task.seeds)
            per_task[task.task_id] = solver.evaluations - before
        for task in fig7.tasks:  # the parent: ~45 000 per 300-seed task
            assert per_task[task.task_id] <= 10 * len(task.seeds)

    def test_second_lp_pass_solves_only_touched_switches(self):
        problem = generate_problem(400, 100, num_tasks=8, seed=11)

        class Counting(HeuristicPlacementSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.passes = []

            def redistribute(self):
                resident = {n for n, s in self.states.items() if s.residents}
                self.passes.append({"resident": len(resident), "solved": 0,
                                    "touched": len(resident & self.touched)})
                super().redistribute()

            def _add_block(self, lp, state):
                self.passes[-1]["solved"] += 1
                return super()._add_block(lp, state)

        class SolveEverySwitch(HeuristicPlacementSolver):
            def redistribute(self):
                self.touched.update(self.states)
                super().redistribute()

        solver = Counting(problem)
        solution = solver.solve()
        first, second = solver.passes
        assert first["solved"] == first["touched"] == first["resident"]
        assert 0 < second["solved"] == second["touched"] < first["solved"]
        # Skipping an untouched switch is exact, not approximately right.
        everything = SolveEverySwitch(problem).solve()
        assert solution.placement == everything.placement
        assert solution.allocations == everything.allocations
        assert solution.objective == everything.objective


class TestTouchedSet:
    def test_rolled_back_migration_leaves_its_switches_touched(self):
        # "a" sits on its previous switch 1 next to "b"; switch 2 would
        # give it far more vCPU, but moving leaves a's fat old allocation
        # on switch 1 as residue, which b's share no longer leaves room
        # for — the migrate step tries, overloads switch 1 and undoes it.
        capacities = {1: {"vCPU": 2.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0},
                      2: {"vCPU": 8.0, "RAM": 8192.0, "TCAM": 512.0,
                          "PCIe": 1000.0}}
        problem = make_problem(
            [linear_seed("a", "t", (1, 2), slope=10.0, floor=0.5),
             const_seed("b", "u", (1,), 100.0, floor=1.0)],
            capacities, previous_placement={"a": 1},
            previous_allocations={"a": {"vCPU": 2.0}})
        solver = CachedFull(problem)
        solver.greedy_place()
        solver.redistribute()
        assert solver.touched == set()
        solver.log.clear()
        assert solver.migrate() == 0
        assert [e[:2] for e in solver.log] == [
            ("uncommit", "a"), ("a", 2), ("uncommit", "a"), ("a", 1)]
        assert solver.placement == {"a": 1, "b": 1}
        assert solver.touched == {1, 2}  # source == previous, and target

    def test_migrate_false_runs_one_lp_pass(self):
        problem = generate_problem(120, 20, num_tasks=6, seed=2)
        passes = []

        class Counting(HeuristicPlacementSolver):
            def redistribute(self):
                passes.append(sorted(self.touched))
                super().redistribute()

        solver = Counting(problem, migrate=False)
        solver.solve()
        assert len(passes) == 1
        assert set(passes[0]) >= {n for n, s in solver.states.items()
                                  if s.residents}
        assert solver.touched == set()
