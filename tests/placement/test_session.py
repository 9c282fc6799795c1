"""A placement session survives the delta — and changes nothing.

``solve_incremental`` keeps its solver (switch states, indexes, caches,
per-seed utility terms) alive between deltas and rebuilds only the
switches the previous re-solve marked plus the ones the new delta names.
Pinned here to opening a fresh session at every step: ``==`` on the
solution, on every ``_SwitchState`` field and on the solver's tables;
the indexed dirty set against ``compute_dirty``; the error paths that
must discard a session; the read-only fence that lets problems and
solutions share what a delta does not touch; and counts showing the
saving is engaged.
"""

import copy
import random

import pytest

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.errors import PlacementError
from repro.placement import heuristic, incremental
from repro.placement.heuristic import (
    HeuristicPlacementSolver,
    solve_heuristic,
)
from repro.placement.incremental import (
    ChurnDelta,
    IncrementalPlacementSolver,
    apply_delta,
    compute_dirty,
    solve_incremental,
)
from repro.placement.instances import generate_problem
from repro.placement.model import (
    PollDemand,
    SeedSpec,
    TaskSpec,
    validate_solution,
)


# ----------------------------------------------------------------------
# Deltas: all six ChurnDelta fields, and the shapes that end a session
# ----------------------------------------------------------------------
def _utility(rng, floor=None):
    floor = rng.choice((0.25, 0.5, 1.0)) if floor is None else floor
    ram = rng.choice((32.0, 64.0))
    base = rng.uniform(5.0, 40.0)
    constraints = (LinPoly({"vCPU": 1.0}, -floor),
                   LinPoly({"RAM": 1.0}, -ram))
    pieces = [UtilityPiece(
        constraints=constraints,
        utility=rng.choice((
            ConcaveUtility.constant(base),
            ConcaveUtility.linear(LinPoly({"vCPU": 8.0}, base)))))]
    if rng.random() < 0.4:
        pieces.append(UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -2.0 * floor),
                         LinPoly({"RAM": 1.0}, -ram)),
            utility=ConcaveUtility.constant(base + 20.0)))
    return PiecewiseUtility(pieces)


def _task(rng, task_id, switches, doomed=False):
    """``doomed``: the last seed needs more vCPU than any switch has, so
    the greedy pass commits its siblings and rolls the task back."""
    count = rng.randint(2, 4)
    seeds = []
    for i in range(count):
        floor = 1e6 if doomed and i == count - 1 else None
        demand = PollDemand(
            subject=frozenset({("port", "all")}), weight=2.0,
            inv_interval=LinPoly({"PCIe": 0.1}, rng.uniform(0.0, 1.0)))
        seeds.append(SeedSpec(
            seed_id=f"{task_id}/s{i}", task_id=task_id,
            candidates=tuple(sorted(rng.sample(
                switches, min(len(switches), rng.randint(2, 3))))),
            utility=_utility(rng, floor), poll_demands=(demand,)))
    return TaskSpec(task_id=task_id, seeds=seeds)


def _bumped(rng, seed):
    factor = rng.uniform(0.5, 2.0)
    return tuple(
        PollDemand(subject=d.subject, weight=d.weight,
                   inv_interval=LinPoly(
                       {v: c * factor
                        for v, c in d.inv_interval.coeffs.items()},
                       d.inv_interval.const * factor))
        for d in seed.poll_demands)


KINDS = ("shrink", "grow", "lure", "lure", "resize", "add-task",
         "add-doomed", "poll-bump", "poll-bump", "mixed", "remove-seed",
         "remove-task", "add-switch", "remove-switch", "evict", "wide")


def _delta(rng, problem, incumbent, step, kind=None):
    switches = sorted(problem.available)
    kind = kind or rng.choice(KINDS)
    n = rng.choice(switches)
    caps = problem.available[n]
    polled = sorted((s for s in problem.all_seeds() if s.poll_demands),
                    key=lambda s: s.seed_id)
    if kind == "shrink":
        return ChurnDelta(capacity_changes={n: {
            "vCPU": caps["vCPU"] * rng.uniform(0.6, 0.9)}})
    if kind == "grow":
        return ChurnDelta(capacity_changes={n: {
            "vCPU": caps["vCPU"] * rng.uniform(1.5, 3.0),
            "PCIe": caps["PCIe"] * 1.5}})
    if kind == "lure":
        # Room on a switch whose own residents cannot use it (flat
        # utilities), next to a seed that can: the migrate pass moves
        # that seed over and leaves residue on its old switch.
        rising = {sid for sid in incumbent.placement
                  if any(piece.utility.variables()
                         for piece in problem.seed(sid).utility.pieces)}
        flat = [m for m in switches
                if not any(incumbent.placement[sid] == m for sid in rising)]
        lures = sorted({m for sid in rising
                        for m in problem.seed(sid).candidates if m in flat})
        if lures:
            n = rng.choice(lures)
            caps = problem.available[n]
        return ChurnDelta(capacity_changes={n: {
            "vCPU": caps["vCPU"] * 6.0, "PCIe": caps["PCIe"] * 3.0}})
    if kind == "resize":
        return ChurnDelta(capacity_changes={n: {
            "vCPU": caps["vCPU"] * rng.uniform(0.7, 1.4),
            "PCIe": caps["PCIe"] * rng.uniform(0.7, 1.3)}})
    if kind == "add-task":
        return ChurnDelta(added_tasks=(
            _task(rng, f"new#{step}", switches),))
    if kind == "add-doomed":
        return ChurnDelta(added_tasks=(
            _task(rng, f"doomed#{step}", switches, doomed=True),))
    if kind == "poll-bump" and polled:
        seed = rng.choice(polled)
        return ChurnDelta(poll_changes={seed.seed_id: _bumped(rng, seed)})
    if kind == "mixed" and polled:
        seed = rng.choice(polled)
        return ChurnDelta(
            added_tasks=(_task(rng, f"mixed#{step}", switches),),
            capacity_changes={n: {"vCPU": caps["vCPU"] * 1.2}},
            poll_changes={seed.seed_id: _bumped(rng, seed)})
    if kind == "remove-seed" and incumbent.placement:
        return ChurnDelta(removed_seeds=(
            rng.choice(sorted(incumbent.placement)),))
    if kind == "remove-task" and len(problem.tasks) > 3:
        return ChurnDelta(removed_tasks=(
            rng.choice(sorted(t.task_id for t in problem.tasks)),))
    if kind == "add-switch":
        return ChurnDelta(capacity_changes={max(switches) + 1: {
            "vCPU": 4.0, "RAM": 4096.0, "TCAM": 256.0, "PCIe": 100.0}})
    if kind == "remove-switch" and len(switches) > 8:
        return ChurnDelta(removed_switches=(n,))
    if kind == "evict":  # below any resident's floor: eviction fallback
        return ChurnDelta(capacity_changes={n: {"vCPU": 0.01}})
    if kind == "wide":  # half the fleet resized: dirty-switches fallback
        return ChurnDelta(capacity_changes={
            m: {"vCPU": problem.available[m]["vCPU"] * 1.01}
            for m in switches[::2]})
    return ChurnDelta(capacity_changes={n: {"vCPU": caps["vCPU"] * 1.1}})


# ----------------------------------------------------------------------
# The oracle: the same step through a session opened for it
# ----------------------------------------------------------------------
def _detached(solution):
    """``solution`` as a caller who never met the session holds it."""
    plain = copy.copy(solution)
    plain._session = None
    return plain


def _fresh_step(problem, incumbent, delta):
    incumbent = _detached(incumbent)
    churned = apply_delta(problem, delta, incumbent=incumbent)
    assert churned._lineage is None
    return churned, solve_incremental(churned, incumbent, delta=delta)


def _canon_tasks(tasks):
    return [(t.task_id, t.mandatory,
             [(s.seed_id, s.task_id, s.candidates, tuple(s.utility.pieces),
               s.poll_demands) for s in t.seeds]) for t in tasks]


def _canon_problem(problem):
    return (_canon_tasks(problem.tasks), problem.available,
            list(problem.available), problem.resource_types, problem.r_poll,
            problem.alpha_poll, problem.previous_placement,
            problem.previous_allocations)


def _canon_delta(delta):
    return (_canon_tasks(delta.added_tasks), delta.removed_tasks,
            delta.removed_seeds, delta.capacity_changes, delta.poll_changes,
            delta.removed_switches)


def _same_solution(got, want):
    assert got.placement == want.placement
    assert got.allocations == want.allocations
    assert got.objective == want.objective  # ==, not approx
    assert got.placed_tasks == want.placed_tasks
    assert got.status == want.status and got.solver == want.solver
    assert got.info == want.info


def _same_session(got, want):
    """Two solvers that would treat the next delta identically."""
    assert got.placement == want.placement
    assert got.allocations == want.allocations
    assert got.piece_choice == want.piece_choice
    assert got._reserved == want._reserved
    assert got._placed == want._placed
    assert got._stale == want._stale
    assert ({sid: got._terms[sid] for sid in got.placement}
            == {sid: want._terms[sid] for sid in want.placement})
    assert sorted(got.states) == sorted(want.states)
    for n, state in got.states.items():
        other = want.states[n]
        assert state.capacity == other.capacity
        assert state.used == other.used
        assert (list(state.poll_rates.items())
                == list(other.poll_rates.items()))  # sum() folds in order
        assert state.residents == other.residents  # LP column order
        assert state.residue == other.residue
        assert state.residue_poll == other.residue_poll


@pytest.fixture
def advances(monkeypatch):
    """Count continued re-solves, checking each indexed dirty set against
    the scan-everything definition."""
    seen = []
    advance = IncrementalPlacementSolver._advance

    def checked(self, problem, delta):
        advance(self, problem, delta)
        assert ((self.dirty_switches, self.dirty_seeds)
                == compute_dirty(problem, self.incumbent, delta))
        seen.append(delta)

    monkeypatch.setattr(IncrementalPlacementSolver, "_advance", checked)
    return seen


def _instance(rng_seed):
    """``generate_problem(120, 16)`` with most utilities flattened: a
    per-switch LP then leaves room its residents cannot use, which is
    what lets the migrate pass move anything ("lure" deltas)."""
    rng = random.Random(rng_seed)
    problem = generate_problem(120, 16, seed=rng_seed)
    for seed in problem.all_seeds():
        if rng.random() < 0.85:
            piece, = seed.utility.pieces
            seed.utility = PiecewiseUtility([UtilityPiece(
                constraints=piece.constraints,
                utility=ConcaveUtility.constant(seed.utility.min_utility()))])
    return problem


def _run(rng_seed, steps, advances):
    """One random sequence through the continuing session, every step
    against a fresh session; returns what the sequence exercised."""
    rng = random.Random(rng_seed)
    problem = _instance(rng_seed)
    incumbent = solve_heuristic(problem)
    seen = {"continued": 0, "fallback": 0, "residue": 0, "rolled_back": 0,
            "kinds": set()}
    for step in range(steps):
        delta = _delta(rng, problem, incumbent, step)
        want_problem, want = _fresh_step(problem, incumbent, delta)
        before = len(advances)
        problem = apply_delta(problem, delta, incumbent=incumbent)
        solution = solve_incremental(problem, incumbent, delta=delta)
        assert _canon_problem(problem) == _canon_problem(want_problem)
        _same_solution(solution, want)
        assert validate_solution(problem, solution) == []
        if solution.info.get("fallback"):
            seen["fallback"] += 1
            assert solution._session is None
        else:
            session = solution._session
            _same_session(session, want._session)
            seen["continued"] += len(advances) - before
            seen["residue"] += bool(session._reserved)
            seen["rolled_back"] += any(
                t.task_id.startswith("doomed") for t in delta.added_tasks)
        seen["kinds"].update(
            name for name in ("added_tasks", "removed_tasks",
                              "removed_seeds", "capacity_changes",
                              "poll_changes", "removed_switches")
            if getattr(delta, name))
        incumbent = solution
    return seen


class TestDifferentialSessions:
    """(a) + (b): continuing == opening, step by step."""

    def test_random_sequences_match_a_fresh_session_at_every_step(
            self, advances):
        total = {"continued": 0, "fallback": 0, "residue": 0,
                 "rolled_back": 0, "kinds": set()}
        for rng_seed in (2, 6, 9, 13, 20, 22):
            seen = _run(rng_seed, 14, advances)
            for key in total:
                total[key] = (total[key] | seen[key] if key == "kinds"
                              else total[key] + seen[key])
        # The batch must exercise what it claims to, or it proves nothing.
        assert len(total["kinds"]) == 6
        assert total["continued"] >= 30
        assert total["fallback"] >= 2
        assert total["residue"] >= 2
        assert total["rolled_back"] >= 2

    def test_degraded_incumbent_allocation_goes_dirty_on_both_paths(
            self, advances, monkeypatch):
        # "Shouldn't happen, but deltas are caller-supplied": a clean
        # resident whose allocation satisfies no piece degrades to dirty
        # and drags its switch along — in a rebase of one switch exactly
        # as in the rebase of all of them.
        victims = set()
        recover = IncrementalPlacementSolver._recover_piece

        def flaky(self, seed, alloc):
            if seed.seed_id in victims:
                return None
            return recover(self, seed, alloc)

        monkeypatch.setattr(IncrementalPlacementSolver, "_recover_piece",
                            flaky)
        problem = generate_problem(120, 16, seed=4)
        for caps in problem.available.values():
            caps["vCPU"] *= 2.0
        incumbent = solve_heuristic(problem)
        degraded = 0
        for step in range(6):
            target = sorted(problem.available)[step]
            delta = ChurnDelta(capacity_changes={target: {
                "vCPU": problem.available[target]["vCPU"] * 1.1}})
            if step >= 2:
                # A resident of a switch the previous step marked but
                # this delta does not name: rebased, and clean.
                session = incumbent._session
                marked = sorted(session._stale - {target})
                victims = {session.states[marked[0]].residents[0]}
            want_problem, want = _fresh_step(problem, incumbent, delta)
            problem = apply_delta(problem, delta, incumbent=incumbent)
            solution = solve_incremental(problem, incumbent, delta=delta)
            _same_solution(solution, want)
            _same_session(solution._session, want._session)
            degraded += bool(victims & solution._session.dirty_seeds)
            incumbent = solution
        assert degraded >= 3 and len(advances) == 5


# ----------------------------------------------------------------------
# What discards a session, and what must not leak out of one
# ----------------------------------------------------------------------
def _roomy(rng_seed=6):
    problem = generate_problem(120, 16, seed=rng_seed)
    for caps in problem.available.values():
        for resource in caps:
            caps[resource] *= 2.0
    return problem, solve_heuristic(problem)


def _resize(problem, index, factor=1.1):
    n = sorted(problem.available)[index % len(problem.available)]
    return ChurnDelta(capacity_changes={
        n: {"vCPU": problem.available[n]["vCPU"] * factor}})


def _step(problem, incumbent, delta):
    problem = apply_delta(problem, delta, incumbent=incumbent)
    return problem, solve_incremental(problem, incumbent, delta=delta)


class TestSessionErrorPaths:
    def _after(self, advances, breaker, reason):
        """resize, resize, ``breaker`` (must fall back), resize, resize:
        the steps after the fallback equal a from-scratch session's."""
        problem, incumbent = _roomy()
        for index in range(2):
            problem, incumbent = _step(problem, incumbent,
                                       _resize(problem, index))
        assert len(advances) == 1
        delta = breaker(problem, incumbent)
        want_problem, want = _fresh_step(problem, incumbent, delta)
        problem, broken = _step(problem, incumbent, delta)
        assert broken.info["fallback"] == reason == want.info["fallback"]
        assert broken._session is None
        _same_solution(broken, want)
        incumbent = broken
        for index in range(2, 4):
            delta = _resize(problem, index)
            want_problem, want = _fresh_step(problem, incumbent, delta)
            problem, incumbent = _step(problem, incumbent, delta)
            assert incumbent.info["incremental"] is True
            _same_solution(incumbent, want)
            _same_session(incumbent._session, want._session)
        # The breaker reached the session (and killed it); the step after
        # it opened a new one, the last step continued that.
        assert len(advances) == 3

    def test_eviction_fallback_mid_sequence(self, advances):
        def evict(problem, incumbent):
            n = sorted(problem.available)[5]
            return ChurnDelta(capacity_changes={n: {"vCPU": 0.01}})
        self._after(advances, evict, "eviction")

    def test_dirty_switches_fallback_mid_sequence(self, advances):
        def wide(problem, incumbent):
            # A third of the fleet, but its emptiest third: too many
            # switches without too many seeds.
            homes = list(incumbent.placement.values())
            quiet = sorted(problem.available,
                           key=lambda n: (homes.count(n), n))[:6]
            return ChurnDelta(capacity_changes={
                n: {"vCPU": problem.available[n]["vCPU"] * 1.01}
                for n in quiet})
        self._after(advances, wide, "dirty-switches")

    def test_orphaned_mandatory_task_raises_and_the_session_goes_on(
            self, advances):
        problem, incumbent = _roomy()
        home = sorted(problem.available)[0]
        pinned = TaskSpec(task_id="pinned", mandatory=True, seeds=[SeedSpec(
            seed_id="pinned/s0", task_id="pinned", candidates=(home,),
            utility=PiecewiseUtility([UtilityPiece(
                constraints=(LinPoly({"vCPU": 1.0}, -0.1),),
                utility=ConcaveUtility.constant(3.0))]))])
        problem, incumbent = _step(problem, incumbent, _resize(problem, 3))
        problem, incumbent = _step(problem, incumbent,
                                   ChurnDelta(added_tasks=(pinned,)))
        assert incumbent.placement["pinned/s0"] == home
        with pytest.raises(PlacementError, match="lost every candidate"):
            apply_delta(problem, ChurnDelta(removed_switches=(home,)),
                        incumbent=incumbent)
        delta = _resize(problem, 4)
        want_problem, want = _fresh_step(problem, incumbent, delta)
        problem, incumbent = _step(problem, incumbent, delta)
        _same_solution(incumbent, want)
        _same_session(incumbent._session, want._session)
        assert len(advances) == 2  # nothing was lost to the raise

    def test_exception_inside_a_resolve_discards_the_session(self, advances):
        problem, incumbent = _roomy()
        problem, incumbent = _step(problem, incumbent, _resize(problem, 0))
        n = sorted(problem.available)[1]
        doomed = TaskSpec(task_id="must", mandatory=True, seeds=[SeedSpec(
            seed_id="must/s0", task_id="must", candidates=(n,),
            utility=PiecewiseUtility([UtilityPiece(
                constraints=(LinPoly({"vCPU": 1.0}, -1e6),),
                utility=ConcaveUtility.constant(3.0))]))])
        bad = ChurnDelta(added_tasks=(doomed,))
        churned = apply_delta(problem, bad, incumbent=incumbent)
        with pytest.raises(PlacementError, match="cannot be placed"):
            solve_incremental(churned, incumbent, delta=bad)
        assert len(advances) == 1  # it died inside the session
        delta = _resize(problem, 2)
        want_problem, want = _fresh_step(problem, incumbent, delta)
        problem, incumbent = _step(problem, incumbent, delta)
        assert len(advances) == 1  # ... and was not continued
        _same_solution(incumbent, want)
        _same_session(incumbent._session, want._session)

    def test_two_deltas_from_one_incumbent_do_not_see_each_other(
            self, advances):
        problem, incumbent = _roomy()
        problem, incumbent = _step(problem, incumbent, _resize(problem, 0))
        first, second = _resize(problem, 1, 0.8), ChurnDelta(
            added_tasks=(_task(random.Random(1), "branch",
                               sorted(problem.available)),))
        wants = [_fresh_step(problem, incumbent, d) for d in (first, second)]
        # Both derived before either is solved, as run_churn_benchmark
        # does: the second must not see the first's mutations.
        branches = [apply_delta(problem, d, incumbent=incumbent)
                    for d in (first, second)]
        got = [solve_incremental(p, incumbent, delta=d)
               for p, d in zip(branches, (first, second))]
        for branch, solution, (want_problem, want) in zip(branches, got,
                                                          wants):
            assert _canon_problem(branch) == _canon_problem(want_problem)
            _same_solution(solution, want)
        assert len(advances) == 1  # the first continued, the second opened
        assert got[0]._session is not got[1]._session

    def test_returned_solutions_are_snapshots(self, advances):
        problem, incumbent = _roomy()
        rng = random.Random(9)
        kept = []
        for step in range(8):
            delta = _delta(rng, problem, incumbent, step, kind=rng.choice(
                ("shrink", "grow", "add-task", "poll-bump", "mixed")))
            problem, incumbent = _step(problem, incumbent, delta)
            kept.append((incumbent, copy.deepcopy(incumbent),
                         problem, _canon_problem(copy.deepcopy(problem))))
        assert len(advances) >= 6
        for solution, snapshot, churned, canon in kept:
            assert solution == snapshot
            assert solution.info == snapshot.info
            assert _canon_problem(churned) == canon

    def test_stale_incumbent_opens_a_new_session(self, advances):
        problem, incumbent = _roomy()
        problem, stale = _step(problem, incumbent, _resize(problem, 0))
        stale_problem = problem
        problem, incumbent = _step(problem, stale, _resize(problem, 1))
        assert len(advances) == 1
        delta = _resize(stale_problem, 2, 0.8)
        want_problem, want = _fresh_step(stale_problem, stale, delta)
        churned, solution = _step(stale_problem, stale, delta)
        assert len(advances) == 1  # not continued: the session moved on
        assert solution._session is not incumbent._session
        _same_solution(solution, want)
        # ... and the session that moved on is still good.
        delta = _resize(problem, 3)
        want_problem, want = _fresh_step(problem, incumbent, delta)
        problem, incumbent = _step(problem, incumbent, delta)
        assert len(advances) == 2
        _same_solution(incumbent, want)

    def test_readded_seed_id_does_not_serve_cached_profiles(self, advances):
        problem, incumbent = _roomy()
        n = sorted(problem.available)[2]

        def probe(value, floor):
            return TaskSpec(task_id="probe", seeds=[SeedSpec(
                seed_id="probe/s0", task_id="probe", candidates=(n,),
                utility=PiecewiseUtility([UtilityPiece(
                    constraints=(LinPoly({"vCPU": 1.0}, -floor),),
                    utility=ConcaveUtility.constant(value))]))])

        deltas = [ChurnDelta(added_tasks=(probe(5.0, 0.1),)),
                  _resize(problem, 0),
                  ChurnDelta(removed_tasks=("probe",)),
                  ChurnDelta(added_tasks=(probe(9.0, 0.3),)),
                  _resize(problem, 1)]
        for delta in deltas:
            want_problem, want = _fresh_step(problem, incumbent, delta)
            problem, incumbent = _step(problem, incumbent, delta)
            _same_solution(incumbent, want)
        session = incumbent._session
        (_k, alloc, value), = session._profiles["probe/s0"]
        assert value == 9.0 and alloc["vCPU"] == pytest.approx(0.3)
        assert session._terms["probe/s0"] == 9.0


class TestInputsAreReadOnly:
    def test_apply_and_resolve_leave_their_arguments_alone(self, advances):
        # The precondition for sharing inner allocation and capacity
        # dicts between incumbent, problem and session.
        rng = random.Random(12)
        problem = generate_problem(120, 16, seed=12)
        incumbent = solve_heuristic(problem)
        kinds = ("grow", "shrink", "add-task", "poll-bump", "mixed",
                 "remove-seed", "grow", "add-doomed", "resize",
                 "add-switch", "evict", "poll-bump")
        for step, kind in enumerate(kinds):
            delta = _delta(rng, problem, incumbent, step, kind=kind)
            before = (_canon_problem(copy.deepcopy(problem)),
                      copy.deepcopy(incumbent),
                      _canon_delta(copy.deepcopy(delta)))
            churned = apply_delta(problem, delta, incumbent=incumbent)
            solution = solve_incremental(churned, incumbent, delta=delta)
            assert _canon_problem(problem) == before[0]
            assert incumbent == before[1]
            assert incumbent.info == before[1].info
            assert _canon_delta(delta) == before[2]
            problem, incumbent = churned, solution
        assert len(advances) >= 6


# ----------------------------------------------------------------------
# Engagement: what one delta costs in a live session
# ----------------------------------------------------------------------
class TestEngagement:
    """(c): counts the per-delta solver of the parent commit fails —
    ~810 warm commits and utility evaluations, 150 switch states and 10
    ``TaskSpec`` per delta on this instance."""

    def test_a_continued_delta_pays_for_its_switches_only(
            self, advances, monkeypatch):
        counts = {}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        rebased = []
        rebase = IncrementalPlacementSolver._rebase
        commit = HeuristicPlacementSolver._commit

        def rebase_counted(self, switches):
            residents = sum(len(self.states[n].residents)
                            for n in switches if n in self.states)
            rebased.append((len(switches), residents))
            counts["in_rebase"] = True
            try:
                rebase(self, switches)
            finally:
                counts["in_rebase"] = False

        def commit_counted(self, *args):
            if counts.get("in_rebase"):
                counts["warm"] = counts.get("warm", 0) + 1
            commit(self, *args)

        monkeypatch.setattr(IncrementalPlacementSolver, "_rebase",
                            rebase_counted)
        monkeypatch.setattr(IncrementalPlacementSolver, "_commit",
                            commit_counted)
        counting(IncrementalPlacementSolver, "_utility_term", "terms")
        counting(incremental, "_SwitchState", "states")
        counting(incremental, "SeedSpec", "seed_specs")
        counting(incremental, "TaskSpec", "task_specs")
        counting(heuristic, "_SwitchState", "states")

        problem = generate_problem(1000, 150, num_tasks=10, seed=5)
        for caps in problem.available.values():
            for resource in caps:
                caps[resource] *= 2.0
        incumbent = solve_heuristic(problem)
        rng = random.Random(5)
        problem, incumbent = _step(problem, incumbent, _resize(problem, 7))
        placed = len(incumbent.placement)
        assert rebased == [(150, placed)] and counts["warm"] >= 0.7 * placed
        for _ in range(12):
            counts.clear()
            del rebased[:]
            delta = _resize(problem, rng.randrange(150),
                            rng.choice((1.05, 1.3)))
            problem, incumbent = _step(problem, incumbent, delta)
            assert incumbent.info["incremental"] is True
            (switches, residents), = rebased
            session = incumbent._session
            hot = sum(len(session.states[n].residents)
                      for n in session._stale)
            assert switches <= 12 and residents <= 100
            assert counts.get("warm", 0) <= residents
            assert counts.get("terms", 0) <= hot
            assert counts["states"] <= switches
            assert "seed_specs" not in counts and "task_specs" not in counts
        assert len(advances) == 12
