"""Differential suite for the warm-started incremental solver.

Single-delta cases where the incremental result must match the full
re-solve exactly, the degenerate empty-delta case (incumbent returned
untouched), the fallback paths, and the determinism regression (same
RNG seed + same delta sequence => bit-identical solutions for both
solvers).
"""

import pytest

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.errors import PlacementError
from repro.placement import incremental
from repro.placement.heuristic import solve_heuristic
from repro.placement.incremental import (
    ChurnDelta,
    apply_delta,
    compute_dirty,
    solve_incremental,
)
from repro.placement.instances import generate_problem
from repro.placement.linprog_builder import LinProgram
from repro.placement.model import (
    PollDemand,
    SeedSpec,
    TaskSpec,
    validate_solution,
)
from tests.placement.test_solvers import (
    const_seed,
    linear_seed,
    make_problem,
)


def polled_seed(seed_id, task_id, candidates, value=10.0, inv_const=1.0):
    """Constant-utility seed with a constant polling demand."""
    return SeedSpec(
        seed_id=seed_id, task_id=task_id, candidates=tuple(candidates),
        utility=PiecewiseUtility([UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -0.5),),
            utility=ConcaveUtility.constant(value))]),
        poll_demands=(PollDemand(
            subject=frozenset({("port", seed_id)}),
            inv_interval=LinPoly({}, inv_const)),))


def probe_task(problem, target):
    """A small 4-seed task with tiny floors, placeable near ``target``."""
    switches = sorted(problem.available)
    anchor = switches.index(target)
    seeds = []
    for i in range(4):
        candidates = tuple(sorted(
            switches[(anchor + i + k) % len(switches)] for k in range(3)))
        piece = UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -0.1),
                         LinPoly({"RAM": 1.0}, -32.0)),
            utility=ConcaveUtility.constant(5.0))
        seeds.append(SeedSpec(
            seed_id=f"churn-probe/s{i}", task_id="churn-probe",
            candidates=candidates, utility=PiecewiseUtility([piece])))
    return TaskSpec(task_id="churn-probe", seeds=seeds)


def single_switch_deltas(problem, incumbent):
    """The four canonical deltas against the incumbent's median-load
    switch: busy enough that the delta touches real seeds, slack enough
    that a mild shrink stays locally absorbable (a hard shrink escalates
    to a full solve by design — see ``TestFallback``)."""
    residents = {}
    for seed_id, switch in incumbent.placement.items():
        residents.setdefault(switch, []).append(seed_id)
    by_load = sorted(residents, key=lambda n: (len(residents[n]), n))
    target = by_load[len(by_load) // 2]
    vcpu = problem.available[target]["vCPU"]
    polled = next(seed for seed in map(problem.seed,
                                       sorted(residents[target]))
                  if seed.poll_demands)
    bumped = tuple(
        PollDemand(subject=d.subject,
                   inv_interval=LinPoly(dict(d.inv_interval.coeffs),
                                        d.inv_interval.const + 2.0),
                   weight=d.weight)
        for d in polled.poll_demands)
    return {
        "shrink": ChurnDelta(
            capacity_changes={target: {"vCPU": vcpu * 0.75}}),
        "grow": ChurnDelta(
            capacity_changes={target: {"vCPU": vcpu * 1.5}}),
        "task-add": ChurnDelta(added_tasks=(probe_task(problem, target),)),
        "poll-bump": ChurnDelta(poll_changes={polled.seed_id: bumped}),
    }


class TestChurnDelta:
    def test_empty_delta_is_empty(self):
        assert ChurnDelta().is_empty()
        assert not ChurnDelta(removed_seeds=("a",)).is_empty()
        assert not ChurnDelta(capacity_changes={1: {"vCPU": 2.0}}).is_empty()

    def test_apply_delta_removes_seed_and_threads_incumbent(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0),
                          const_seed("b", "u", (1,), 8.0)])
        full = solve_heuristic(p)
        p2 = apply_delta(p, ChurnDelta(removed_seeds=("a",)), incumbent=full)
        assert [s.seed_id for s in p2.all_seeds()] == ["b"]
        assert p2.previous_placement == {"b": 1}

    def test_apply_delta_capacity_change_is_absolute(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0)])
        p2 = apply_delta(p, ChurnDelta(capacity_changes={1: {"vCPU": 9.0}}))
        assert p2.available[1]["vCPU"] == 9.0
        assert p2.available[1]["RAM"] == p.available[1]["RAM"]

    def test_apply_delta_new_switch_starts_at_zero(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0)])
        p2 = apply_delta(p, ChurnDelta(capacity_changes={7: {"vCPU": 4.0}}))
        assert p2.available[7]["vCPU"] == 4.0
        assert p2.available[7]["RAM"] == 0.0

    def test_apply_delta_removed_switch_drops_orphan_task(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0),
                          const_seed("b", "u", (1, 2), 8.0)])
        p2 = apply_delta(p, ChurnDelta(removed_switches=(1,)))
        # task t lost its only candidate -> dropped; b keeps switch 2
        assert [s.seed_id for s in p2.all_seeds()] == ["b"]
        assert p2.all_seeds()[0].candidates == (2,)

    def test_apply_delta_mandatory_orphan_raises(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0)])
        p.tasks[0].mandatory = True
        with pytest.raises(PlacementError):
            apply_delta(p, ChurnDelta(removed_switches=(1,)))

    def test_apply_delta_replaces_poll_demands(self):
        p = make_problem([polled_seed("a", "t", (1,), inv_const=1.0)])
        bumped = (PollDemand(subject=frozenset({("port", "a")}),
                             inv_interval=LinPoly({}, 5.0)),)
        p2 = apply_delta(p, ChurnDelta(poll_changes={"a": bumped}))
        assert p2.seed("a").poll_demands[0].inv_interval.const == 5.0


class TestComputeDirty:
    def test_capacity_change_dirties_switch_and_residents(self):
        p = make_problem([const_seed("a", "t", (1, 2), 10.0),
                          const_seed("b", "u", (2, 3), 8.0)])
        full = solve_heuristic(p)
        home_a = full.placement["a"]
        delta = ChurnDelta(capacity_changes={home_a: {"vCPU": 2.0}})
        p2 = apply_delta(p, delta, incumbent=full)
        dirty_sw, dirty_seeds = compute_dirty(p2, full, delta)
        assert dirty_sw == {home_a}
        assert "a" in dirty_seeds

    def test_untouched_seed_stays_clean(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0),
                          const_seed("b", "u", (2,), 8.0)])
        full = solve_heuristic(p)
        delta = ChurnDelta(capacity_changes={1: {"vCPU": 2.0}})
        p2 = apply_delta(p, delta, incumbent=full)
        _sw, dirty_seeds = compute_dirty(p2, full, delta)
        assert "b" not in dirty_seeds

    def test_removed_seed_frees_home_switch(self):
        p = make_problem([const_seed("a", "t", (1,), 10.0),
                          const_seed("b", "u", (1,), 8.0)])
        full = solve_heuristic(p)
        delta = ChurnDelta(removed_seeds=("a",))
        p2 = apply_delta(p, delta, incumbent=full)
        dirty_sw, dirty_seeds = compute_dirty(p2, full, delta)
        assert dirty_sw == {1}
        assert dirty_seeds == {"b"}


class TestEmptyDelta:
    def test_incumbent_returned_untouched(self):
        p = make_problem([const_seed("a", "t", (1, 2), 10.0),
                          const_seed("b", "u", (1, 2), 8.0)])
        full = solve_heuristic(p)
        sol = solve_incremental(p, full, delta=ChurnDelta())
        assert sol.placement == full.placement
        assert sol.allocations == full.allocations
        assert sol.status == "incumbent"
        assert sol.info["noop"] is True
        assert sol.migrated_seeds(p) == []

    def test_zero_migrations_against_incumbent(self):
        p = generate_problem(40, 8, seed=11)
        full = solve_heuristic(p)
        p2 = apply_delta(p, ChurnDelta(), incumbent=full)
        sol = solve_incremental(p2, full, delta=ChurnDelta())
        assert sol.migrated_seeds(p2) == []
        assert sol.objective == pytest.approx(full.objective)


class TestSingleDeltaDifferential:
    """Cases engineered (constant utilities, slack capacity) so the
    incremental pass must land on exactly the full re-solve's placement."""

    def _diff(self, problem, delta, incumbent):
        p2 = apply_delta(problem, delta, incumbent=incumbent)
        inc = solve_incremental(p2, incumbent, delta=delta)
        ref = solve_heuristic(p2)
        assert validate_solution(p2, inc) == []
        return p2, inc, ref

    def test_seed_added(self):
        p = make_problem([const_seed("a", "t", (1, 2), 10.0)])
        full = solve_heuristic(p)
        new_task = TaskSpec(task_id="n", seeds=[
            const_seed("n1", "n", (1, 2), 7.0)])
        _p2, inc, ref = self._diff(
            p, ChurnDelta(added_tasks=(new_task,)), full)
        assert inc.placement == ref.placement
        assert inc.info["incremental"] is True
        assert "n1" in inc.placement

    def test_switch_drained_to_zero(self):
        # Seeds on the drained switch re-home to the spare one, exactly
        # as the full re-solve does.
        p = make_problem([const_seed("a", "t", (1, 2), 10.0, floor=1.0),
                          const_seed("b", "u", (1, 2), 8.0, floor=1.0)])
        full = solve_heuristic(p)
        drained = full.placement["a"]
        other = 1 if drained == 2 else 2
        delta = ChurnDelta(capacity_changes={
            drained: {r: 0.0 for r in ("vCPU", "RAM", "TCAM", "PCIe")}})
        _p2, inc, ref = self._diff(p, delta, full)
        assert inc.placement == ref.placement
        assert all(n == other for n in inc.placement.values())

    def test_poll_rate_bumped(self):
        # Poll bump overruns switch 1's PCIe.  Migrating to 2 is blocked
        # by the residue (SIV-B-a: the old copy polls at the *new* rate
        # during transfer), so both solvers must drop the task — the
        # differential point is that they agree.
        caps = {1: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0, "PCIe": 4.0},
                2: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0, "PCIe": 64.0}}
        p = make_problem([polled_seed("a", "t", (1, 2), inv_const=1.0)],
                         capacities=caps)
        full = solve_heuristic(p)
        assert full.placement == {"a": 1}  # sorted candidates, both fit
        bumped = (PollDemand(subject=frozenset({("port", "a")}),
                             inv_interval=LinPoly({}, 8.0)),)
        delta = ChurnDelta(poll_changes={"a": bumped})
        _p2, inc, ref = self._diff(p, delta, full)
        assert inc.placement == ref.placement == {}

    def test_poll_rate_relaxed_keeps_seed_home(self):
        # Dropping the poll rate leaves the incumbent spot optimal: the
        # incremental pass must keep the seed exactly where it was.
        caps = {n: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0,
                    "PCIe": 64.0 if n != 1 else 8.0}
                for n in range(1, 6)}
        p = make_problem([polled_seed("a", "t", (1, 2), inv_const=4.0),
                          const_seed("b", "u", (3,), 5.0),
                          const_seed("c", "v", (4,), 5.0),
                          const_seed("d", "w", (5,), 5.0)],
                         capacities=caps)
        full = solve_heuristic(p)
        relaxed = (PollDemand(subject=frozenset({("port", "a")}),
                              inv_interval=LinPoly({}, 1.0)),)
        delta = ChurnDelta(poll_changes={"a": relaxed})
        _p2, inc, ref = self._diff(p, delta, full)
        assert inc.placement == ref.placement == full.placement
        assert inc.info["incremental"] is True

    def test_seed_removed_matches_full(self):
        p = make_problem([const_seed("a", "t", (1, 2), 10.0),
                          const_seed("b", "u", (1, 2), 8.0),
                          const_seed("c", "v", (1, 2), 6.0)])
        full = solve_heuristic(p)
        _p2, inc, ref = self._diff(p, ChurnDelta(removed_seeds=("a",)), full)
        assert inc.placement == ref.placement
        assert "a" not in inc.placement

    def test_capacity_grow_attracts_migration(self):
        # b is squeezed to the low-value piece on 2; growing 1 lets the
        # migration pass move it next to a for full utility.
        caps = {1: {"vCPU": 1.0, "RAM": 8192.0, "TCAM": 512.0,
                    "PCIe": 1000.0},
                2: {"vCPU": 1.0, "RAM": 8192.0, "TCAM": 512.0,
                    "PCIe": 1000.0}}
        p = make_problem([linear_seed("a", "t", (1,), slope=10.0, floor=0.5),
                          linear_seed("b", "u", (1, 2), slope=10.0,
                                      floor=0.5)],
                         capacities=caps)
        full = solve_heuristic(p)
        delta = ChurnDelta(capacity_changes={1: {"vCPU": 8.0}})
        p2, inc, ref = self._diff(p, delta, full)
        assert inc.objective == pytest.approx(ref.objective)
        assert validate_solution(p2, ref) == []


class TestCanonicalSingleSwitchDeltas:
    """What a warm re-solve owes on a single-switch delta: a feasible,
    incremental answer within 1% of the full solve's utility for one LP
    per touched switch — the count form of "incremental is >= 10x faster
    than full" (throughput is farmbench ``placement_churn``)."""

    @pytest.fixture(scope="class")
    def world(self):
        problem = generate_problem(400, 60, num_tasks=10, seed=7)
        # Relaxed so that every seed places: neither solver is then
        # rescued by slack it created itself.
        for caps in problem.available.values():
            for resource in caps:
                caps[resource] *= 2.0
        incumbent = solve_heuristic(problem)
        return problem, incumbent, single_switch_deltas(problem, incumbent)

    @pytest.mark.parametrize("name, touched", [
        ("shrink", 1), ("grow", 1), ("task-add", 6), ("poll-bump", 1)])
    def test_resolve_pays_one_lp_per_touched_switch(self, world, name,
                                                    touched, monkeypatch):
        problem, incumbent, deltas = world
        solve_lp, calls = LinProgram.solve_lp, []

        def counted(lp, *args, **kwargs):
            calls.append(None)
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(LinProgram, "solve_lp", counted)
        churned = apply_delta(problem, deltas[name], incumbent=incumbent)
        full = solve_heuristic(churned)
        full_lps = len(calls)
        inc = solve_incremental(churned, incumbent, delta=deltas[name])
        assert validate_solution(churned, inc) == []
        assert inc.info["incremental"] is True
        assert "fallback" not in inc.info
        assert inc.objective >= 0.99 * full.objective
        assert len(calls) - full_lps == inc.info["touched_switches"] == touched
        assert full_lps >= 10 * touched


class TestFallback:
    def test_large_delta_falls_back_to_full(self):
        p = generate_problem(40, 8, seed=5)
        full = solve_heuristic(p)
        # Resize every switch: blast radius 100% of the fleet.
        delta = ChurnDelta(capacity_changes={
            n: {"vCPU": p.available[n]["vCPU"] * 0.9}
            for n in p.available})
        p2 = apply_delta(p, delta, incumbent=full)
        inc = solve_incremental(p2, full, delta=delta)
        ref = solve_heuristic(p2)
        assert inc.info["incremental"] is False
        assert inc.info["fallback"] in ("dirty-seeds", "dirty-switches")
        assert inc.placement == ref.placement
        assert inc.objective == pytest.approx(ref.objective)

    def test_zero_fallback_ratio_forces_full(self, monkeypatch):
        # A zero ratio makes any non-empty dirty set exceed the
        # blast-radius threshold.
        monkeypatch.setattr(incremental, "FALLBACK_RATIO", 0.0)
        p = make_problem([const_seed("a", "t", (1, 2), 10.0)])
        full = solve_heuristic(p)
        delta = ChurnDelta(capacity_changes={1: {"vCPU": 8.0}})
        p2 = apply_delta(p, delta, incumbent=full)
        inc = solve_incremental(p2, full, delta=delta)
        ref = solve_heuristic(p2)
        assert inc.info["incremental"] is False
        assert inc.info["fallback"] in ("dirty-seeds", "dirty-switches")
        assert inc.placement == ref.placement

    def test_eviction_falls_back_instead_of_dropping_task(self, monkeypatch):
        # Shrinking 1 below a's footprint with nowhere to go would force
        # the incremental pass to drop task t; it must escalate instead.
        # A ratio of 1.0 disables the blast-radius pre-checks, so the
        # eviction escalation itself is what fires.
        monkeypatch.setattr(incremental, "FALLBACK_RATIO", 1.0)
        caps = {1: {"vCPU": 4.0, "RAM": 8192.0, "TCAM": 512.0,
                    "PCIe": 1000.0}}
        p = make_problem([const_seed("a", "t", (1,), 10.0, floor=2.0)],
                         capacities=caps)
        full = solve_heuristic(p)
        delta = ChurnDelta(capacity_changes={1: {"vCPU": 1.0}})
        p2 = apply_delta(p, delta, incumbent=full)
        inc = solve_incremental(p2, full, delta=delta)
        ref = solve_heuristic(p2)
        assert inc.info["fallback"] == "eviction"
        assert inc.placement == ref.placement


class TestDeterminism:
    """Same RNG seed + same delta sequence => bit-identical solutions."""

    DELTAS = (
        ChurnDelta(capacity_changes={2: {"vCPU": 2.0}}),
        ChurnDelta(removed_seeds=("heavy_hitter#0/s0",)),
        ChurnDelta(capacity_changes={5: {"vCPU": 16.0}}),
    )

    def _run_sequence(self, solver):
        problem = generate_problem(40, 8, seed=21)
        incumbent = solve_heuristic(problem)
        trace = [(dict(incumbent.placement),
                  {k: dict(v) for k, v in incumbent.allocations.items()},
                  incumbent.objective)]
        for delta in self.DELTAS:
            problem = apply_delta(problem, delta, incumbent=incumbent)
            if solver == "incremental":
                incumbent = solve_incremental(problem, incumbent,
                                              delta=delta)
            else:
                incumbent = solve_heuristic(problem)
            trace.append((dict(incumbent.placement),
                          {k: dict(v)
                           for k, v in incumbent.allocations.items()},
                          incumbent.objective))
        return trace

    @pytest.mark.parametrize("solver", ["full", "incremental"])
    def test_bit_identical_across_runs(self, solver):
        first = self._run_sequence(solver)
        second = self._run_sequence(solver)
        assert first == second
