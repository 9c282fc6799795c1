"""Canonical allocations: a seed's allocation is set by a stated rule, not
by which vertex HiGHS lands on.

After the Σu LP, each seed is trimmed to what its achieved utility needs
(``heuristic._trimmed``).  That makes every block's answer unique, which
is what lets a pass stack its per-switch LPs into a few programs and
skip untouched switches.  The differentials here pin that down: the
order residents were committed in, the number of blocks per program and
a second-stage LP oracle must all agree with the solve, ``==``.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.almanac.compiler import compile_machine
from repro.almanac.parser import parse
from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.errors import AlmanacAnalysisError
from repro.placement import heuristic
from repro.placement.heuristic import HeuristicPlacementSolver
from repro.placement.instances import generate_problem
from repro.placement.linprog_builder import LinProgram
from repro.placement.model import SeedSpec, validate_solution
from repro.tasks import TASK_REGISTRY
from tests.placement.test_solvers import const_seed, linear_seed, make_problem
from tests.tasks.test_task_library import SingleSwitchController

instances = st.tuples(
    st.integers(0, 10_000),          # generator seed
    st.integers(20, 300),            # seeds
    st.integers(4, 60),              # switches
    st.integers(1, 10),              # tasks
    st.sampled_from([0.0, 0.3]))     # previous_fraction


def build(instance):
    rng_seed, seeds, switches, tasks, previous = instance
    return generate_problem(seeds, switches, num_tasks=tasks, seed=rng_seed,
                            previous_fraction=previous)


def outcome(solution):
    return solution.placement, solution.allocations, solution.objective


class TestDifferentials:
    @settings(max_examples=12, deadline=None)
    @given(instances, st.integers(0, 2**32 - 1))
    def test_shuffled_residents_give_equal_allocations(self, instance,
                                                       shuffle_seed):
        rng = random.Random(shuffle_seed)

        class Shuffled(HeuristicPlacementSolver):
            def redistribute(self):
                for state in self.states.values():
                    rng.shuffle(state.residents)
                super().redistribute()

        problem = build(instance)
        assert outcome(Shuffled(problem).solve()) \
            == outcome(HeuristicPlacementSolver(problem).solve())

    @settings(max_examples=12, deadline=None)
    @given(instances)
    def test_blocks_per_program_does_not_move_allocations(self, instance):
        problem = build(instance)
        default = outcome(HeuristicPlacementSolver(problem).solve())
        for blocks in (1, 10**9):
            with mock.patch.object(heuristic, "_BLOCKS_PER_PROGRAM", blocks):
                assert outcome(HeuristicPlacementSolver(problem).solve()) \
                    == default

    @settings(max_examples=12, deadline=None)
    @given(instances)
    def test_trim_matches_the_second_stage_lp(self, instance):
        """The trim is the unique minimiser of Σ res/cap subject to every
        seed keeping its achieved utility, switch by switch."""
        solver = HeuristicPlacementSolver(build(instance))
        solution = solver.solve()
        for state in solver.states.values():
            if state.residents:
                oracle = second_stage(solver, state, solution.allocations)
                for sid, alloc in oracle.items():
                    for r, amount in alloc.items():
                        assert abs(solution.allocations[sid][r] - amount) \
                            <= 1e-12, (sid, r)


def second_stage(solver, state, allocations):
    """Minimise Σ res/cap over ``state``'s block with each resident's
    utility terms held at or above what ``allocations`` achieves."""
    problem = solver.problem
    residents = sorted(state.residents)
    types = problem.resource_types
    column = {(sid, r): i for i, (sid, r) in enumerate(
        (sid, r) for sid in residents for r in types)}
    num_res = len(column)
    subjects = sorted({d.subject for sid in residents
                       for d in solver._seed_by_id[sid].poll_demands},
                      key=sorted)
    poll_col = {s: num_res + i for i, s in enumerate(subjects)}
    width = num_res + len(subjects)
    rows, rhs = [], []

    def at_least(coeffs, bound):  # Σ coeffs·x >= bound, as A_ub row
        row = np.zeros(width)
        for i, c in coeffs.items():
            row[i] -= c
        rows.append(row)
        rhs.append(-bound)

    for sid in residents:
        seed = solver._seed_by_id[sid]
        piece = seed.utility.pieces[solver.piece_choice[sid]]
        env = {r: allocations[sid].get(r, 0.0) for r in types}
        achieved = piece.utility.evaluate(env)
        for poly in piece.constraints:
            at_least({column[(sid, v)]: c for v, c in poly.coeffs.items()},
                     -poly.const)
        for term in piece.utility.terms:
            at_least({column[(sid, v)]: c for v, c in term.coeffs.items()},
                     achieved - term.const)
        for demand in seed.poll_demands:
            scale = problem.alpha(state.switch) * demand.weight
            coeffs = {poll_col[demand.subject]: 1.0}
            for v, c in demand.inv_interval.coeffs.items():
                coeffs[column[(sid, v)]] = -scale * c
            at_least(coeffs, scale * demand.inv_interval.const)
    for r in types:
        if r != problem.r_poll:
            at_least({column[(sid, r)]: 1.0 for sid in residents},
                     -max(0.0, state.capacity.get(r, 0.0)
                          - state.residue.get(r, 0.0)))
    if subjects:
        cap = state.capacity.get(problem.r_poll, 0.0) - sum(
            state.residue_poll.values())
        at_least({i: 1.0 for i in poll_col.values()}, -max(cap, 0.0))
    cost = np.zeros(width)
    for (sid, r), i in column.items():
        cost[i] = 1.0 / max(state.capacity.get(r, 0.0), 1.0)
    bounds = [(0.0, state.capacity.get(r, 0.0)) for _sid in residents
              for r in types] + [(0.0, None)] * len(subjects)
    result = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                     bounds=bounds, method="highs")
    assert result.status == 0, result.message
    return {sid: {r: float(result.x[column[(sid, r)]]) for r in types}
            for sid in residents}


class TestTrimScope:
    @pytest.mark.parametrize("name", sorted(TASK_REGISTRY))
    def test_library_tasks_use_single_resource_rows(self, name):
        """Every utility in the library is one the trim fully covers: its
        floors and utility terms name one resource each, and no poll rate
        falls as a resource grows."""
        task = TASK_REGISTRY[name]()
        program = parse(task.source)
        for config in task.machines:
            blueprint = compile_machine(program, config.machine_name,
                                        SingleSwitchController(),
                                        externals=config.externals)
            for utility in blueprint.state_utilities.values():
                for piece in utility.pieces:
                    for poly in (*piece.constraints, *piece.utility.terms):
                        assert len(poly.coeffs) <= 1, (name, poly)
            for info in blueprint.poll_vars:
                if info.kind == "time":
                    continue
                try:
                    inverse = info.ival.inverse_linear()
                except AlmanacAnalysisError:
                    continue  # pinned to a constant rate by the seeder
                assert all(c >= 0 for c in inverse.coeffs.values())

    def test_a_multi_resource_row_pins_its_resources(self):
        """A resource named by a multi-resource row keeps its LP value;
        the seed is still placed validly, and its single-resource slack
        (TCAM here) is trimmed."""
        coupled = SeedSpec(
            seed_id="coupled", task_id="t", candidates=(1,),
            utility=PiecewiseUtility([UtilityPiece(
                constraints=(LinPoly({"vCPU": 1.0, "RAM": -0.001}, 0.0),
                             LinPoly({"vCPU": 1.0}, -0.5),
                             LinPoly({"RAM": 1.0}, -64.0)),
                utility=ConcaveUtility((
                    LinPoly({"vCPU": 10.0, "PCIe": 0.01}),
                    LinPoly({"TCAM": 1.0}, 5.0))))]))
        problem = make_problem(
            [coupled, linear_seed("lin", "u", (1,), slope=7.0),
             const_seed("flat", "v", (1,), 3.0)])
        solution = HeuristicPlacementSolver(problem).solve()
        assert validate_solution(problem, solution) == []
        assert set(solution.placement) == {"coupled", "lin", "flat"}
        with mock.patch.object(heuristic, "_trimmed",
                               lambda seed, piece, alloc: alloc):
            untrimmed = HeuristicPlacementSolver(problem).solve()
        alloc, lp = (solution.allocations["coupled"],
                     untrimmed.allocations["coupled"])
        assert [alloc[r] for r in ("vCPU", "RAM", "PCIe")] \
            == [lp[r] for r in ("vCPU", "RAM", "PCIe")]
        assert alloc["vCPU"] >= 0.001 * alloc["RAM"] - 1e-9
        achieved = problem.seed("coupled").utility.evaluate(alloc)
        assert achieved == untrimmed.objective - 3.0 - problem.seed(
            "lin").utility.evaluate(untrimmed.allocations["lin"])
        assert alloc["TCAM"] == pytest.approx(max(0.0, achieved - 5.0),
                                              abs=1e-12)
        assert solution.allocations["flat"]["vCPU"] == 1.0


class TestFailingProgram:
    def test_one_infeasible_block_costs_only_itself(self):
        """A stacked program that fails is re-solved one block per
        program; the feasible blocks get what they get alone, and the
        infeasible one keeps its minimal allocations."""
        problem = generate_problem(120, 12, num_tasks=4, seed=5)
        programs = []

        class Counting(HeuristicPlacementSolver):
            def _solve_blocks(self, states):
                programs.append([s.switch for s in states])
                super()._solve_blocks(states)

        def greedy(cls):
            solver = cls(problem)
            solver.greedy_place()
            return solver

        broken = greedy(Counting)
        resident = sorted(n for n, s in broken.states.items()
                          if s.residents)
        bad = resident[1]
        # Residue eating the whole switch leaves no vCPU for the floors.
        broken.states[bad].residue["vCPU"] = \
            broken.states[bad].capacity["vCPU"]
        minimal = {sid: dict(broken.allocations[sid])
                   for sid in broken.states[bad].residents}
        broken.redistribute()
        assert programs == [resident] + [[n] for n in resident]
        assert {sid: broken.allocations[sid] for sid in minimal} == minimal

        reference = greedy(HeuristicPlacementSolver)
        reference.touched.discard(bad)
        reference.redistribute()
        assert broken.allocations == reference.allocations

    def test_a_lone_failing_block_is_not_retried(self, monkeypatch):
        solver = HeuristicPlacementSolver(
            generate_problem(30, 4, num_tasks=2, seed=1))
        solver.greedy_place()
        calls = []
        solve_lp = LinProgram.solve_lp

        def failing(lp):
            calls.append(lp.num_vars)
            result = solve_lp(lp)
            result.values = None
            return result

        monkeypatch.setattr(LinProgram, "solve_lp", failing)
        before = {sid: dict(a) for sid, a in solver.allocations.items()}
        state = next(s for s in solver.states.values() if s.residents)
        solver._solve_blocks([state])
        assert len(calls) == 1
        assert solver.allocations == before
