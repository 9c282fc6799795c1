"""Direct tests for the LP/MILP builder over HiGHS."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.errors import PlacementError
from repro.placement.heuristic import HeuristicPlacementSolver, solve_heuristic
from repro.placement.instances import generate_problem
from repro.placement.linprog_builder import INF, LinProgram

SOLVE_LP = LinProgram.solve_lp  # unpatched, for the hook test below


def split_rows_via_csr(lp):
    """The row splitting ``scipy.optimize.linprog`` needs: CSR -> getrow
    -> vstack, a finite ``ub`` as the row, a finite ``lb`` as the negated
    row, ``lb == ub`` as an equality row."""
    _c, constraint = lp._matrices()
    a_ub_rows, b_ub, a_eq_rows, b_eq = [], [], [], []
    if constraint is None:
        return None, b_ub, None, b_eq
    matrix = constraint.A.tocsr()
    for i in range(matrix.shape[0]):
        row = matrix.getrow(i)
        lb, ub = constraint.lb[i], constraint.ub[i]
        if lb == ub:
            a_eq_rows.append(row)
            b_eq.append(lb)
        else:
            if ub < INF:
                a_ub_rows.append(row)
                b_ub.append(ub)
            if lb > -INF:
                a_ub_rows.append(-row)
                b_ub.append(-lb)
    return (sparse.vstack(a_ub_rows) if a_ub_rows else None, b_ub,
            sparse.vstack(a_eq_rows) if a_eq_rows else None, b_eq)


class TestConstruction:
    def test_add_var_returns_consecutive_indices(self):
        lp = LinProgram()
        assert [lp.add_var(), lp.add_binary(), lp.add_var(ub=2.0)] \
            == [0, 1, 2]
        assert lp.num_vars == 3
        assert (lp._lb, lp._ub, lp._integer) == (
            [0.0, 0.0, 0.0], [INF, 1.0, 2.0], [False, True, False])


class TestLpSolving:
    def test_simple_maximization(self):
        # max x + 2y s.t. x + y <= 4, x <= 3, y <= 2
        lp = LinProgram(maximize=True)
        x = lp.add_var(ub=3.0)
        y = lp.add_var(ub=2.0)
        lp.add_objective_term(x, 1.0)
        lp.add_objective_term(y, 2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, ub=4.0)
        result = lp.solve_lp()
        assert result.status == "optimal"
        assert result.objective == pytest.approx(6.0)
        assert result.value(x) == pytest.approx(2.0)
        assert result.value(y) == pytest.approx(2.0)

    def test_minimization(self):
        lp = LinProgram(maximize=False)
        x = lp.add_var(lb=1.0)
        lp.add_objective_term(x, 3.0)
        result = lp.solve_lp()
        assert result.objective == pytest.approx(3.0)

    def test_equality_constraint(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var(ub=10.0)
        y = lp.add_var(ub=10.0)
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, lb=5.0, ub=5.0)
        result = lp.solve_lp()
        assert result.value(x) + result.value(y) == pytest.approx(5.0)

    def test_infeasible_reported(self):
        lp = LinProgram()
        x = lp.add_var(ub=1.0)
        lp.add_constraint({x: 1.0}, lb=5.0)
        result = lp.solve_lp()
        assert result.status == "infeasible"
        assert not result.usable
        with pytest.raises(PlacementError):
            result.value(x)

    def test_empty_program(self):
        result = LinProgram().solve_lp()
        assert result.status == "optimal"
        assert result.objective == 0.0


def solve_via_linprog(lp):
    """The oracle: the same program through ``linprog`` on split rows."""
    a_ub, b_ub, a_eq, b_eq = split_rows_via_csr(lp)
    c = lp._cost()
    result = linprog(c, A_ub=a_ub, b_ub=b_ub or None, A_eq=a_eq,
                     b_eq=b_eq or None,
                     bounds=list(zip(lp._lb, [u if u < INF else None
                                              for u in lp._ub])),
                     method="highs")
    return lp._interpret(result, c)


def assert_same_as_linprog(lp):
    """``solve_lp`` lands on exactly ``linprog``'s answer, not near it:
    the heuristic's allocations, hence every digest, rest on the vertex."""
    got, ref = SOLVE_LP(lp), solve_via_linprog(lp)
    assert got.status == ref.status
    assert (got.values is None) == (ref.values is None)
    if ref.values is not None:
        assert np.array_equal(got.values, ref.values)
        assert got.objective == ref.objective
    else:
        assert math.isnan(got.objective) and math.isnan(ref.objective)
    return got


class TestSolveLpMatchesLinprog:
    def test_mixed_rows(self):
        lp = LinProgram(maximize=True)
        x, y, z = (lp.add_var(ub=10.0) for _ in range(3))
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({z: 2.0, x: 1.0}, ub=8.0)          # ub only
        lp.add_constraint({y: 1.0, x: -0.5}, lb=1.0)         # lb only
        lp.add_constraint({x: 1.0, y: 1.0, z: 1.0}, lb=2.0, ub=9.0)
        lp.add_constraint({y: 3.0, z: -1.0}, lb=4.0, ub=4.0)  # equality
        lp.add_constraint({}, ub=1.0)                         # empty row
        lp.add_constraint({x: 1.0}, lb=-INF, ub=INF)          # free row
        assert assert_same_as_linprog(lp).status == "optimal"

    def test_all_equality_program(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var(ub=10.0)
        y = lp.add_var(ub=10.0)
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, lb=5.0, ub=5.0)
        lp.add_constraint({x: 1.0, y: -1.0}, lb=1.0, ub=1.0)
        result = assert_same_as_linprog(lp)
        assert result.value(x) == pytest.approx(3.0)
        assert result.value(y) == pytest.approx(2.0)

    def test_program_without_constraints(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var(ub=2.5)
        lp.add_objective_term(x, 2.0)
        assert lp._matrices()[1] is None
        assert assert_same_as_linprog(lp).objective == pytest.approx(5.0)

    def test_unbounded_program(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var()
        y = lp.add_var(ub=1.0)
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({x: 1.0, y: -1.0}, lb=0.0)
        assert assert_same_as_linprog(lp).status == "unbounded"

    @pytest.mark.parametrize("size", [(120, 30, 4, 1), (400, 100, 8, 11)],
                             ids=["fig7-smoke", "400-100-11"])
    def test_every_per_switch_lp_of_a_heuristic_solve(self, size,
                                                      monkeypatch):
        checked, blocks = [], []
        add_block = HeuristicPlacementSolver._add_block

        def both_ways(lp):
            result = assert_same_as_linprog(lp)
            checked.append(result.status)
            return result

        def counted(solver, lp, state):
            blocks.append(state.switch)
            return add_block(solver, lp, state)

        monkeypatch.setattr(LinProgram, "solve_lp", both_ways)
        monkeypatch.setattr(HeuristicPlacementSolver, "_add_block", counted)
        seeds, switches, tasks, seed = size
        solve_heuristic(generate_problem(seeds, switches, num_tasks=tasks,
                                         seed=seed))
        # Every per-switch LP is a block of a checked program, and the
        # programs stack them: fewer programs than blocks.
        assert len(blocks) >= switches
        assert 0 < len(checked) < len(blocks)
        assert set(checked) == {"optimal"}


class TestMilpSolving:
    def test_knapsack(self):
        # values 6, 5, 4; weights 3, 2, 2; capacity 4 -> pick items 2+3.
        lp = LinProgram(maximize=True)
        items = [lp.add_binary() for _ in range(3)]
        for index, value in zip(items, (6.0, 5.0, 4.0)):
            lp.add_objective_term(index, value)
        lp.add_constraint({items[0]: 3.0, items[1]: 2.0, items[2]: 2.0},
                          ub=4.0)
        result = lp.solve_milp()
        assert result.status == "optimal"
        assert result.objective == pytest.approx(9.0)
        assert [round(result.value(i)) for i in items] == [0, 1, 1]

    def test_integrality_respected(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var(ub=2.5, integer=True)
        lp.add_objective_term(x, 1.0)
        result = lp.solve_milp()
        assert result.value(x) == pytest.approx(2.0)

    def test_mixed_integer_and_continuous(self):
        lp = LinProgram(maximize=True)
        plc = lp.add_binary()
        res = lp.add_var(ub=4.0)
        lp.add_objective_term(res, 1.0)
        # res <= 4 * plc; plc costs 3 in the shared budget of 1 -> plc=0?
        lp.add_constraint({res: 1.0, plc: -4.0}, ub=0.0)
        result = lp.solve_milp()
        assert result.objective == pytest.approx(4.0)
        assert result.value(plc) == pytest.approx(1.0)

    def test_time_limit_accepted(self):
        lp = LinProgram(maximize=True)
        x = lp.add_binary()
        lp.add_objective_term(x, 1.0)
        result = lp.solve_milp(time_limit_s=0.5)
        assert result.usable
