"""Direct tests for the LP/MILP builder over HiGHS."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import PlacementError
from repro.placement.linprog_builder import INF, LinProgram


def split_rows_via_csr(lp):
    """The row splitting ``solve_lp`` used to do: CSR -> getrow -> vstack.

    Kept as the oracle for ``LinProgram._lp_matrices``: same rows in the
    same order is what keeps HiGHS on the same vertex.
    """
    _c, constraint = lp._matrices()
    a_ub_rows, b_ub, a_eq_rows, b_eq = [], [], [], []
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
    def test_duplicate_variable_rejected(self):
        lp = LinProgram()
        lp.add_var("x")
        with pytest.raises(PlacementError):
            lp.add_var("x")

    def test_name_index_lookup(self):
        lp = LinProgram()
        x = lp.add_var("x")
        assert lp.name_index["x"] == x
        assert lp.num_vars == 1
        lp.add_constraint({x: 1.0}, ub=5.0)


class TestLpSolving:
    def test_simple_maximization(self):
        # max x + 2y s.t. x + y <= 4, x <= 3, y <= 2
        lp = LinProgram(maximize=True)
        x = lp.add_var("x", ub=3.0)
        y = lp.add_var("y", ub=2.0)
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
        x = lp.add_var("x", lb=1.0)
        lp.add_objective_term(x, 3.0)
        result = lp.solve_lp()
        assert result.objective == pytest.approx(3.0)

    def test_equality_constraint(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var("x", ub=10.0)
        y = lp.add_var("y", ub=10.0)
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, lb=5.0, ub=5.0)
        result = lp.solve_lp()
        assert result.value(x) + result.value(y) == pytest.approx(5.0)

    def test_infeasible_reported(self):
        lp = LinProgram()
        x = lp.add_var("x", ub=1.0)
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


class TestLpMatrices:
    def test_mixed_rows_match_the_csr_row_splitting(self):
        lp = LinProgram(maximize=True)
        x, y, z = (lp.add_var(name, ub=10.0) for name in "xyz")
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({z: 2.0, x: 1.0}, ub=8.0)          # ub only
        lp.add_constraint({y: 1.0, x: -0.5}, lb=1.0)         # lb only
        lp.add_constraint({x: 1.0, y: 1.0, z: 1.0}, lb=2.0, ub=9.0)
        lp.add_constraint({y: 3.0, z: -1.0}, lb=4.0, ub=4.0)  # equality
        lp.add_constraint({}, ub=1.0)                         # empty row
        lp.add_constraint({x: 1.0}, lb=-INF, ub=INF)          # free row
        a_ub, b_ub, a_eq, b_eq = lp._lp_matrices()
        ref_ub, ref_b_ub, ref_eq, ref_b_eq = split_rows_via_csr(lp)
        assert np.array_equal(a_ub.toarray(), ref_ub.toarray())
        assert np.array_equal(a_eq.toarray(), ref_eq.toarray())
        assert b_ub.tolist() == ref_b_ub == [8.0, -1.0, 9.0, -2.0, 1.0]
        assert b_eq.tolist() == ref_b_eq == [4.0]
        assert a_ub.toarray().tolist() == [
            [1.0, 0.0, 2.0], [0.5, -1.0, 0.0], [1.0, 1.0, 1.0],
            [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0]]
        assert lp.solve_lp().status == "optimal"

    def test_all_equality_program_solves(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var("x", ub=10.0)
        y = lp.add_var("y", ub=10.0)
        lp.add_objective_term(x, 1.0)
        lp.add_constraint({x: 1.0, y: 1.0}, lb=5.0, ub=5.0)
        lp.add_constraint({x: 1.0, y: -1.0}, lb=1.0, ub=1.0)
        a_ub, b_ub, a_eq, b_eq = lp._lp_matrices()
        assert a_ub is None and b_ub is None
        assert a_eq.shape == (2, 2) and b_eq.tolist() == [5.0, 1.0]
        result = lp.solve_lp()
        assert result.value(x) == pytest.approx(3.0)
        assert result.value(y) == pytest.approx(2.0)

    def test_program_without_constraints_solves(self):
        lp = LinProgram(maximize=True)
        x = lp.add_var("x", ub=2.5)
        lp.add_objective_term(x, 2.0)
        assert lp._lp_matrices() == (None, None, None, None)
        assert lp.solve_lp().objective == pytest.approx(5.0)


class TestMilpSolving:
    def test_knapsack(self):
        # values 6, 5, 4; weights 3, 2, 2; capacity 4 -> pick items 2+3.
        lp = LinProgram(maximize=True)
        items = [lp.add_binary(f"i{k}") for k in range(3)]
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
        x = lp.add_var("x", ub=2.5, integer=True)
        lp.add_objective_term(x, 1.0)
        result = lp.solve_milp()
        assert result.value(x) == pytest.approx(2.0)

    def test_mixed_integer_and_continuous(self):
        lp = LinProgram(maximize=True)
        plc = lp.add_binary("plc")
        res = lp.add_var("res", ub=4.0)
        lp.add_objective_term(res, 1.0)
        # res <= 4 * plc; plc costs 3 in the shared budget of 1 -> plc=0?
        lp.add_constraint({res: 1.0, plc: -4.0}, ub=0.0)
        result = lp.solve_milp()
        assert result.objective == pytest.approx(4.0)
        assert result.value(plc) == pytest.approx(1.0)

    def test_time_limit_accepted(self):
        lp = LinProgram(maximize=True)
        x = lp.add_binary("x")
        lp.add_objective_term(x, 1.0)
        result = lp.solve_milp(time_limit_s=0.5)
        assert result.usable
