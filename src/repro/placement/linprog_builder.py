"""A small LP/MILP builder on top of scipy (HiGHS).

Replaces the paper's Gurobi / rust ``lp-modeler`` dependencies.  Both the
MILP solver and the heuristic's LP redistribution phase express their
models through this builder; it keeps variable bookkeeping by name and
hands scipy sparse matrices to HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, linprog, milp

from repro.errors import PlacementError

INF = float("inf")


@dataclass
class SolveResult:
    """Uniform solver outcome."""

    status: str  # "optimal" | "feasible" | "infeasible" | "timeout" | "error"
    objective: float
    values: Optional[np.ndarray]
    message: str = ""

    @property
    def usable(self) -> bool:
        return self.values is not None

    def value(self, index: int) -> float:
        if self.values is None:
            raise PlacementError("no solution values available")
        return float(self.values[index])


class LinProgram:
    """Incrementally-built linear (or mixed-integer) program.

    Variables are referenced by integer index; ``name_index`` provides
    lookup by name for diagnostics and solution extraction.
    """

    def __init__(self, maximize: bool = True) -> None:
        self.maximize = maximize
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._integer: List[bool] = []
        self._names: List[str] = []
        self.name_index: Dict[str, int] = {}
        self._objective: Dict[int, float] = {}
        # Constraint rows as (coeff dict, lb, ub)
        self._rows: List[Tuple[Dict[int, float], float, float]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self._names)

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                integer: bool = False) -> int:
        if name in self.name_index:
            raise PlacementError(f"duplicate variable {name!r}")
        index = len(self._names)
        self._names.append(name)
        self.name_index[name] = index
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        return index

    def add_binary(self, name: str) -> int:
        return self.add_var(name, 0.0, 1.0, integer=True)

    def add_constraint(self, coeffs: Mapping[int, float],
                       lb: float = -INF, ub: float = INF) -> None:
        """``lb <= sum(coeffs[i] * x_i) <= ub``"""
        clean = {i: float(c) for i, c in coeffs.items() if c != 0.0}
        self._rows.append((clean, lb, ub))

    def add_objective_term(self, index: int, coeff: float) -> None:
        self._objective[index] = self._objective.get(index, 0.0) + coeff

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _cost(self) -> np.ndarray:
        """Objective vector in HiGHS's minimizing orientation."""
        c = np.zeros(self.num_vars)
        for index, coeff in self._objective.items():
            c[index] = coeff
        return -c if self.maximize else c

    def _matrices(self):
        n = self.num_vars
        c = self._cost()
        if self._rows:
            data, rows, cols = [], [], []
            lbs, ubs = [], []
            for row_index, (coeffs, lb, ub) in enumerate(self._rows):
                for col, coeff in coeffs.items():
                    rows.append(row_index)
                    cols.append(col)
                    data.append(coeff)
                lbs.append(lb)
                ubs.append(ub)
            a_matrix = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(self._rows), n))
            constraint = LinearConstraint(a_matrix, np.array(lbs),
                                          np.array(ubs))
        else:
            constraint = None
        return c, constraint

    def _lp_matrices(self):
        """``(A_ub, b_ub, A_eq, b_eq)`` as :func:`linprog` wants them.

        ``lb == ub`` is an equality row; otherwise a finite ``ub`` gives
        the row as is and a finite ``lb`` the negated row, in that order.
        A side with no rows is ``None``.
        """
        ub_rows: List[Tuple[Dict[int, float], float, float]] = []
        eq_rows: List[Tuple[Dict[int, float], float, float]] = []
        for coeffs, lb, ub in self._rows:
            if lb == ub:
                eq_rows.append((coeffs, 1.0, lb))
                continue
            if ub < INF:
                ub_rows.append((coeffs, 1.0, ub))
            if lb > -INF:
                ub_rows.append((coeffs, -1.0, -lb))
        return (_stack_rows(ub_rows, self.num_vars)
                + _stack_rows(eq_rows, self.num_vars))

    def solve_milp(self, time_limit_s: Optional[float] = None,
                   mip_rel_gap: float = 1e-4) -> SolveResult:
        """Solve as a MILP via HiGHS branch-and-bound."""
        if self.num_vars == 0:
            return SolveResult("optimal", 0.0, np.zeros(0))
        c, constraint = self._matrices()
        options: Dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit_s is not None:
            options["time_limit"] = float(time_limit_s)
        result = milp(
            c=c,
            constraints=constraint,
            integrality=np.array([1 if f else 0 for f in self._integer]),
            bounds=_bounds_from(self._lb, self._ub),
            options=options,
        )
        return self._interpret(result, c)

    def solve_lp(self, time_limit_s: Optional[float] = None) -> SolveResult:
        """Solve the LP relaxation (integrality dropped) via HiGHS."""
        if self.num_vars == 0:
            return SolveResult("optimal", 0.0, np.zeros(0))
        c = self._cost()
        a_ub, b_ub, a_eq, b_eq = self._lp_matrices()
        options = {}
        if time_limit_s is not None:
            options["time_limit"] = float(time_limit_s)
        result = linprog(
            c=c,
            A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=list(zip(self._lb, [u if u < INF else None
                                       for u in self._ub])),
            method="highs",
            options=options,
        )
        return self._interpret(result, c)

    def _interpret(self, result, c: np.ndarray) -> SolveResult:
        status_map = {0: "optimal", 1: "timeout", 2: "infeasible",
                      3: "unbounded", 4: "error"}
        status = status_map.get(getattr(result, "status", 4), "error")
        if result.x is not None:
            objective = float(np.dot(c, result.x))
            if self.maximize:
                objective = -objective
            if status == "timeout":
                status = "feasible"
            return SolveResult(status, objective, np.asarray(result.x),
                               message=str(getattr(result, "message", "")))
        return SolveResult(status, float("nan"), None,
                           message=str(getattr(result, "message", "")))


def _stack_rows(rows: List[Tuple[Dict[int, float], float, float]],
                num_vars: int):
    """CSR matrix and right-hand side of ``(coeffs, sign, rhs)`` rows."""
    if not rows:
        return None, None
    data: List[float] = []
    indices: List[int] = []
    indptr = [0]
    for coeffs, sign, _rhs in rows:
        indices.extend(coeffs)
        data.extend(sign * coeff for coeff in coeffs.values())
        indptr.append(len(indices))
    return (sparse.csr_matrix((data, indices, indptr),
                              shape=(len(rows), num_vars)),
            np.array([rhs for _coeffs, _sign, rhs in rows]))


def _bounds_from(lbs: List[float], ubs: List[float]):
    from scipy.optimize import Bounds
    return Bounds(np.array(lbs), np.array(ubs))
