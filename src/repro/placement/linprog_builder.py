"""A small LP/MILP builder on top of scipy (HiGHS).

Replaces the paper's Gurobi / rust ``lp-modeler`` dependencies.  Both the
MILP solver and the heuristic's LP redistribution phase express their
models through this builder; variables are plain column indices, and it
hands one CSR matrix of two-sided rows to HiGHS through
:func:`scipy.optimize.milp`, with integrality for the MILP and without it
for the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

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

    Variables are column indices, numbered in ``add_var`` order; callers
    keep their own maps from what a column means to its index.
    """

    def __init__(self, maximize: bool = True) -> None:
        self.maximize = maximize
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._integer: List[bool] = []
        self._objective: Dict[int, float] = {}
        # Constraint rows as (coeff dict, lb, ub)
        self._rows: List[Tuple[Dict[int, float], float, float]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self._lb)

    def add_var(self, lb: float = 0.0, ub: float = INF,
                integer: bool = False) -> int:
        index = len(self._lb)
        self._lb.append(lb)
        self._ub.append(ub)
        self._integer.append(integer)
        return index

    def add_binary(self) -> int:
        return self.add_var(0.0, 1.0, integer=True)

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
        """Cost vector and the rows as one CSR ``LinearConstraint``."""
        c = self._cost()
        if not self._rows:
            return c, None
        data: List[float] = []
        indices: List[int] = []
        indptr = [0]
        for coeffs, _lb, _ub in self._rows:
            indices.extend(coeffs)
            data.extend(coeffs.values())
            indptr.append(len(indices))
        a_matrix = sparse.csr_matrix((data, indices, indptr),
                                     shape=(len(self._rows), self.num_vars))
        return c, LinearConstraint(
            a_matrix, np.array([lb for _coeffs, lb, _ub in self._rows]),
            np.array([ub for _coeffs, _lb, ub in self._rows]))

    def _solve(self, integrality: Optional[np.ndarray],
               options: Dict[str, object]) -> SolveResult:
        if self.num_vars == 0:
            return SolveResult("optimal", 0.0, np.zeros(0))
        c, constraint = self._matrices()
        result = milp(c=c, constraints=constraint, integrality=integrality,
                      bounds=Bounds(np.array(self._lb), np.array(self._ub)),
                      options=options)
        return self._interpret(result, c)

    def solve_milp(self, time_limit_s: Optional[float] = None,
                   mip_rel_gap: float = 1e-4) -> SolveResult:
        """Solve as a MILP via HiGHS branch-and-bound."""
        options: Dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit_s is not None:
            options["time_limit"] = float(time_limit_s)
        return self._solve(np.array(self._integer, dtype=np.uint8), options)

    def solve_lp(self) -> SolveResult:
        """Solve the LP relaxation (integrality dropped) via HiGHS."""
        return self._solve(None, {})

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
