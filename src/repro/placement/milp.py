"""Exact MILP formulation of the seed-placement problem (SIV-D).

This is the "Gurobi" side of Fig. 7, realized with HiGHS branch-and-bound
(:func:`scipy.optimize.milp`).  The formulation follows the paper,
including the linearization trick: a term ``plc(s,n) * f(res(s,n,r_i))``
with linear ``f`` is rewritten using (C3) (``plc = 0`` forces ``res = 0``)
as ``f(res) - (1 - plc) * f(0)``.

Variables
---------
``plc[s,n,k]``   binary: seed ``s`` on switch ``n`` using utility piece ``k``
``tplc[t]``      binary: task ``t`` fully placed (C1)
``res[s,n,r]``   continuous allocation
``u[s,n,k]``     epigraph variable for the concave (min-of-linear) utility
``pollres[n,p]`` aggregated polling demand per subject (SIV-B-b)
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.almanac.poly import LinPoly
from repro.errors import PlacementError
from repro.placement.linprog_builder import INF, LinProgram
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    compute_objective,
    validate_solution,
)


def _poly_row(poly: LinPoly, res_index: Dict[str, int]) -> Dict[int, float]:
    """Coefficient row of a LinPoly over this seed-at-switch's res vars."""
    row: Dict[int, float] = {}
    for var, coeff in poly.coeffs.items():
        try:
            row[res_index[var]] = row.get(res_index[var], 0.0) + coeff
        except KeyError:
            raise PlacementError(
                f"utility references unknown resource {var!r}") from None
    return row


def _lift_onto_piece(piece, alloc: Dict[str, float]) -> None:
    """Raise ``alloc`` onto the constraints of ``piece`` it falls short of.

    "Optimal" holds up to HiGHS's integrality tolerance: a binary at
    ``1 - 1e-7`` lets its big-M row leak the piece's floor (C2) by big-M
    times that, and the seed's utility would read as 0.  Each short
    constraint is met by raising its variable of largest positive
    coefficient by the deficit; the rise is what the leak took.
    """
    for constraint in piece.constraints:
        deficit = -constraint.evaluate(alloc)
        if deficit <= 0.0:
            continue
        var, coeff = max(constraint.coeffs.items(),
                         key=lambda item: item[1], default=(None, 0.0))
        if coeff > 0.0:
            alloc[var] += deficit / coeff


class MilpPlacementSolver:
    """Builds and solves the full MILP."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        self.program = LinProgram(maximize=True)
        self._plc: Dict[Tuple[str, int, int], int] = {}
        self._res: Dict[Tuple[str, int, str], int] = {}
        self._u: Dict[Tuple[str, int, int], int] = {}
        self._tplc: Dict[str, int] = {}
        self._pollres: Dict[Tuple[int, FrozenSet], int] = {}
        self._resource_caps = {
            r: max((a.get(r, 0.0) for a in problem.available.values()),
                   default=0.0)
            for r in problem.resource_types}

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        problem = self.problem
        lp = self.program
        for task in problem.tasks:
            lower = 1.0 if task.mandatory else 0.0
            self._tplc[task.task_id] = lp.add_var(
                f"tplc[{task.task_id}]", lb=lower, ub=1.0, integer=True)
        for task in problem.tasks:
            for seed in task.seeds:
                self._build_seed(task.task_id, seed)
        self._build_switch_capacity()

    def _build_seed(self, task_id: str, seed) -> None:
        problem = self.problem
        lp = self.program
        sid = seed.seed_id
        u_max = max(seed.utility.pieces[k].utility.upper_bound(
            self._resource_caps) for k in range(len(seed.utility.pieces)))
        u_max = max(u_max, 0.0)
        plc_indices: List[int] = []
        for n in seed.candidates:
            res_index: Dict[str, int] = {}
            for r in problem.resource_types:
                cap = problem.available[n].get(r, 0.0)
                res_index[(r)] = lp.add_var(f"res[{sid},{n},{r}]", 0.0, cap)
                self._res[(sid, n, r)] = res_index[r]
            plc_here: List[int] = []
            for k, piece in enumerate(seed.utility.pieces):
                plc = lp.add_binary(f"plc[{sid},{n},{k}]")
                self._plc[(sid, n, k)] = plc
                plc_here.append(plc)
                plc_indices.append(plc)
                # C2 with big-M: c(res) >= -M * (1 - plc)
                for constraint in piece.constraints:
                    row = _poly_row(constraint, res_index)
                    big_m = abs(constraint.const) + sum(
                        abs(c) * problem.available[n].get(v, 0.0)
                        for v, c in constraint.coeffs.items()) + 1.0
                    row[plc] = row.get(plc, 0.0) - big_m
                    lp.add_constraint(row,
                                      lb=-constraint.const - big_m, ub=INF)
                # Utility epigraph.
                u_var = lp.add_var(f"u[{sid},{n},{k}]", 0.0, max(u_max, 0.0))
                self._u[(sid, n, k)] = u_var
                lp.add_objective_term(u_var, 1.0)
                # u <= Umax * plc
                lp.add_constraint({u_var: 1.0, plc: -u_max}, lb=-INF, ub=0.0)
                for term in piece.utility.terms:
                    # u <= term(res) + M_u * (1 - plc)
                    row = _poly_row(term, res_index)
                    slack = u_max + abs(term.const) + sum(
                        abs(c) * problem.available[n].get(v, 0.0)
                        for v, c in term.coeffs.items()) + 1.0
                    con = {u_var: 1.0}
                    for var, coeff in row.items():
                        con[var] = con.get(var, 0.0) - coeff
                    con[plc] = con.get(plc, 0.0) + slack
                    lp.add_constraint(con, lb=-INF, ub=term.const + slack)
            # C3: res <= cap * sum_k plc
            for r in problem.resource_types:
                cap = problem.available[n].get(r, 0.0)
                con = {self._res[(sid, n, r)]: 1.0}
                for plc in plc_here:
                    con[plc] = con.get(plc, 0.0) - cap
                lp.add_constraint(con, lb=-INF, ub=0.0)
        # C1: sum over (n, k) plc == tplc(task)
        con = {plc: 1.0 for plc in plc_indices}
        tplc = self._tplc[task_id]
        con[tplc] = con.get(tplc, 0.0) - 1.0
        lp.add_constraint(con, lb=0.0, ub=0.0)

    def _migration_expr(self, seed) -> Optional[Tuple[int, Dict[int, float]]]:
        """(previous switch, linear expr of migr(s, n0)) or None.

        ``migr(s, n0) = sum over n' != n0, k of plc[s, n', k]`` since
        ``plc'(s, n0) = 1`` is known.
        """
        prev = self.problem.previous_placement.get(seed.seed_id)
        if prev is None:
            return None
        expr: Dict[int, float] = {}
        for n in seed.candidates:
            if n == prev:
                continue
            for k in range(len(seed.utility.pieces)):
                index = self._plc.get((seed.seed_id, n, k))
                if index is not None:
                    expr[index] = expr.get(index, 0.0) + 1.0
        if not expr:
            return None
        return prev, expr

    def _build_switch_capacity(self) -> None:
        problem = self.problem
        lp = self.program
        # Group per-switch contributions.
        usage_rows: Dict[Tuple[int, str], Dict[int, float]] = {}

        def usage_row(n: int, r: str) -> Dict[int, float]:
            return usage_rows.setdefault((n, r), {})

        for task in problem.tasks:
            for seed in task.seeds:
                sid = seed.seed_id
                migration = self._migration_expr(seed)
                for n in seed.candidates:
                    plc_sum = {
                        self._plc[(sid, n, k)]: 1.0
                        for k in range(len(seed.utility.pieces))}
                    for r in problem.resource_types:
                        if r == problem.r_poll:
                            continue
                        row = usage_row(n, r)
                        idx = self._res[(sid, n, r)]
                        row[idx] = row.get(idx, 0.0) + 1.0
                    # Aggregated polling at n.
                    for demand in seed.poll_demands:
                        pollres = self._pollres_var(n, demand.subject)
                        inv = demand.inv_interval
                        # pollres >= alpha*w*(inv(res) - (1-sum plc)*inv(0))
                        scale = problem.alpha(n) * demand.weight
                        con: Dict[int, float] = {pollres: 1.0}
                        for var, coeff in inv.coeffs.items():
                            idx = self._res[(sid, n, var)]
                            con[idx] = con.get(idx, 0.0) - scale * coeff
                        for plc_idx in plc_sum:
                            con[plc_idx] = (con.get(plc_idx, 0.0)
                                            - scale * inv.const)
                        lp.add_constraint(con, lb=0.0, ub=INF)
                if migration is not None:
                    prev, expr = migration
                    prev_alloc = problem.previous_allocations.get(sid, {})
                    for r in problem.resource_types:
                        if r == problem.r_poll:
                            continue
                        amount = prev_alloc.get(r, 0.0)
                        if amount:
                            row = usage_row(prev, r)
                            for var, coeff in expr.items():
                                row[var] = row.get(var, 0.0) + coeff * amount
                    env = {res: prev_alloc.get(res, 0.0)
                           for res in problem.resource_types}
                    for demand in seed.poll_demands:
                        rate = (problem.alpha(prev) * demand.weight
                                * max(demand.inv_interval.evaluate(env), 0.0))
                        if rate <= 0.0:
                            continue
                        pollres = self._pollres_var(prev, demand.subject)
                        con = {pollres: 1.0}
                        for var, coeff in expr.items():
                            con[var] = con.get(var, 0.0) - coeff * rate
                        lp.add_constraint(con, lb=0.0, ub=INF)
        # C4 capacity rows.
        for (n, r), row in usage_rows.items():
            lp.add_constraint(row, lb=-INF,
                              ub=problem.available[n].get(r, 0.0))
        pollres_at: Dict[int, List[int]] = {}
        for (n, _subject), idx in self._pollres.items():
            pollres_at.setdefault(n, []).append(idx)
        for n in problem.switches:
            indices = pollres_at.get(n)
            if indices:
                lp.add_constraint({idx: 1.0 for idx in indices}, lb=-INF,
                                  ub=problem.available[n].get(
                                      problem.r_poll, 0.0))

    def _pollres_var(self, n: int, subject: FrozenSet) -> int:
        key = (n, subject)
        if key not in self._pollres:
            self._pollres[key] = self.program.add_var(
                f"pollres[{n},{hash(subject) & 0xffff:x}.{len(self._pollres)}]",
                0.0, INF)
        return self._pollres[key]

    # ------------------------------------------------------------------
    # Solve + extract
    # ------------------------------------------------------------------
    def solve(self, time_limit_s: Optional[float] = None) -> PlacementSolution:
        start = time.perf_counter()
        self.build()
        result = self.program.solve_milp(time_limit_s=time_limit_s)
        runtime = time.perf_counter() - start
        if not result.usable:
            return PlacementSolution(
                placement={}, allocations={}, objective=0.0,
                solver="milp", runtime_s=runtime, status=result.status)
        placement: Dict[str, int] = {}
        allocations: Dict[str, Dict[str, float]] = {}
        pieces: Dict[str, int] = {}
        for (sid, n, k), index in self._plc.items():
            if result.value(index) > 0.5:
                placement[sid] = n
                pieces[sid] = k
        for sid, n in placement.items():
            allocations[sid] = {
                r: max(0.0, result.value(self._res[(sid, n, r)]))
                for r in self.problem.resource_types}
        if result.status == "optimal":
            for seed in self.problem.all_seeds():
                if seed.seed_id in placement:
                    _lift_onto_piece(
                        seed.utility.pieces[pieces[seed.seed_id]],
                        allocations[seed.seed_id])
        placed_tasks = tuple(
            task.task_id for task in self.problem.tasks
            if result.value(self._tplc[task.task_id]) > 0.5)
        objective = compute_objective(self.problem, placement, allocations)
        solution = PlacementSolution(
            placement=placement, allocations=allocations,
            objective=objective, solver="milp", runtime_s=runtime,
            placed_tasks=placed_tasks, status=result.status)
        if result.status != "optimal":
            # Where the time limit cuts branch-and-bound decides what the
            # incumbent is; HiGHS has handed back ones that break C2.
            violations = validate_solution(self.problem, solution)
            if violations:
                return PlacementSolution(
                    placement={}, allocations={}, objective=0.0,
                    solver="milp", runtime_s=runtime,
                    status="invalid-incumbent",
                    info={"violations": violations})
        return solution


def solve_milp(problem: PlacementProblem,
               time_limit_s: Optional[float] = None) -> PlacementSolution:
    """Solve placement exactly (up to ``time_limit_s``) with HiGHS."""
    return MilpPlacementSolver(problem).solve(time_limit_s=time_limit_s)
