"""FARM's placement heuristic (Alg. 1).

1. Sort tasks by decreasing minimum utility.
2. Greedily place each task's seeds at their cheapest feasible footprint,
   preferring the current location (no unnecessary migration); drop the
   whole task if any seed cannot be placed (C1).
3. Redistribute resources per switch with an LP (placements fixed), then
   trim each seed to what its achieved utility needs.
4. Compute migration benefits for movable seeds.
5. Migrate in decreasing benefit order, then redistribute again.

Scalability notes.  A seed's best spot (:meth:`_best_option`) reads only
the ``_SwitchState`` of its *dependency set* — its candidates ``N^s`` plus
its previous switch (migration residue) — and every write to such a state
goes through :meth:`HeuristicPlacementSolver._mark`.  The greedy loop
therefore keeps each remaining seed's option and re-evaluates only the
seeds that depend on a switch the last commit marked: the cost of one
commit is the number of remaining seeds sharing a switch with it, not the
size of the task (a task whose seeds all share their candidates still
pays ``O(seeds^2)``; the Fig. 7 instances pay ~2 evaluations per seed).
The same marks feed ``touched``, so the LP pass after the migrate step
solves only the switches it changed.  Each switch is one block of a
block-diagonal program, and a pass stacks its blocks into a few programs,
so HiGHS is called per program rather than per switch.  This is what lets
the heuristic track the MILP's utility at a fraction of the runtime
(Fig. 7).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.almanac.poly import LinPoly, UtilityPiece
from repro.errors import PlacementError
from repro.placement.linprog_builder import INF, LinProgram
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    SeedSpec,
    compute_objective,
)


#: Blocks (one per switch) stacked into one LP program.  A program's
#: size, not the pass's, bounds the solve's memory: docs/performance.md
#: gives peak RSS by this value.
_BLOCKS_PER_PROGRAM = 16


def _minimal_alloc(piece: UtilityPiece,
                   resource_types: Tuple[str, ...]) -> Dict[str, float]:
    """Cheapest allocation satisfying a piece's simple lower bounds."""
    alloc = {r: 0.0 for r in resource_types}
    for constraint in piece.constraints:
        if len(constraint.coeffs) == 1:
            (var, coeff), = constraint.coeffs.items()
            if coeff > 0:
                alloc[var] = max(alloc.get(var, 0.0),
                                 -constraint.const / coeff)
    return alloc


@dataclass
class _SwitchState:
    """Mutable per-switch accounting during the heuristic run."""

    switch: int
    capacity: Dict[str, float]
    used: Dict[str, float] = field(default_factory=dict)
    #: subject -> current aggregated polling rate (the max over seeds).
    poll_rates: Dict[FrozenSet, float] = field(default_factory=dict)
    #: seeds currently assigned here.
    residents: List[str] = field(default_factory=list)
    #: migration residue: resources still held by seeds moving away.
    residue: Dict[str, float] = field(default_factory=dict)
    residue_poll: Dict[FrozenSet, float] = field(default_factory=dict)

    def free(self, r: str) -> float:
        return (self.capacity.get(r, 0.0) - self.used.get(r, 0.0)
                - self.residue.get(r, 0.0))

    def poll_used(self) -> float:
        total = sum(self.poll_rates.values())
        for subject, rate in self.residue_poll.items():
            total += max(0.0, rate - self.poll_rates.get(subject, 0.0))
        return total


class HeuristicPlacementSolver:
    """Implements Alg. 1 end to end."""

    def __init__(self, problem: PlacementProblem,
                 redistribute: bool = True, migrate: bool = True) -> None:
        self.problem = problem
        self.redistribute_enabled = redistribute
        self.migrate_enabled = migrate
        self.states: Dict[int, _SwitchState] = {
            n: _SwitchState(n, dict(problem.available[n]))
            for n in problem.switches}
        self.placement: Dict[str, int] = {}
        self.allocations: Dict[str, Dict[str, float]] = {}
        self.piece_choice: Dict[str, int] = {}
        self._seed_by_id = {s.seed_id: s for s in problem.all_seeds()}
        #: seeds currently holding a migration-residue reservation on
        #: their previous switch (SIV-B-a: double occupancy in transit).
        self._reserved: Dict[str, int] = {}
        #: per-(seed, piece) minimal allocation — switch-independent, so
        #: computed once instead of per candidate in the greedy loop.
        self._min_allocs: Dict[Tuple[str, int], Dict[str, float]] = {}
        #: per-seed tuple of (piece index, minimal alloc, utility) for the
        #: pieces feasible at their own minimal footprint.
        self._profiles: Dict[str, Tuple[Tuple[int, Dict[str, float], float],
                                        ...]] = {}
        #: switches whose state changed since the last :meth:`redistribute`.
        self.touched: Set[int] = set()
        #: while :meth:`_place_members` runs: switch -> remaining seeds
        #: whose cached option reads that switch, and the seeds whose
        #: cached option a mark has invalidated since they were scored.
        self._watchers: Dict[int, Set[str]] = {}
        self._stale: Set[str] = set()

    def _mark(self, switch: int) -> None:
        """The one mutation signal of a ``_SwitchState``.

        Every write to what :meth:`_best_option` or the per-switch LP
        reads (``used``, ``poll_rates``, ``residents``, ``residue``,
        ``residue_poll``, a resident's piece or allocation) calls this.
        """
        self.touched.add(switch)
        watchers = self._watchers.get(switch)
        if watchers:
            self._stale.update(watchers)

    def _minimal_alloc_for(self, seed: SeedSpec, k: int,
                           piece: UtilityPiece) -> Dict[str, float]:
        key = (seed.seed_id, k)
        alloc = self._min_allocs.get(key)
        if alloc is None:
            alloc = _minimal_alloc(piece, self.problem.resource_types)
            self._min_allocs[key] = alloc
        return alloc

    def _piece_profiles(self, seed: SeedSpec
                        ) -> Tuple[Tuple[int, Dict[str, float], float], ...]:
        """Switch-independent per-piece data for :meth:`_best_option`.

        Minimal allocation, feasibility at that footprint, and the
        utility value depend only on the piece, so they are computed once
        per seed however often it is re-scored.  The cached alloc dicts
        are never mutated (``_commit`` stores a copy).
        """
        profiles = self._profiles.get(seed.seed_id)
        if profiles is None:
            built = []
            for k, piece in enumerate(seed.utility.pieces):
                alloc = self._minimal_alloc_for(seed, k, piece)
                env = {r: alloc.get(r, 0.0)
                       for r in self.problem.resource_types}
                if not piece.feasible(env):
                    continue
                built.append((k, alloc, piece.utility.evaluate(env)))
            profiles = tuple(built)
            self._profiles[seed.seed_id] = profiles
        return profiles

    def _add_residue(self, seed_id: str, prev: int) -> None:
        if seed_id in self._reserved:
            return
        self._reserved[seed_id] = prev
        state = self.states[prev]
        old_alloc = self.problem.previous_allocations.get(seed_id, {})
        for r in self.problem.resource_types:
            if r != self.problem.r_poll:
                state.residue[r] = (state.residue.get(r, 0.0)
                                    + old_alloc.get(r, 0.0))
        self._rebuild_residue_poll(state)
        self._mark(prev)

    def _remove_residue(self, seed_id: str, prev: int) -> None:
        if self._reserved.pop(seed_id, None) is None:
            return
        state = self.states[prev]
        old_alloc = self.problem.previous_allocations.get(seed_id, {})
        for r in self.problem.resource_types:
            if r != self.problem.r_poll:
                state.residue[r] = max(
                    0.0, state.residue.get(r, 0.0) - old_alloc.get(r, 0.0))
        self._rebuild_residue_poll(state)
        self._mark(prev)

    def _rebuild_residue_poll(self, state: _SwitchState) -> None:
        state.residue_poll.clear()
        for sid, prev in self._reserved.items():
            if prev != state.switch:
                continue
            seed = self._seed_by_id[sid]
            old_alloc = self.problem.previous_allocations.get(sid, {})
            for subject, rate in self._seed_poll_rates(
                    prev, seed, old_alloc).items():
                state.residue_poll[subject] = max(
                    state.residue_poll.get(subject, 0.0), rate)

    # ------------------------------------------------------------------
    # Polling accounting helpers
    # ------------------------------------------------------------------
    def _poll_delta(self, state: _SwitchState, seed: SeedSpec,
                    alloc: Mapping[str, float]) -> Tuple[float,
                                                         Dict[FrozenSet, float]]:
        """Additional aggregated polling rate if ``seed`` runs at ``alloc``."""
        env = {r: alloc.get(r, 0.0) for r in self.problem.resource_types}
        delta = 0.0
        new_rates: Dict[FrozenSet, float] = {}
        for demand in seed.poll_demands:
            rate = (self.problem.alpha(state.switch) * demand.weight
                    * max(demand.inv_interval.evaluate(env), 0.0))
            current = max(state.poll_rates.get(demand.subject, 0.0),
                          new_rates.get(demand.subject, 0.0))
            if rate > current:
                delta += rate - current
                new_rates[demand.subject] = rate
        return delta, new_rates

    def _seed_poll_rates(self, switch: int, seed: SeedSpec,
                         alloc: Mapping[str, float]) -> Dict[FrozenSet, float]:
        env = {r: alloc.get(r, 0.0) for r in self.problem.resource_types}
        rates: Dict[FrozenSet, float] = {}
        for demand in seed.poll_demands:
            rate = (self.problem.alpha(switch) * demand.weight
                    * max(demand.inv_interval.evaluate(env), 0.0))
            rates[demand.subject] = max(rates.get(demand.subject, 0.0), rate)
        return rates

    def _recompute_poll_rates(self, state: _SwitchState) -> None:
        rates: Dict[FrozenSet, float] = {}
        for sid in state.residents:
            seed = self._seed_by_id[sid]
            for subject, rate in self._seed_poll_rates(
                    state.switch, seed, self.allocations[sid]).items():
                rates[subject] = max(rates.get(subject, 0.0), rate)
        state.poll_rates = rates

    # ------------------------------------------------------------------
    # Step 2: greedy placement
    # ------------------------------------------------------------------
    def _fits(self, state: _SwitchState, seed: SeedSpec,
              alloc: Mapping[str, float]) -> bool:
        for r in self.problem.resource_types:
            if r == self.problem.r_poll:
                continue
            if alloc.get(r, 0.0) > state.free(r) + 1e-9:
                return False
            if alloc.get(r, 0.0) > state.capacity.get(r, 0.0) + 1e-9:
                return False
        poll_cap = state.capacity.get(self.problem.r_poll, 0.0)
        if alloc.get(self.problem.r_poll, 0.0) > poll_cap + 1e-9:
            return False
        delta, _rates = self._poll_delta(state, seed, alloc)
        return state.poll_used() + delta <= poll_cap + 1e-9

    def _residue_fits(self, seed: SeedSpec, prev: int) -> bool:
        """Can the previous switch absorb this seed's migration residue?

        Placing a seed away from its previous home doubles its occupancy
        there during the transfer (SIV-B-a); if the old switch has no
        headroom, that candidate is not usable.
        """
        state = self.states[prev]
        old_alloc = self.problem.previous_allocations.get(seed.seed_id, {})
        for r in self.problem.resource_types:
            if r == self.problem.r_poll:
                continue
            if old_alloc.get(r, 0.0) > state.free(r) + 1e-9:
                return False
        rates = self._seed_poll_rates(prev, seed, old_alloc)
        delta = 0.0
        for subject, rate in rates.items():
            current = max(state.poll_rates.get(subject, 0.0),
                          state.residue_poll.get(subject, 0.0))
            if rate > current:
                delta += rate - current
        poll_cap = state.capacity.get(self.problem.r_poll, 0.0)
        return state.poll_used() + delta <= poll_cap + 1e-9

    def _best_option(self, seed: SeedSpec
                     ) -> Optional[Tuple[float, int, int, Dict[str, float]]]:
        """(utility, switch, piece index, alloc) of the best feasible spot.

        The previous location gets an epsilon bonus so ties never migrate
        ("without unnecessary migration").
        """
        prev = self.problem.previous_placement.get(seed.seed_id)
        best: Optional[Tuple[float, int, int, Dict[str, float]]] = None
        profiles = self._piece_profiles(seed)
        # Residue feasibility on the previous switch is candidate-
        # independent; evaluate it at most once per call (lazily, since
        # many seeds have no previous home or only their home candidate).
        residue_ok: Optional[bool] = None
        for n in seed.candidates:
            state = self.states[n]
            if prev is not None and n != prev and prev in self.states:
                if residue_ok is None:
                    residue_ok = self._residue_fits(seed, prev)
                if not residue_ok:
                    continue  # old switch cannot host the migration residue
            bonus = 1e-9 if n == prev else 0.0
            for k, alloc, utility in profiles:
                score = utility + bonus
                if best is not None and score <= best[0]:
                    continue  # cannot beat the incumbent; skip the fit check
                if not self._fits(state, seed, alloc):
                    continue
                best = (score, n, k, alloc)
        return best

    def _commit(self, seed: SeedSpec, switch: int, piece_index: int,
                alloc: Dict[str, float]) -> None:
        state = self.states[switch]
        for r in self.problem.resource_types:
            if r != self.problem.r_poll:
                state.used[r] = state.used.get(r, 0.0) + alloc.get(r, 0.0)
        _delta, new_rates = self._poll_delta(state, seed, alloc)
        for subject, rate in new_rates.items():
            state.poll_rates[subject] = max(
                state.poll_rates.get(subject, 0.0), rate)
        state.residents.append(seed.seed_id)
        self.placement[seed.seed_id] = switch
        self.allocations[seed.seed_id] = dict(alloc)
        self.piece_choice[seed.seed_id] = piece_index
        self._mark(switch)
        # Placing away from the previous switch doubles occupancy there
        # during the state transfer (SIV-B-a).
        prev = self.problem.previous_placement.get(seed.seed_id)
        if prev is not None and prev != switch and prev in self.states:
            self._add_residue(seed.seed_id, prev)

    def _uncommit(self, seed_id: str) -> None:
        switch = self.placement.pop(seed_id)
        alloc = self.allocations.pop(seed_id)
        self.piece_choice.pop(seed_id, None)
        state = self.states[switch]
        state.residents.remove(seed_id)
        for r in self.problem.resource_types:
            if r != self.problem.r_poll:
                state.used[r] = max(0.0,
                                    state.used.get(r, 0.0) - alloc.get(r, 0.0))
        self._recompute_poll_rates(state)
        self._mark(switch)
        # Undo the migration residue if this placement had created one.
        prev = self.problem.previous_placement.get(seed_id)
        if prev is not None and prev != switch and prev in self.states:
            self._remove_residue(seed_id, prev)

    def _task_order(self, tasks: Optional[Sequence] = None) -> List:
        """Alg. 1 step 1: tasks (the problem's, unless a subset is given)
        by decreasing minimum utility.

        Overridable (the ablation benchmark measures what this buys).
        """
        return sorted(self.problem.tasks if tasks is None else tasks,
                      key=lambda t: (-t.min_utility(), t.task_id))

    def _place_members(
            self, members: Sequence[SeedSpec],
            unstick: Optional[Callable[[List[SeedSpec]], bool]] = None
    ) -> Tuple[List[str], bool]:
        """Alg. 1 step 2 for one task: repeatedly commit the remaining
        seed with the highest best-spot utility ("choose and place such
        s that adds the most"), ties broken by seed id.

        Returns ``(committed seed ids, every member placed)``; on failure
        the commits stand and the caller rolls them back.  ``unstick`` is
        called at most once, when no remaining seed has a feasible spot,
        with the remaining seeds; if it reports that it freed capacity
        the loop goes on.

        Each seed's option is scored once and again only after a
        :meth:`_mark` on a switch it depends on, so every cached option
        equals what :meth:`_best_option` would return at that instant.
        """
        remaining = {seed.seed_id: seed for seed in members}
        for seed in members:
            for n in self._option_deps(seed):
                self._watchers.setdefault(n, set()).add(seed.seed_id)
        self._stale = set(remaining)
        #: (-score, seed id, stamp, option); an entry is live while its
        #: stamp is the seed's latest (lazy deletion).
        heap: List[Tuple[float, str, int, Tuple]] = []
        live: Dict[str, int] = {}
        stamp = 0
        committed: List[str] = []
        try:
            while remaining:
                stale, self._stale = self._stale, set()
                for seed_id in stale:
                    seed = remaining.get(seed_id)
                    if seed is None:
                        continue
                    option = self._best_option(seed)
                    if option is None:
                        live.pop(seed_id, None)
                        continue
                    stamp += 1
                    live[seed_id] = stamp
                    heapq.heappush(heap,
                                   (-option[0], seed_id, stamp, option))
                while heap and live.get(heap[0][1]) != heap[0][2]:
                    heapq.heappop(heap)
                if not heap:
                    if unstick is not None and unstick(
                            list(remaining.values())):
                        unstick = None
                        continue
                    return committed, False
                _key, seed_id, _stamp, (_score, n, k, alloc) = \
                    heapq.heappop(heap)
                seed = remaining.pop(seed_id)
                del live[seed_id]
                for dep in self._option_deps(seed):
                    self._watchers[dep].discard(seed_id)
                self._commit(seed, n, k, alloc)
                committed.append(seed_id)
            return committed, True
        finally:
            self._watchers = {}
            self._stale = set()

    def _option_deps(self, seed: SeedSpec) -> Tuple[int, ...]:
        """Switches whose state :meth:`_best_option` reads for ``seed``."""
        prev = self.problem.previous_placement.get(seed.seed_id)
        if prev is None or prev in seed.candidates or prev not in self.states:
            return seed.candidates
        return seed.candidates + (prev,)

    def greedy_place(self) -> List[str]:
        """Alg. 1 steps 1-2; returns placed task ids."""
        placed_tasks: List[str] = []
        for task in self._task_order():
            committed, placed = self._place_members(task.seeds)
            if placed:
                placed_tasks.append(task.task_id)
                continue
            for seed_id in committed:
                self._uncommit(seed_id)
            if task.mandatory:
                raise PlacementError(
                    f"mandatory task {task.task_id!r} cannot be placed")
        return placed_tasks

    # ------------------------------------------------------------------
    # Step 3: LP resource redistribution
    # ------------------------------------------------------------------
    def redistribute(self) -> None:
        """Per-switch LPs maximizing summed utility at fixed placement.

        Solves the switches marked since the last pass.  A block's answer
        (:func:`_trimmed`) ignores commit order and its program-mates, so
        an unmarked switch would get back the allocations it holds.
        """
        self._redistribute(self.touched)
        self.touched.clear()

    def _redistribute(self, switches: AbstractSet[int]) -> None:
        """One block per resident switch of ``switches``, in switch order,
        stacked :data:`_BLOCKS_PER_PROGRAM` to a program."""
        states = [self.states[n] for n in sorted(switches)
                  if n in self.states and self.states[n].residents]
        for start in range(0, len(states), _BLOCKS_PER_PROGRAM):
            self._solve_blocks(states[start:start + _BLOCKS_PER_PROGRAM])

    def _solve_blocks(self, states: Sequence[_SwitchState]) -> None:
        """Solve ``states`` as one block-diagonal LP.

        The blocks share no row or column, so the program is feasible
        exactly when every block is.  When it is not, each block is
        solved on its own, and a block that fails alone keeps the
        allocations its residents hold, which are feasible.
        """
        lp = LinProgram(maximize=True)
        blocks = [self._add_block(lp, state) for state in states]
        result = lp.solve_lp()
        if not result.usable:
            if len(states) > 1:
                for state in states:
                    self._solve_blocks([state])
            return
        values = result.values.tolist()
        for state, columns in zip(states, blocks):
            for sid, index in columns:
                seed = self._seed_by_id[sid]
                self.allocations[sid] = _trimmed(
                    seed, seed.utility.pieces[self.piece_choice[sid]],
                    {r: max(0.0, values[i]) for r, i in index.items()})
            # Refresh accounting from the new allocations.
            state.used = {r: sum(self.allocations[sid].get(r, 0.0)
                                 for sid in state.residents)
                          for r in self.problem.resource_types
                          if r != self.problem.r_poll}
            self._recompute_poll_rates(state)
            self._mark(state.switch)

    def _add_block(self, lp: LinProgram, state: _SwitchState
                   ) -> List[Tuple[str, Dict[str, int]]]:
        """Append ``state``'s Σu LP to ``lp``; its residents' columns.

        Residents enter in seed-id order, so a block is the same program
        whatever order they were committed in.
        """
        problem = self.problem
        columns: List[Tuple[str, Dict[str, int]]] = []
        poll_vars: Dict[FrozenSet, int] = {}
        caps = {r: max(0.0, state.capacity.get(r, 0.0)
                       - state.residue.get(r, 0.0))
                for r in problem.resource_types}
        for sid in sorted(state.residents):
            seed = self._seed_by_id[sid]
            piece = seed.utility.pieces[self.piece_choice[sid]]
            index = {r: lp.add_var(0.0, state.capacity.get(r, 0.0))
                     for r in problem.resource_types}
            columns.append((sid, index))
            for constraint in piece.constraints:
                row = _poly_row_named(constraint, index)
                lp.add_constraint(row, lb=-constraint.const, ub=INF)
            u_var = lp.add_var(0.0, INF)
            lp.add_objective_term(u_var, 1.0)
            for term in piece.utility.terms:
                con = {u_var: 1.0}
                for var, coeff in _poly_row_named(term, index).items():
                    con[var] = con.get(var, 0.0) - coeff
                lp.add_constraint(con, lb=-INF, ub=term.const)
            for demand in seed.poll_demands:
                poll_var = poll_vars.get(demand.subject)
                if poll_var is None:
                    poll_var = lp.add_var(0.0, INF)
                    poll_vars[demand.subject] = poll_var
                scale = problem.alpha(state.switch) * demand.weight
                inv = demand.inv_interval
                con = {poll_var: 1.0}
                for var, coeff in inv.coeffs.items():
                    idx = index[var]
                    con[idx] = con.get(idx, 0.0) - scale * coeff
                lp.add_constraint(con, lb=scale * inv.const, ub=INF)
        # Capacity rows.
        for r in problem.resource_types:
            if r == problem.r_poll:
                continue
            row = {index[r]: 1.0 for _sid, index in columns}
            lp.add_constraint(row, lb=-INF, ub=caps[r])
        if poll_vars:
            poll_cap = state.capacity.get(problem.r_poll, 0.0)
            for subject, rate in state.residue_poll.items():
                poll_cap -= rate  # conservative: residue not aggregated
            lp.add_constraint({v: 1.0 for v in poll_vars.values()},
                              lb=-INF, ub=max(poll_cap, 0.0))
        return columns

    # ------------------------------------------------------------------
    # Steps 4-5: migration
    # ------------------------------------------------------------------
    def migrate(self, eligible: Optional[set] = None) -> int:
        """Move seeds where they gain utility; returns number migrated.

        ``eligible`` restricts which placed seeds are even considered —
        the incremental solver passes its dirty set so the benefit scan
        stays proportional to the churn, not the fleet.
        """
        candidates: List[Tuple[float, str, int]] = []
        for sid, current in self.placement.items():
            if eligible is not None and sid not in eligible:
                continue
            seed = self._seed_by_id[sid]
            if len(seed.candidates) < 2:
                continue
            env = {r: self.allocations[sid].get(r, 0.0)
                   for r in self.problem.resource_types}
            current_utility = seed.utility.evaluate(env)
            for n in seed.candidates:
                if n == current:
                    continue
                benefit = self._migration_benefit(seed, n, current_utility)
                if benefit is not None and benefit > 1e-9:
                    candidates.append((benefit, sid, n))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        moved = 0
        moved_ids = set()
        for _benefit, sid, target in candidates:
            if sid in moved_ids:
                continue
            seed = self._seed_by_id[sid]
            option = self._best_alloc_on(seed, target)
            if option is None:
                continue
            k, alloc, utility = option
            env = {r: self.allocations[sid].get(r, 0.0)
                   for r in self.problem.resource_types}
            if utility <= seed.utility.evaluate(env) + 1e-9:
                continue
            source = self.placement[sid]
            old_alloc = dict(self.allocations[sid])
            old_piece = self.piece_choice[sid]
            self._uncommit(sid)
            self._commit(seed, target, k, alloc)
            # Moving away from the seed's previous switch creates migration
            # residue there (double occupancy, SIV-B-a); if that switch
            # cannot absorb it, the migration is rejected and undone.
            prev = self.problem.previous_placement.get(sid)
            overloaded = (prev is not None and prev in self.states
                          and not self._switch_feasible(self.states[prev]))
            if overloaded:
                self._uncommit(sid)
                self._commit(seed, source, old_piece, old_alloc)
                continue
            moved_ids.add(sid)
            moved += 1
        return moved

    def _switch_feasible(self, state: _SwitchState) -> bool:
        for r in self.problem.resource_types:
            if r == self.problem.r_poll:
                continue
            if state.free(r) < -1e-9:
                return False
        poll_cap = state.capacity.get(self.problem.r_poll, 0.0)
        return state.poll_used() <= poll_cap + 1e-9

    def _migration_benefit(self, seed: SeedSpec, target: int,
                           current_utility: float) -> Optional[float]:
        option = self._best_alloc_on(seed, target)
        if option is None:
            return None
        _k, _alloc, utility = option
        return utility - current_utility

    def _best_alloc_on(self, seed: SeedSpec, target: int
                       ) -> Optional[Tuple[int, Dict[str, float], float]]:
        """Best (piece, alloc, utility) on ``target`` given spare capacity.

        Uses the spare capacity greedily: minimal footprint, then pour the
        remaining free resources into the utility's variables.
        """
        state = self.states[target]
        best: Optional[Tuple[int, Dict[str, float], float]] = None
        for k, piece in enumerate(seed.utility.pieces):
            alloc = self._minimal_alloc_for(seed, k, piece)
            if not self._fits(state, seed, alloc):
                continue
            # Pour spare resources into variables the utility rises with.
            rich = dict(alloc)
            for var in piece.utility.variables():
                spare = state.free(var) - alloc.get(var, 0.0) \
                    if var != self.problem.r_poll else 0.0
                if var == self.problem.r_poll:
                    # Polling allocation bounded by remaining poll headroom.
                    headroom = (state.capacity.get(self.problem.r_poll, 0.0)
                                - state.poll_used())
                    spare = max(0.0, headroom)
                rich[var] = alloc.get(var, 0.0) + max(0.0, spare)
                rich[var] = min(rich[var],
                                state.capacity.get(var, 0.0))
            if not self._fits(state, seed, rich):
                rich = alloc
                if not self._fits(state, seed, rich):
                    continue
            env = {r: rich.get(r, 0.0) for r in self.problem.resource_types}
            if not piece.feasible(env):
                continue
            utility = piece.utility.evaluate(env)
            if best is None or utility > best[2]:
                best = (k, dict(rich), utility)
        return best

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def solve(self) -> PlacementSolution:
        start = time.perf_counter()
        placed_tasks = self.greedy_place()
        if self.redistribute_enabled:
            self.redistribute()
        if self.migrate_enabled:
            if self.migrate() and self.redistribute_enabled:
                self.redistribute()
        runtime = time.perf_counter() - start
        objective = compute_objective(self.problem, self.placement,
                                      self.allocations)
        return PlacementSolution(
            placement=dict(self.placement),
            allocations={sid: dict(alloc)
                         for sid, alloc in self.allocations.items()},
            objective=objective, solver="heuristic", runtime_s=runtime,
            placed_tasks=tuple(sorted(placed_tasks)), status="ok")


def _trimmed(seed: SeedSpec, piece: UtilityPiece,
             alloc: Dict[str, float]) -> Dict[str, float]:
    """``alloc``, the Σu LP's answer for ``seed`` on ``piece``, cut down
    to what its achieved utility ``u`` needs.

    The LP leaves slack that buys no utility wherever its vertex happens
    to put it.  A resource that only single-resource rows of the piece
    name drops to the least value those rows allow at ``u``: the largest
    of 0, each floor ``a·r + c >= 0`` (``-c/a``) and each utility term
    ``a·r + c`` with ``a > 0`` (``(u - c)/a``, nudged up an ulp where
    rounding would leave the term below ``u``).  That value is unique and
    never above the LP's, and ``u`` is kept exactly.  A resource named in
    a multi-resource row, or with a negative coefficient in a poll demand,
    keeps its LP value; every other one only lowers usage and poll demand
    by dropping, so the capacity and poll rows stay satisfied.
    """
    utility = piece.utility.evaluate(alloc)
    pinned = {var for poly in (*piece.constraints, *piece.utility.terms)
              if len(poly.coeffs) > 1 for var in poly.coeffs}
    pinned.update(var for demand in seed.poll_demands
                  for var, coeff in demand.inv_interval.coeffs.items()
                  if coeff < 0)
    for r in list(alloc):
        if r in pinned:
            continue
        value = 0.0
        for constraint in piece.constraints:
            a = constraint.coeffs.get(r, 0.0)
            if a > 0:
                value = max(value, -constraint.const / a)
        for term in piece.utility.terms:
            a = term.coeffs.get(r, 0.0)
            if a > 0:
                need = (utility - term.const) / a
                while a * need + term.const < utility:
                    need = math.nextafter(need, INF)
                value = max(value, need)
        if value < alloc[r]:
            alloc[r] = value
    return alloc


def _poly_row_named(poly: LinPoly,
                    index: Mapping[str, int]) -> Dict[int, float]:
    row: Dict[int, float] = {}
    for var, coeff in poly.coeffs.items():
        try:
            row[index[var]] = row.get(index[var], 0.0) + coeff
        except KeyError:
            raise PlacementError(
                f"utility references unknown resource {var!r}") from None
    return row


def solve_heuristic(problem: PlacementProblem, redistribute: bool = True,
                    migrate: bool = True,
                    registry=None) -> PlacementSolution:
    """Run Alg. 1 on ``problem``.

    ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`) records the
    solve count, runtime histogram, and last objective when provided.
    """
    solution = HeuristicPlacementSolver(
        problem, redistribute=redistribute, migrate=migrate).solve()
    if registry is not None:
        record_solve_metrics(registry, solution)
    return solution


def record_solve_metrics(registry, solution: PlacementSolution) -> None:
    """Register one solver run's outcome under ``farm_placement_*``."""
    labels = {"solver": solution.solver}
    registry.counter(
        "farm_placement_solves_total",
        "Placement optimizations run, by solver.", labels=labels).inc()
    registry.histogram(
        "farm_placement_runtime_seconds",
        "Wall-clock solver runtime.", labels=labels
    ).observe(solution.runtime_s)
    registry.gauge(
        "farm_placement_objective",
        "Objective value of the most recent solution.", labels=labels
    ).set(solution.objective)
    registry.gauge(
        "farm_placement_placed_seeds",
        "Seeds placed by the most recent solution.", labels=labels
    ).set(len(solution.placement))
