"""Warm-started incremental re-placement under churn.

FARM re-solves seed placement whenever the workload shifts; at production
scale a full Alg. 1 / MILP re-run per churn event is the management-plane
bottleneck.  This module adds the incremental mode:

* :class:`ChurnDelta` — a declarative description of what changed since
  the incumbent solve: tasks/seeds added or removed, switch capacities
  resized, switches added/removed, per-seed polling demand changes.
* :func:`apply_delta` — rewrites a :class:`PlacementProblem` under a
  delta, threading the incumbent placement in as ``plc'`` so migration
  accounting stays exact.
* :class:`IncrementalPlacementSolver` — starts from the incumbent
  :class:`PlacementSolution`, warm-committing every *clean* seed straight
  into the heuristic's ``_SwitchState`` bookkeeping, then re-runs the
  greedy phase, the per-switch LPs, and the migration-benefit pass only
  over the *dirty set*: switches whose residual capacity or poll
  aggregation changed, and the seeds living on (or newly aimed at) them.
  Dirtiness propagates — committing or evicting a seed marks its switch
  touched, and touched switches join the LP/migration scope.
* Fallback: when the delta's blast radius exceeds ``fallback_ratio`` of
  the fleet (seeds or switches), a full :class:`HeuristicPlacementSolver`
  run is cheaper *and* better — the incremental solver detects this and
  delegates, recording ``info["fallback"]``.  The decision is taken from
  the sizes the solver observes; a caller that wants the full solver
  calls :func:`~repro.placement.heuristic.solve_heuristic` (or passes
  ``fallback_ratio=0.0``).

The differential churn-test harness (``tests/placement/test_incremental``
and ``test_churn_properties``) pins this module to the reference
solver: single-delta cases must match the full re-solve exactly, random
churn sequences must stay feasible and within (1 - eps) of from-scratch
utility, and the whole pipeline must be bit-deterministic.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import PlacementError
from repro.placement.heuristic import (
    HeuristicPlacementSolver,
    record_solve_metrics,
)
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    PollDemand,
    SeedSpec,
    TaskSpec,
    compute_objective,
)

#: Default blast-radius threshold: if more than this fraction of seeds or
#: switches is dirty, fall back to a full re-solve.
DEFAULT_FALLBACK_RATIO = 0.3


class _FallbackNeeded(Exception):
    """Internal: the incremental pass would drop a previously-placed task."""


@dataclass(frozen=True)
class ChurnDelta:
    """One churn event, relative to the problem the incumbent solved.

    All fields compose; an all-defaults delta is empty (no-op).

    ``capacity_changes`` maps ``switch -> {resource: new absolute
    capacity}``; a switch id not present in the base problem is *added*
    with the given capacities (unnamed resources start at 0).
    ``poll_changes`` replaces a seed's whole ``poll_demands`` tuple.
    """

    added_tasks: Tuple[TaskSpec, ...] = ()
    removed_tasks: Tuple[str, ...] = ()
    removed_seeds: Tuple[str, ...] = ()
    capacity_changes: Mapping[int, Mapping[str, float]] = field(
        default_factory=dict)
    poll_changes: Mapping[str, Tuple[PollDemand, ...]] = field(
        default_factory=dict)
    removed_switches: Tuple[int, ...] = ()

    def is_empty(self) -> bool:
        return not (self.added_tasks or self.removed_tasks
                    or self.removed_seeds or self.capacity_changes
                    or self.poll_changes or self.removed_switches)


def apply_delta(problem: PlacementProblem, delta: ChurnDelta,
                incumbent: Optional[PlacementSolution] = None
                ) -> PlacementProblem:
    """The post-churn problem: ``problem`` with ``delta`` applied.

    ``incumbent`` (when given) becomes the new problem's previous
    placement/allocations — the ``plc'`` the next solve migrates from.
    A task whose seed loses every candidate switch is dropped entirely
    (C1 makes it unplaceable); dropping a *mandatory* task raises.
    """
    removed_tasks = set(delta.removed_tasks)
    removed_seeds = set(delta.removed_seeds)
    removed_switches = set(delta.removed_switches)
    poll_changes = dict(delta.poll_changes)

    available: Dict[int, Dict[str, float]] = {
        n: dict(res) for n, res in problem.available.items()
        if n not in removed_switches}
    for n, changes in delta.capacity_changes.items():
        if n in removed_switches:
            continue
        base = available.setdefault(
            n, {r: 0.0 for r in problem.resource_types})
        for r, v in changes.items():
            base[r] = float(v)

    tasks: List[TaskSpec] = []
    for task in list(problem.tasks) + list(delta.added_tasks):
        if task.task_id in removed_tasks:
            continue
        seeds: List[SeedSpec] = []
        unplaceable = False
        for seed in task.seeds:
            if seed.seed_id in removed_seeds:
                continue
            candidates = tuple(n for n in seed.candidates if n in available)
            if not candidates:
                unplaceable = True
                break
            demands = poll_changes.get(seed.seed_id, seed.poll_demands)
            if (candidates != seed.candidates
                    or demands is not seed.poll_demands):
                seed = SeedSpec(
                    seed_id=seed.seed_id, task_id=seed.task_id,
                    candidates=candidates, utility=seed.utility,
                    poll_demands=tuple(demands))
            seeds.append(seed)
        if unplaceable:
            if task.mandatory:
                raise PlacementError(
                    f"mandatory task {task.task_id!r} lost every candidate "
                    f"switch under the churn delta")
            continue
        if not seeds:
            continue
        tasks.append(TaskSpec(task_id=task.task_id, seeds=seeds,
                              mandatory=task.mandatory))

    prev_p = (incumbent.placement if incumbent is not None
              else problem.previous_placement)
    prev_a = (incumbent.allocations if incumbent is not None
              else problem.previous_allocations)
    seed_ids = {s.seed_id for t in tasks for s in t.seeds}
    previous_placement = {sid: n for sid, n in prev_p.items()
                          if sid in seed_ids and n in available}
    previous_allocations = {sid: dict(prev_a.get(sid, {}))
                            for sid in previous_placement}
    alpha = {n: a for n, a in problem.alpha_poll.items() if n in available}
    return PlacementProblem(
        tasks=tasks, available=available,
        resource_types=problem.resource_types, r_poll=problem.r_poll,
        alpha_poll=alpha,
        previous_placement=previous_placement,
        previous_allocations=previous_allocations)


def compute_dirty(problem: PlacementProblem,
                  incumbent: PlacementSolution,
                  delta: Optional[ChurnDelta] = None
                  ) -> Tuple[Set[int], Set[str]]:
    """(dirty switches, dirty seeds) of ``delta`` against ``incumbent``.

    Dirty switches: resized/added switches, plus every switch whose
    residual capacity or poll aggregation changed because a seed it
    hosted vanished or re-declared its polling.  Dirty seeds: seeds with
    an *invalidated* home (orphaned by a switch removal or candidate
    shrink), residents of dirty switches, and — the key pruning — seeds
    the incumbent left unplaced only when one of their candidates is
    dirty: clean switches are state-identical to the incumbent, so a
    task that did not fit there before still does not.  New seeds (from
    ``delta.added_tasks``) are always dirty; without a delta every
    homeless seed is conservatively dirty.
    """
    available = set(problem.available)
    dirty_switches: Set[int] = set()
    dirty_seeds: Set[str] = set()
    poll_changed: Set[str] = set()
    new_seeds: Set[str] = set()
    if delta is not None:
        dirty_switches |= {n for n in delta.capacity_changes
                           if n in available}
        poll_changed = set(delta.poll_changes)
        new_seeds = {s.seed_id for t in delta.added_tasks for s in t.seeds}

    placement = incumbent.placement
    live_ids = {s.seed_id for s in problem.all_seeds()}
    # Freed capacity: incumbent residents that no longer exist.
    for sid, n in placement.items():
        if sid not in live_ids and n in available:
            dirty_switches.add(n)
    for seed in problem.all_seeds():
        sid = seed.seed_id
        home = placement.get(sid)
        if sid in poll_changed and home is not None and home in available:
            dirty_switches.add(home)

    for seed in problem.all_seeds():
        sid = seed.seed_id
        home = placement.get(sid)
        if home is None:
            if (delta is None or sid in new_seeds
                    or any(n in dirty_switches for n in seed.candidates)):
                dirty_seeds.add(sid)
            continue
        if home not in available or home not in seed.candidates:
            dirty_seeds.add(sid)
            continue
        if sid in poll_changed or home in dirty_switches:
            dirty_seeds.add(sid)
    # C1: a dirty member drags its *unplaced* siblings along — placing
    # only the dirty subset of an unplaced task would violate atomicity.
    for task in problem.tasks:
        if any(s.seed_id in dirty_seeds for s in task.seeds):
            for s in task.seeds:
                if placement.get(s.seed_id) is None:
                    dirty_seeds.add(s.seed_id)
    return dirty_switches, dirty_seeds


def _with_incumbent_previous(problem: PlacementProblem,
                             incumbent: PlacementSolution
                             ) -> PlacementProblem:
    """A shallow view of ``problem`` whose ``plc'`` is the incumbent.

    Migration residue accounting (double occupancy in transit) must be
    measured against where the seeds actually sit *now*; this normalizes
    the problem so callers need not keep ``previous_*`` in sync by hand.
    """
    seed_ids = {s.seed_id for s in problem.all_seeds()}
    prev_p = {sid: n for sid, n in incumbent.placement.items()
              if sid in seed_ids and n in problem.available}
    prev_a = {sid: dict(incumbent.allocations.get(sid, {}))
              for sid in prev_p}
    if (prev_p == problem.previous_placement
            and prev_a == problem.previous_allocations):
        return problem
    eff = copy.copy(problem)  # shares tasks/available; replaces plc' only
    eff.previous_placement = prev_p
    eff.previous_allocations = prev_a
    return eff


class IncrementalPlacementSolver(HeuristicPlacementSolver):
    """Alg. 1 restarted from the incumbent, restricted to the dirty set.

    ``delta`` derives the dirty set automatically; ``scope`` (a set of
    switch ids) overrides it for the seeder's targeted re-solves — in
    scope mode only seeds living on scoped switches (or homeless ones)
    may move, matching the remediation engine's blast-radius semantics.
    """

    def __init__(self, problem: PlacementProblem,
                 incumbent: PlacementSolution,
                 delta: Optional[ChurnDelta] = None,
                 scope: Optional[Set[int]] = None,
                 fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
                 redistribute: bool = True, migrate: bool = True) -> None:
        problem = _with_incumbent_previous(problem, incumbent)
        super().__init__(problem, redistribute=redistribute, migrate=migrate)
        self.incumbent = incumbent
        self.delta = delta
        self.fallback_ratio = fallback_ratio
        self.strict_scope = scope is not None
        if scope is not None:
            self.dirty_switches = {n for n in scope if n in self.states}
            self.dirty_seeds = set()
            for seed in problem.all_seeds():
                home = incumbent.placement.get(seed.seed_id)
                if home is None:
                    # Homeless under an explicit scope means evicted from
                    # it (e.g. the scoped switch was just cordoned out of
                    # the problem) or a straggler — both must re-place.
                    self.dirty_seeds.add(seed.seed_id)
                elif (home in self.dirty_switches
                        or home not in self.states
                        or home not in seed.candidates):
                    self.dirty_seeds.add(seed.seed_id)
            for task in problem.tasks:
                if any(s.seed_id in self.dirty_seeds for s in task.seeds):
                    for s in task.seeds:
                        if incumbent.placement.get(s.seed_id) is None:
                            self.dirty_seeds.add(s.seed_id)
        else:
            self.dirty_switches, self.dirty_seeds = compute_dirty(
                problem, incumbent, delta)
        #: Dirty seeds that hold incumbent state (placed somewhere).  The
        #: rest are unplaced-task retries, which cost almost nothing
        #: thanks to the prescreen in :meth:`_greedy_dirty`, so the
        #: fallback heuristic ignores them.
        self._dirty_placed = {
            sid for sid in self.dirty_seeds
            if incumbent.placement.get(sid) is not None}
        #: Seeds introduced by this delta: never prescreen-skipped — they
        #: have not had a fair shot yet (including the reclaim pass).
        self._new_seeds: Set[str] = (
            {s.seed_id for t in delta.added_tasks for s in t.seeds}
            if delta is not None else set())

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def _recover_piece(self, seed: SeedSpec,
                       alloc: Mapping[str, float]) -> Optional[int]:
        """The utility piece the incumbent allocation satisfies best."""
        env = {r: alloc.get(r, 0.0) for r in self.problem.resource_types}
        best: Optional[Tuple[float, int]] = None
        for k, piece in enumerate(seed.utility.pieces):
            if piece.feasible(env):
                value = piece.utility.evaluate(env)
                if best is None or value > best[0]:
                    best = (value, k)
        return best[1] if best is not None else None

    def _warm_start(self) -> None:
        """Commit every clean seed at its incumbent spot, bookkeeping only.

        No feasibility checks run: a clean seed sits on a clean switch,
        and nothing about either changed.  A seed whose incumbent
        allocation no longer satisfies any utility piece (shouldn't
        happen, but deltas are caller-supplied) degrades to dirty.
        The warm commits are the baseline, not churn: ``touched`` starts
        empty for the dirty-set passes.
        """
        for task in self.problem.tasks:
            for seed in task.seeds:
                sid = seed.seed_id
                if sid in self.dirty_seeds:
                    continue
                home = self.incumbent.placement.get(sid)
                if home is None:
                    continue  # clean-but-unplaced: stays unplaced
                alloc = dict(self.incumbent.allocations.get(sid, {}))
                piece = self._recover_piece(seed, alloc)
                if piece is None:
                    self.dirty_seeds.add(sid)
                    if home is not None and home in self.states:
                        self.dirty_switches.add(home)
                    continue
                self._commit(seed, home, piece, alloc)
        self.touched.clear()

    # ------------------------------------------------------------------
    # Greedy over the dirty set
    # ------------------------------------------------------------------
    def _reclaim_switch(self, state) -> bool:
        """Shrink a switch's residents back to minimal footprints.

        The incumbent's per-switch LP poured every spare unit into the
        residents; a newly arriving seed then sees no headroom even
        though a from-scratch solve would fit it easily.  Reclaiming
        (placements and piece choices untouched) restores the headroom;
        the final LP pass re-pours whatever is genuinely spare.
        """
        changed = False
        for sid in state.residents:
            seed = self._seed_by_id[sid]
            k = self.piece_choice[sid]
            piece = seed.utility.pieces[k]
            minimal = self._minimal_alloc_for(seed, k, piece)
            current = self.allocations[sid]
            if all(current.get(r, 0.0) <= minimal.get(r, 0.0) + 1e-12
                   for r in self.problem.resource_types):
                continue
            env = {r: minimal.get(r, 0.0)
                   for r in self.problem.resource_types}
            if not piece.feasible(env):
                continue  # multi-resource piece: keep the proven alloc
            self.allocations[sid] = dict(minimal)
            changed = True
        if changed:
            state.used = {
                r: sum(self.allocations[sid].get(r, 0.0)
                       for sid in state.residents)
                for r in self.problem.resource_types
                if r != self.problem.r_poll}
            self._recompute_poll_rates(state)
            self._mark(state.switch)
        return changed

    def _reclaim_for(self, seeds: Sequence[SeedSpec]) -> bool:
        switches = sorted({n for seed in seeds for n in seed.candidates
                           if n in self.states})
        changed = False
        for n in switches:
            if self._reclaim_switch(self.states[n]):
                changed = True
        return changed

    def _greedy_dirty(self) -> List[str]:
        """Greedy placement restricted to dirty seeds; returns placed tasks.

        Clean siblings of a dirty seed stay warm-committed unless the
        dirty member cannot be placed at all — then C1 forces the whole
        task out (clean siblings are evicted too, and their switches join
        the touched set for the LP pass).
        """
        placed_tasks: List[str] = []
        for task in self._task_order():
            members = [s for s in task.seeds
                       if s.seed_id in self.dirty_seeds]
            if not members:
                if all(s.seed_id in self.placement for s in task.seeds):
                    placed_tasks.append(task.task_id)
                continue
            if (not self.strict_scope
                    and all(self.incumbent.placement.get(s.seed_id) is None
                            for s in task.seeds)
                    and not any(s.seed_id in self._new_seeds
                                for s in task.seeds)):
                # Unplaced-task retry: prescreen without committing.
                # Commits only ever shrink later members' options, so a
                # member with no feasible spot *now* dooms the task — the
                # reference greedy would discover the same after a costly
                # commit-and-rollback cycle.
                if any(self._best_option(s) is None for s in task.seeds):
                    continue
            committed, placed = self._place_members(
                members, unstick=self._reclaim_for)
            if placed:
                placed_tasks.append(task.task_id)
                continue
            # Dropping a task the incumbent had placed (or a mandatory
            # one) is a quality cliff the full re-solve usually avoids
            # by repacking globally — escalate.
            if task.mandatory or any(
                    self.incumbent.placement.get(s.seed_id) is not None
                    for s in task.seeds):
                raise _FallbackNeeded(task.task_id)
            for sid in committed:
                self._uncommit(sid)
            for sibling in task.seeds:
                if sibling.seed_id in self.placement:
                    self._uncommit(sibling.seed_id)
        return placed_tasks

    # ------------------------------------------------------------------
    # Scoped LP + migration
    # ------------------------------------------------------------------
    def redistribute(self) -> None:
        """Per-switch LPs on the dirty/touched switches only.

        ``touched`` is not drained here: it also scopes the migration
        pass and the reported blast radius.
        """
        for n in sorted(self.dirty_switches | self.touched):
            state = self.states.get(n)
            if state is not None and state.residents:
                self._redistribute_switch(state)

    def _migration_eligible(self) -> Set[str]:
        """Seeds the benefit pass may move.

        Always: placed dirty seeds.  Without an explicit scope, also
        clean seeds with a candidate on a dirty/touched switch — freed
        capacity there may attract them, and moving them propagates
        dirtiness to their source switch.  Under an explicit scope the
        blast radius is a promise, so clean seeds stay pinned.
        """
        eligible = {sid for sid in self.dirty_seeds
                    if sid in self.placement}
        if not self.strict_scope:
            hot = self.dirty_switches | self.touched
            for sid, current in self.placement.items():
                if sid in eligible:
                    continue
                seed = self._seed_by_id[sid]
                if any(n in hot and n != current for n in seed.candidates):
                    eligible.add(sid)
        return eligible

    # ------------------------------------------------------------------
    # Fallback + entry point
    # ------------------------------------------------------------------
    def fallback_reason(self) -> Optional[str]:
        total_seeds = self.problem.num_seeds
        total_switches = len(self.states)
        if not total_seeds or not total_switches:
            return None
        if len(self._dirty_placed) > self.fallback_ratio * total_seeds:
            return "dirty-seeds"
        if len(self.dirty_switches) > self.fallback_ratio * total_switches:
            return "dirty-switches"
        return None

    def _full_solve(self, reason: str, start: float) -> PlacementSolution:
        solution = HeuristicPlacementSolver(
            self.problem, redistribute=self.redistribute_enabled,
            migrate=self.migrate_enabled).solve()
        solution.runtime_s = time.perf_counter() - start
        solution.info.update({
            "incremental": False, "fallback": reason,
            "dirty_switches": len(self.dirty_switches),
            "dirty_seeds": len(self.dirty_seeds)})
        return solution

    def solve(self) -> PlacementSolution:
        start = time.perf_counter()
        reason = self.fallback_reason()
        if reason is not None:
            return self._full_solve(reason, start)
        self._warm_start()
        try:
            placed_tasks = self._greedy_dirty()
        except _FallbackNeeded:
            return self._full_solve("eviction", start)
        if self.redistribute_enabled:
            self.redistribute()
        if self.migrate_enabled:
            if self.migrate(eligible=self._migration_eligible()) \
                    and self.redistribute_enabled:
                self.redistribute()
        runtime = time.perf_counter() - start
        objective = compute_objective(self.problem, self.placement,
                                      self.allocations)
        solution = PlacementSolution(
            placement=dict(self.placement),
            allocations={sid: dict(alloc)
                         for sid, alloc in self.allocations.items()},
            objective=objective, solver="incremental", runtime_s=runtime,
            placed_tasks=tuple(sorted(placed_tasks)), status="ok")
        solution.info.update({
            "incremental": True,
            "dirty_switches": len(self.dirty_switches),
            "dirty_seeds": len(self.dirty_seeds),
            "touched_switches": len(self.dirty_switches | self.touched)})
        return solution


def solve_incremental(problem: PlacementProblem,
                      incumbent: PlacementSolution,
                      delta: Optional[ChurnDelta] = None,
                      scope: Optional[Set[int]] = None,
                      fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
                      redistribute: bool = True, migrate: bool = True,
                      registry=None) -> PlacementSolution:
    """Incremental re-solve of ``problem`` starting from ``incumbent``.

    ``problem`` is the *post-churn* problem (see :func:`apply_delta`);
    ``delta`` scopes the dirty set (omit it to have the solver diff the
    incumbent against the problem), ``scope`` pins the dirty set to an
    explicit switch set instead.  An empty delta returns the incumbent
    untouched — same placement, same allocations, zero migrations.
    ``registry`` records solve metrics exactly like the full solvers.
    """
    if delta is not None and delta.is_empty() and scope is None:
        solution = PlacementSolution(
            placement=dict(incumbent.placement),
            allocations={sid: dict(alloc)
                         for sid, alloc in incumbent.allocations.items()},
            objective=compute_objective(problem, incumbent.placement,
                                        incumbent.allocations),
            solver="incremental", runtime_s=0.0,
            placed_tasks=incumbent.placed_tasks, status="incumbent")
        solution.info.update({"incremental": True, "noop": True,
                              "dirty_switches": 0, "dirty_seeds": 0})
        if registry is not None:
            record_solve_metrics(registry, solution)
        return solution
    solver = IncrementalPlacementSolver(
        problem, incumbent, delta=delta, scope=scope,
        fallback_ratio=fallback_ratio, redistribute=redistribute,
        migrate=migrate)
    solution = solver.solve()
    if registry is not None:
        record_solve_metrics(registry, solution)
    return solution
