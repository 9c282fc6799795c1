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
  :class:`PlacementSolution`, warm-committing *clean* seeds straight
  into the heuristic's ``_SwitchState`` bookkeeping, then re-runs the
  greedy phase, the per-switch LPs, and the migration-benefit pass only
  over the *dirty set*: switches whose residual capacity or poll
  aggregation changed, and the seeds living on (or newly aimed at) them.
  Dirtiness propagates — committing or evicting a seed marks its switch
  touched, and touched switches join the LP/migration scope.
* Fallback: when the delta's blast radius exceeds :data:`FALLBACK_RATIO`
  of the fleet (seeds or switches), a full :class:`HeuristicPlacementSolver`
  run is cheaper *and* better — the incremental solver detects this and
  delegates, recording ``info["fallback"]``.  The decision is taken from
  the sizes the solver observes; a caller that wants the full solver
  calls :func:`~repro.placement.heuristic.solve_heuristic`.

Sessions
--------
A solver instance is a *session* that outlives its ``solve()``: switch
states, the seed/candidate indexes, the piece and minimal-allocation
caches and one utility term per placed seed stay in it, and the next
re-solve rebuilds (``_rebase``) only the switches the previous one
marked plus the ones the new delta names.  Nothing is passed to ask for
this.  ``solve_incremental(problem, incumbent, delta)`` continues a
session exactly when ``incumbent`` is the solution that session returned
last and ``problem`` is what ``apply_delta(<the session's problem>,
delta, incumbent=incumbent)`` returned for this very ``delta`` — checked
by identity, through a handle on the solution and a one-shot token on
the derived problem.  Anything else (the first delta after a full
solve, two deltas branched from one incumbent, a hand-built or rebuilt
problem, a delta that removes seeds, tasks or switches) opens a new
session, which costs one pass over the fleet and gives the same answer
bit for bit.  A fallback to the
full solver or an exception leaves a session half-mutated, so it is
dropped; solutions already returned are snapshots and never change.

The differential churn-test harness pins this module down:
``tests/placement/test_incremental`` and ``test_churn_properties`` to the
reference solver (single-delta cases must match the full re-solve
exactly, random churn sequences must stay feasible and within (1 - eps)
of from-scratch utility, and the whole pipeline must be
bit-deterministic), ``tests/placement/test_session`` a continued session
to a freshly opened one, ``==`` on every solution and every switch
state after every step.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import PlacementError
from repro.placement.heuristic import (
    HeuristicPlacementSolver,
    _SwitchState,
    record_solve_metrics,
)
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    PollDemand,
    SeedSpec,
    TaskSpec,
    _full_env,
    compute_objective,
)

#: Blast-radius threshold: if more than this fraction of seeds or
#: switches is dirty, fall back to a full re-solve.
FALLBACK_RATIO = 0.3


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


def _churn_task(task: TaskSpec, available: Mapping[int, Mapping[str, float]],
                removed_seeds: AbstractSet[str],
                poll_changes: Mapping[str, Tuple[PollDemand, ...]]
                ) -> Optional[TaskSpec]:
    """``task`` after the delta: the same object when nothing in it
    changed, a rewritten copy otherwise, ``None`` when it is dropped — no
    seed left, or one lost every candidate switch (C1 makes the task
    unplaceable; a mandatory one raises)."""
    seeds: List[SeedSpec] = []
    changed = False
    for seed in task.seeds:
        if seed.seed_id in removed_seeds:
            changed = True
            continue
        candidates = tuple(n for n in seed.candidates if n in available)
        if not candidates:
            if task.mandatory:
                raise PlacementError(
                    f"mandatory task {task.task_id!r} lost every candidate "
                    f"switch under the churn delta")
            return None
        demands = poll_changes.get(seed.seed_id, seed.poll_demands)
        if (candidates != seed.candidates
                or demands is not seed.poll_demands):
            seed = SeedSpec(
                seed_id=seed.seed_id, task_id=seed.task_id,
                candidates=candidates, utility=seed.utility,
                poll_demands=tuple(demands))
            changed = True
        seeds.append(seed)
    if not seeds:
        return None
    if not changed:
        return task
    return TaskSpec(task_id=task.task_id, seeds=seeds,
                    mandatory=task.mandatory)


def _resize(problem: PlacementProblem, delta: ChurnDelta,
            available: Dict[int, Dict[str, float]]) -> None:
    """Write ``delta.capacity_changes`` into ``available``; a touched
    switch gets its own capacity dict, an unknown one is added."""
    for n, changes in delta.capacity_changes.items():
        if n in delta.removed_switches:
            continue
        base = (dict(available[n]) if n in available
                else {r: 0.0 for r in problem.resource_types})
        for r, v in changes.items():
            base[r] = float(v)
        available[n] = base


def apply_delta(problem: PlacementProblem, delta: ChurnDelta,
                incumbent: Optional[PlacementSolution] = None
                ) -> PlacementProblem:
    """The post-churn problem: ``problem`` with ``delta`` applied.

    ``incumbent`` (when given) becomes the new problem's previous
    placement/allocations — the ``plc'`` the next solve migrates from.
    A task whose seed loses every candidate switch is dropped entirely
    (C1 makes it unplaceable); dropping a *mandatory* task raises.

    The inputs are read-only and the result shares with them whatever
    the delta does not touch (task objects, capacity dicts).  When
    ``incumbent`` is what a live session returned for ``problem`` and the
    delta removes nothing, only the delta is visited and validated and
    the result can continue that session (module docstring, "Sessions").
    """
    session = incumbent._session if incumbent is not None else None
    if (session is not None and session._continues(problem, incumbent)
            and not (delta.removed_tasks or delta.removed_seeds
                     or delta.removed_switches)):
        return session._derive(delta)

    removed_tasks = set(delta.removed_tasks)
    removed_seeds = set(delta.removed_seeds)
    removed_switches = set(delta.removed_switches)

    available: Dict[int, Dict[str, float]] = {
        n: res for n, res in problem.available.items()
        if n not in removed_switches}
    _resize(problem, delta, available)

    tasks: List[TaskSpec] = []
    for task in list(problem.tasks) + list(delta.added_tasks):
        if task.task_id not in removed_tasks:
            task = _churn_task(task, available, removed_seeds,
                               delta.poll_changes)
            if task is not None:
                tasks.append(task)

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
    """Alg. 1 restarted from the incumbent, restricted to the dirty set
    that :func:`compute_dirty` derives from ``delta``.

    Constructing one *opens a session* (module docstring): the instance
    outlives :meth:`solve` and :func:`solve_incremental` hands it the
    next delta through :meth:`_advance` when the caller's arguments
    prove nothing else happened in between.
    """

    def __init__(self, problem: PlacementProblem,
                 incumbent: PlacementSolution,
                 delta: Optional[ChurnDelta] = None) -> None:
        problem = _with_incumbent_previous(problem, incumbent)
        super().__init__(problem)
        self.incumbent = incumbent
        self.delta = delta
        #: seed id -> (task position, seed position) in ``problem.tasks``:
        #: problem order as a sort key, and the way from a seed to the
        #: task that holds it now.  Stable for the session's lifetime —
        #: a delta that removes anything ends the session.
        self._where: Dict[str, Tuple[int, int]] = {}
        #: switch -> seeds that list it as a candidate.
        self._by_candidate: Dict[int, List[str]] = {}
        self._index_tasks(0)
        self.dirty_switches, self.dirty_seeds = compute_dirty(
            problem, incumbent, delta)
        self._summarize_dirty()
        #: Per placed seed, ``utility(seed, allocation)``: MU is the fold
        #: of these in task -> seed order, so a re-solve evaluates only
        #: the seeds whose allocation it may have changed.
        self._terms: Dict[str, float] = {}
        #: Positions of the fully placed tasks; ``None`` until the first
        #: greedy pass has looked at every task once.
        self._placed: Optional[Set[int]] = None
        #: Switches whose ``_SwitchState`` is not what a warm start from
        #: the incumbent computes: all of them until the first rebase,
        #: then whatever the last re-solve marked.
        self._stale: Set[int] = set(self.states)
        #: The solution :meth:`solve` returned last — the only incumbent
        #: the session can continue from; ``None`` while a solve is in
        #: flight and for good once one fell back or raised.
        self._solution: Optional[PlacementSolution] = None
        # Load the incumbent into the tables; the first rebase turns
        # them into switch accounting.
        for task in self.problem.tasks:
            for seed in task.seeds:
                sid = seed.seed_id
                state = self.states.get(incumbent.placement.get(sid))
                if state is not None:
                    state.residents.append(sid)
                    self.placement[sid] = state.switch
                    self.allocations[sid] = incumbent.allocations.get(sid, {})

    def __deepcopy__(self, memo) -> None:
        # A copy of a solution or problem is a plain value; it does not
        # drag the session along, and cannot continue it (identity rule).
        return None

    def _index_tasks(self, start: int) -> None:
        """Index the tasks from position ``start`` on."""
        tasks = self.problem.tasks
        for position in range(start, len(tasks)):
            for k, seed in enumerate(tasks[position].seeds):
                self._seed_by_id[seed.seed_id] = seed
                self._where[seed.seed_id] = (position, k)
                for n in seed.candidates:
                    self._by_candidate.setdefault(n, []).append(seed.seed_id)

    def _summarize_dirty(self) -> None:
        """What the greedy pass and the fallback ladder read off the
        dirty set and the delta."""
        placement = self.incumbent.placement
        #: Dirty seeds that hold incumbent state (placed somewhere).  The
        #: rest are unplaced-task retries, which cost almost nothing
        #: thanks to the prescreen in :meth:`_greedy_dirty`, so the
        #: fallback heuristic ignores them.
        self._dirty_placed = {sid for sid in self.dirty_seeds
                              if placement.get(sid) is not None}
        #: Seeds introduced by this delta: never prescreen-skipped — they
        #: have not had a fair shot yet (including the reclaim pass).
        self._new_seeds: Set[str] = (
            {s.seed_id for t in self.delta.added_tasks for s in t.seeds}
            if self.delta is not None else set())

    # ------------------------------------------------------------------
    # The session across deltas
    # ------------------------------------------------------------------
    def _continues(self, problem: PlacementProblem,
                   incumbent: PlacementSolution) -> bool:
        """Is the session exactly at (``problem``, ``incumbent``)?"""
        return self._solution is incumbent and self.problem is problem

    def _derive(self, delta: ChurnDelta) -> PlacementProblem:
        """``apply_delta`` for a removal-free delta on the session's own
        problem and solution: visit, rewrite and validate only what the
        delta names, share the rest, and leave the token that lets
        :func:`solve_incremental` bring the result back here."""
        base, incumbent = self.problem, self._solution
        available = dict(base.available)
        _resize(base, delta, available)
        tasks = list(base.tasks)
        for position in sorted({self._where[sid][0]
                                for sid in delta.poll_changes
                                if sid in self._where}):
            tasks[position] = _churn_task(tasks[position], available,
                                          frozenset(), delta.poll_changes)
        seen: Set[str] = set()
        for task in delta.added_tasks:
            task = _churn_task(task, available, frozenset(),
                               delta.poll_changes)
            if task is None:
                continue
            for seed in task.seeds:
                if seed.seed_id in self._where or seed.seed_id in seen:
                    raise PlacementError(
                        f"duplicate seed id {seed.seed_id!r}")
                seen.add(seed.seed_id)
            tasks.append(task)
        derived = copy.copy(base)
        derived.tasks = tasks
        derived.available = available
        # The solver replaces allocation dicts, never writes into them,
        # so the incumbent's can be plc'/res' as they are.
        derived.previous_placement = dict(incumbent.placement)
        derived.previous_allocations = dict(incumbent.allocations)
        derived._lineage = (self, delta)
        return derived

    def _advance(self, problem: PlacementProblem, delta: ChurnDelta) -> None:
        """Take the next delta: ``problem`` is ``self._derive(delta)``.

        The dirty set comes from the session's indexes and equals
        :func:`compute_dirty` on the same arguments (no seed or switch
        vanished, and every placed seed sits on a live candidate).
        """
        self.incumbent = self._solution
        known = len(self.problem.tasks)
        self.problem = problem
        self.delta = delta
        self._index_tasks(known)
        placement = self.placement
        dirty_switches = set(delta.capacity_changes)
        for sid in delta.poll_changes:
            where = self._where.get(sid)
            if where is not None:
                self._seed_by_id[sid] = \
                    problem.tasks[where[0]].seeds[where[1]]
                home = placement.get(sid)
                if home is not None:
                    dirty_switches.add(home)
        dirty_seeds: Set[str] = set()
        for n in dirty_switches:
            state = self.states.get(n)
            if state is not None:
                dirty_seeds.update(state.residents)
            dirty_seeds.update(sid for sid in self._by_candidate.get(n, ())
                               if sid not in placement)
        for position in range(known, len(problem.tasks)):
            dirty_seeds.update(s.seed_id
                               for s in problem.tasks[position].seeds)
        # C1: a dirty member drags its unplaced siblings along.
        for position in {self._where[sid][0] for sid in dirty_seeds}:
            dirty_seeds.update(s.seed_id
                               for s in problem.tasks[position].seeds
                               if s.seed_id not in placement)
        self.dirty_switches, self.dirty_seeds = dirty_switches, dirty_seeds
        self._summarize_dirty()

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

    def _utility_term(self, seed_id: str) -> float:
        return self._seed_by_id[seed_id].utility.evaluate(
            _full_env(self.problem, self.allocations[seed_id]))

    def _rebase(self, switches: Set[int]) -> None:
        """Rebuild ``switches`` as a warm start from the incumbent would.

        Each gets a fresh ``_SwitchState`` at the problem's capacity, and
        its *clean* incumbent residents are committed back at their
        incumbent allocation, in problem order, bookkeeping only: no
        feasibility checks run, since nothing about a clean seed or its
        switch changed.  Dirty residents stay out for the greedy pass.
        A seed whose incumbent allocation no longer satisfies any
        utility piece (shouldn't happen, but deltas are caller-supplied)
        degrades to dirty.  The warm commits are the baseline, not
        churn: ``touched`` is empty afterwards.

        A switch outside ``switches`` must hold exactly this state
        already — true when it was rebased earlier in the session and
        nothing has marked it since: its residents, their order and
        their allocations are what they were then, and a per-switch
        fold only ever sees that switch's own residents.  A marked
        switch is rebuilt rather than kept because its ``residents``
        are in commit order and its pieces are the solver's choice, not
        :meth:`_recover_piece`'s, and either changes the next LP.
        """
        # Every residue sits on a marked switch, and nothing is in
        # transit relative to the incumbent.
        self._reserved.clear()
        for n in sorted(switches):
            old = self.states.get(n)
            self.states[n] = _SwitchState(n, dict(self.problem.available[n]))
            if old is None:
                continue
            for sid in sorted(old.residents, key=self._where.__getitem__):
                del self.placement[sid]
                alloc = self.allocations.pop(sid)
                self.piece_choice.pop(sid, None)
                if sid not in self.dirty_seeds:
                    seed = self._seed_by_id[sid]
                    piece = self._recover_piece(seed, alloc)
                    if piece is not None:
                        self._commit(seed, n, piece, alloc)
                        if sid not in self._terms:
                            self._terms[sid] = self._utility_term(sid)
                        continue
                    self.dirty_seeds.add(sid)
                    self.dirty_switches.add(n)
                self._terms.pop(sid, None)
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

        Only tasks with a dirty member are visited (in Alg. 1 order); the
        others stay as placed or unplaced as the incumbent had them.
        Clean siblings of a dirty seed stay warm-committed unless the
        dirty member cannot be placed at all — then C1 forces the whole
        task out (clean siblings are evicted too, and their switches join
        the touched set for the LP pass).
        """
        tasks = self.problem.tasks
        if self._placed is None:
            self._placed = {
                position for position, task in enumerate(tasks)
                if all(s.seed_id in self.placement for s in task.seeds)}
        positions = {self._where[sid][0] for sid in self.dirty_seeds}
        for task in self._task_order([tasks[p] for p in sorted(positions)]):
            position = self._where[task.seeds[0].seed_id][0]
            self._placed.discard(position)
            members = [s for s in task.seeds
                       if s.seed_id in self.dirty_seeds]
            if (self.delta is not None
                    and all(self.incumbent.placement.get(s.seed_id) is None
                            for s in task.seeds)
                    and not any(s.seed_id in self._new_seeds
                                for s in task.seeds)):
                # Unplaced-task retry: prescreen without committing.
                # Commits only ever shrink later members' options, so a
                # member with no feasible spot *now* dooms the task — the
                # reference greedy would discover the same after a costly
                # commit-and-rollback cycle.  Only a delta proves the
                # clean switches are the incumbent's; without one (a
                # drain) the task may have lost its home just now and
                # gets the reclaim pass.
                if any(self._best_option(s) is None for s in task.seeds):
                    continue
            committed, placed = self._place_members(
                members, unstick=self._reclaim_for)
            if placed:
                self._placed.add(position)
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
        return [tasks[position].task_id for position in sorted(self._placed)]

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

        Placed dirty seeds, and clean seeds with a candidate on a
        dirty/touched switch — freed capacity there may attract them, and
        moving them propagates dirtiness to their source switch.
        """
        placement = self.placement
        eligible = {sid for sid in self.dirty_seeds if sid in placement}
        for n in self.dirty_switches | self.touched:
            for sid in self._by_candidate.get(n, ()):
                current = placement.get(sid)
                if current is not None and current != n:
                    eligible.add(sid)
        return eligible

    # ------------------------------------------------------------------
    # Fallback + entry point
    # ------------------------------------------------------------------
    def fallback_reason(self) -> Optional[str]:
        total_seeds = self.problem.num_seeds
        total_switches = len(self.problem.available)
        if not total_seeds or not total_switches:
            return None
        if len(self._dirty_placed) > FALLBACK_RATIO * total_seeds:
            return "dirty-seeds"
        if len(self.dirty_switches) > FALLBACK_RATIO * total_switches:
            return "dirty-switches"
        return None

    def _full_solve(self, reason: str, start: float) -> PlacementSolution:
        solution = HeuristicPlacementSolver(self.problem).solve()
        solution.runtime_s = time.perf_counter() - start
        solution.info.update({
            "incremental": False, "fallback": reason,
            "dirty_switches": len(self.dirty_switches),
            "dirty_seeds": len(self.dirty_seeds)})
        return solution

    def solve(self) -> PlacementSolution:
        start = time.perf_counter()
        # Until the return the tables are half-mutated: a fallback or an
        # exception leaves the session with nothing to continue.
        self._solution = None
        reason = self.fallback_reason()
        if reason is not None:
            return self._full_solve(reason, start)
        self._rebase(self._stale | self.dirty_switches)
        try:
            placed_tasks = self._greedy_dirty()
        except _FallbackNeeded:
            return self._full_solve("eviction", start)
        self.redistribute()
        if self.migrate(eligible=self._migration_eligible()):
            self.redistribute()
        runtime = time.perf_counter() - start
        # MU as compute_objective folds it — task -> seed order — from
        # the cached terms; only a marked switch can hold a changed one.
        hot = self.dirty_switches | self.touched
        for n in hot:
            for sid in self.states[n].residents:
                self._terms[sid] = self._utility_term(sid)
        objective = 0.0
        for task in self.problem.tasks:
            for seed in task.seeds:
                if seed.seed_id in self.placement:
                    objective += self._terms[seed.seed_id]
        solution = PlacementSolution(
            placement=dict(self.placement),
            allocations=dict(self.allocations),
            objective=objective, solver="incremental", runtime_s=runtime,
            placed_tasks=tuple(sorted(placed_tasks)), status="ok")
        solution.info.update({
            "incremental": True,
            "dirty_switches": len(self.dirty_switches),
            "dirty_seeds": len(self.dirty_seeds),
            "touched_switches": len(hot)})
        self._stale = hot
        solution._session = self
        self._solution = solution
        return solution


def _continued(problem: PlacementProblem, incumbent: PlacementSolution,
               delta: Optional[ChurnDelta]
               ) -> Optional[IncrementalPlacementSolver]:
    """The session these arguments continue, advanced to ``delta``.

    ``problem`` must be what ``apply_delta`` derived from the session's
    problem and latest solution for this very ``delta`` object.  The
    token is good for one solve and dropped either way, so problems
    never chain.
    """
    lineage, problem._lineage = problem._lineage, None
    if lineage is None:
        return None
    session, derived_for = lineage
    if derived_for is delta and session._solution is incumbent:
        session._advance(problem, delta)
        return session
    return None


def solve_incremental(problem: PlacementProblem,
                      incumbent: PlacementSolution,
                      delta: Optional[ChurnDelta] = None,
                      registry=None) -> PlacementSolution:
    """Incremental re-solve of ``problem`` starting from ``incumbent``.

    ``problem`` is the *post-churn* problem (see :func:`apply_delta`);
    ``delta`` scopes the dirty set (omit it to have the solver diff the
    incumbent against the problem: every homeless seed is then dirty and
    gets a full placement attempt, reclaim pass included).  An empty
    delta returns the incumbent untouched — same placement, same
    allocations, zero migrations.
    ``registry`` records solve metrics exactly like the full solvers.

    When the arguments are the next step of a live session the re-solve
    continues it and pays for the switches that changed; otherwise it
    opens one, which costs a pass over the fleet.  The result is the
    same either way.
    """
    if delta is not None and delta.is_empty():
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
    solver = _continued(problem, incumbent, delta)
    if solver is None:
        solver = IncrementalPlacementSolver(problem, incumbent, delta=delta)
    solution = solver.solve()
    if registry is not None:
        record_solve_metrics(registry, solution)
    return solution
