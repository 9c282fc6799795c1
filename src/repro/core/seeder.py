"""The seeder: FARM's centralized M&M control instance (SII-C-b).

The seeder compiles submitted Almanac tasks, resolves placement against
the SDN controller, runs the global placement optimizer, and reconciles
the network to the optimizer's output: deploying, reallocating, migrating,
and undeploying seeds.  It also provides the routing fabric for
seed <-> seed and harvester <-> seed messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.almanac.analysis import encode_polling_subjects
from repro.almanac.compiler import MachineBlueprint, compile_machine
from repro.almanac.parser import parse
from repro.almanac.poly import LinPoly
from repro.errors import AlmanacAnalysisError, DeploymentError
from repro.net.controller import SdnController
from repro.placement.heuristic import solve_heuristic
from repro.placement.incremental import solve_incremental
from repro.placement.milp import solve_milp
from repro.placement.model import (
    PlacementProblem,
    PlacementSolution,
    PollDemand,
    SeedSpec,
    TaskSpec,
)
from repro.core.comm import (
    BusMessage,
    ControlBus,
    SoilCommConfig,
    estimate_size_bytes,
)
from repro.core.reliable import ReliableEndpoint, RetryPolicy
from repro.core.soil import Soil
from repro.core.task import TaskDefinition
from repro.sim.engine import Simulator
from repro.switchsim.chassis import RESOURCE_TYPES, SwitchFleet
from repro.switchsim.stratum import driver_for

#: Soil-side install overhead a deploy command pays on top of the bus
#: latency (unpack + validate + arm; the historic 1 ms control latency).
DEPLOY_LATENCY_S = 1e-3

#: State-transfer bandwidth between switches during migration (B/s).
MIGRATION_BANDWIDTH_BPS = 12.5e6

#: Fixed overhead per migration (snapshot + resume bookkeeping).
MIGRATION_OVERHEAD_S = 2e-3


@dataclass
class ManagedSeed:
    """The seeder's bookkeeping for one logical seed."""

    seed_id: str
    task_id: str
    machine_name: str
    blueprint: MachineBlueprint
    candidates: Tuple[int, ...]
    event_cpu_s: float
    switch: Optional[int] = None  # None until deployed
    allocation: Dict[str, float] = field(default_factory=dict)
    current_state: str = ""
    migrating: bool = False
    #: While migrating: the switch the seed left, so a dead-lettered
    #: deploy at the target can roll the seed back instead of stranding it.
    migration_source: Optional[int] = None


@dataclass
class ActiveTask:
    definition: TaskDefinition
    blueprints: Dict[str, MachineBlueprint]
    seeds: List[ManagedSeed]


class Seeder:
    """Central control: task lifecycle + global placement."""

    ENDPOINT = "seeder"

    def __init__(self, sim: Simulator, controller: SdnController,
                 fleet: SwitchFleet, bus: ControlBus,
                 soil_config: Optional[SoilCommConfig] = None,
                 solver: str = "heuristic",
                 resource_types=RESOURCE_TYPES,
                 milp_time_limit_s: float = 10.0,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if solver not in ("heuristic", "milp"):
            raise DeploymentError(f"unknown solver {solver!r}")
        self.sim = sim
        self.controller = controller
        self.fleet = fleet
        self.bus = bus
        self.solver = solver
        self.milp_time_limit_s = milp_time_limit_s
        self.resource_types = tuple(resource_types)
        self.retry_policy = retry_policy or RetryPolicy()
        self.soils: Dict[int, Soil] = {}
        for switch in fleet:
            soil = Soil(sim, switch, driver_for(switch), bus,
                        config=soil_config, resource_types=resource_types,
                        retry_policy=self.retry_policy)
            soil.seed_message_router = self._route_seed_message
            soil.add_transition_listener(self._make_transition_listener(soil))
            self.soils[switch.switch_id] = soil
        self.tasks: Dict[str, ActiveTask] = {}
        #: Switches currently considered dead (fault-tolerance manager);
        #: they contribute no capacity and host no seeds.
        self.failed_switches: set = set()
        #: Switches administratively drained (remediation `cordon`): same
        #: placement exclusion as failed, but the soil keeps running so
        #: in-flight work lands and the drain is graceful.
        self.cordoned_switches: set = set()
        self.last_solution: Optional[PlacementSolution] = None
        #: Reliable command channel: deploy/migrate/undeploy commands out,
        #: soil lifecycle reports (deployed/undeployed/...) back in.
        self.channel = ReliableEndpoint(
            bus, sim, self.ENDPOINT, self._on_soil_event,
            policy=self.retry_policy)
        # Observability: shared with the bus (and thus with every soil).
        self.metrics = bus.metrics
        self.tracer = bus.tracer
        self._m_optimizations = self.metrics.counter(
            "farm_seeder_optimizations_total",
            "Global placement optimizations run.")
        self._m_migrations = self.metrics.counter(
            "farm_seeder_migrations_total",
            "Seed migrations initiated (SV-B).")
        self._m_lost_commands = self.metrics.counter(
            "farm_seeder_lost_commands_total",
            "Commands that exhausted every retransmission.")
        self._m_migration_rollbacks = self.metrics.counter(
            "farm_seeder_migration_rollbacks_total",
            "Migrations rolled back to their source after a dead-lettered "
            "deploy at the target.")
        self._g_tasks = self.metrics.gauge(
            "farm_seeder_tasks", "Tasks currently active.")

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def submit(self, definition: TaskDefinition,
               reoptimize: bool = True) -> ActiveTask:
        """Compile and register a task; optionally place it immediately."""
        if definition.task_id in self.tasks:
            raise DeploymentError(
                f"task {definition.task_id!r} already submitted")
        program = parse(definition.source)
        # Static semantic validation before anything is shipped to a soil.
        from repro.almanac.typecheck import assert_well_formed
        assert_well_formed(program)
        blueprints: Dict[str, MachineBlueprint] = {}
        seeds: List[ManagedSeed] = []
        for config in definition.machines:
            blueprint = compile_machine(
                program, config.machine_name, self.controller,
                externals=config.externals,
                resource_names=self.resource_types)
            blueprints[config.machine_name] = blueprint
            for index, site in enumerate(blueprint.sites):
                seed_id = (f"{definition.task_id}/"
                           f"{config.machine_name}#{index}")
                seeds.append(ManagedSeed(
                    seed_id=seed_id, task_id=definition.task_id,
                    machine_name=config.machine_name, blueprint=blueprint,
                    candidates=site.switches,
                    event_cpu_s=config.event_cpu_s,
                    current_state=blueprint.initial_state))
        task = ActiveTask(definition=definition, blueprints=blueprints,
                          seeds=seeds)
        self.tasks[definition.task_id] = task
        self._g_tasks.set(len(self.tasks))
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"compile {definition.task_id}", track="seeder",
                           cat="lifecycle",
                           args={"task": definition.task_id,
                                 "seeds": len(seeds)})
        if definition.harvester is not None:
            definition.harvester.attach(self.sim, self.bus,
                                        definition.task_id, self)
        if reoptimize:
            self.reoptimize()
        return task

    def remove_task(self, task_id: str, reoptimize: bool = True) -> None:
        task = self.tasks.pop(task_id, None)
        if task is None:
            raise DeploymentError(f"unknown task {task_id!r}")
        self._g_tasks.set(len(self.tasks))
        for seed in task.seeds:
            if self._is_live(seed):
                self._send_command(seed.switch, {
                    "cmd": "undeploy", "seed_id": seed.seed_id,
                    "reason": "remove"})
            seed.switch = None
            seed.migrating = False
        if task.definition.harvester is not None:
            task.definition.harvester.detach()
        if reoptimize and self.tasks:
            self.reoptimize()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def cordon(self, switch_id: int) -> bool:
        """Administratively drain a switch: exclude it from placement as
        if failed, but leave its soil running so the exit is graceful.
        The caller follows up with :meth:`reoptimize` (usually scoped to
        the switch) to actually move the seeds off.  Returns True if the
        switch was newly cordoned.
        """
        if switch_id not in self.soils \
                or switch_id in self.cordoned_switches:
            return False
        self.cordoned_switches.add(switch_id)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"cordon sw{switch_id}", track="seeder",
                           cat="placement")
        return True

    def uncordon(self, switch_id: int) -> bool:
        """Return a drained switch to the placement pool."""
        if switch_id not in self.cordoned_switches:
            return False
        self.cordoned_switches.discard(switch_id)
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"uncordon sw{switch_id}", track="seeder",
                           cat="placement")
        return True

    def excluded_switches(self) -> set:
        """Switches contributing no capacity: failed or cordoned."""
        return self.failed_switches | self.cordoned_switches

    def build_problem(self, scope: Optional[set] = None
                      ) -> PlacementProblem:
        """Snapshot all active tasks into one optimization problem.

        Each seed's utility is that of its *current* state — a seed sitting
        in a high-utility alarm state is worth keeping resourced.

        ``scope`` restricts the re-placement blast radius: seeds currently
        living on a switch *outside* ``scope`` are pinned where they are
        (single-candidate), so only seeds on impacted switches — plus any
        undeployed stragglers — may move.  The capacity picture stays
        global, so the pinned seeds' consumption is still accounted for.
        """
        excluded = self.excluded_switches()
        task_specs: List[TaskSpec] = []
        previous_placement: Dict[str, int] = {}
        previous_allocations: Dict[str, Dict[str, float]] = {}
        for task in self.tasks.values():
            specs: List[SeedSpec] = []
            for seed in task.seeds:
                # A failed switch contributes neither capacity nor
                # candidates; a seed pinned exclusively to dead switches
                # is parked (excluded) rather than sinking its whole task
                # -- availability over strict C1 during failures.
                alive = tuple(n for n in seed.candidates
                              if n not in excluded)
                if not alive:
                    continue
                if (scope is not None and seed.switch is not None
                        and seed.switch not in scope
                        and seed.switch not in excluded):
                    # Outside the blast radius: stay put.
                    alive = (seed.switch,)
                utility = seed.blueprint.utility_for_state(
                    seed.current_state or seed.blueprint.initial_state)
                demands = self._poll_demands(seed)
                specs.append(SeedSpec(
                    seed_id=seed.seed_id, task_id=seed.task_id,
                    candidates=alive, utility=utility,
                    poll_demands=demands))
                if seed.switch is not None \
                        and seed.switch not in excluded:
                    previous_placement[seed.seed_id] = seed.switch
                    previous_allocations[seed.seed_id] = dict(seed.allocation)
            if specs:
                task_specs.append(TaskSpec(
                    task_id=task.definition.task_id, seeds=specs,
                    mandatory=task.definition.mandatory))
        available = {
            switch.switch_id: switch.available_resources()
            for switch in self.fleet
            if switch.switch_id not in excluded}
        # alpha_poll converts polling demand (subjects/s) into PCIe units
        # (KB/s): one counter read moves BYTES_PER_COUNTER bytes (SIV-B-b's
        # architecture-dependent coefficient).
        from repro.switchsim.chassis import PCIE_UNIT_BPS
        from repro.switchsim.pcie import BYTES_PER_COUNTER
        alpha = {switch.switch_id: BYTES_PER_COUNTER / PCIE_UNIT_BPS
                 for switch in self.fleet}
        return PlacementProblem(
            tasks=task_specs, available=available,
            resource_types=self.resource_types,
            alpha_poll=alpha,
            previous_placement=previous_placement,
            previous_allocations=previous_allocations)

    def _poll_demands(self, seed: ManagedSeed) -> Tuple[PollDemand, ...]:
        demands = []
        num_ports = self._reference_num_ports(seed)
        for info in seed.blueprint.poll_vars:
            if info.kind == "time":
                continue
            subjects = encode_polling_subjects(info.what, num_ports)
            try:
                inv = info.ival.inverse_linear()
            except AlmanacAnalysisError:
                # Non-linear inverse: pin to the interval at zero resources.
                interval = max(info.ival.evaluate(
                    {r: 0.0 for r in self.resource_types}), 1e-3)
                inv = LinPoly.constant(1.0 / interval)
            demands.append(PollDemand(subject=subjects, inv_interval=inv,
                                      weight=float(max(len(subjects), 1))))
        return tuple(demands)

    def _reference_num_ports(self, seed: ManagedSeed) -> int:
        switch = self.fleet.get(seed.candidates[0])
        return switch.asic.num_ports

    def reoptimize(self, restore_snapshots: Optional[Mapping[str, Any]]
                   = None, scope: Optional[set] = None
                   ) -> PlacementSolution:
        """Run the global placement optimizer and reconcile the network.

        ``restore_snapshots`` maps seed ids to checkpointed inner state:
        a seed deployed fresh by this reconciliation resumes from its
        snapshot instead of restarting (fault-tolerance failover).
        ``scope`` limits which switches' seeds may move (targeted
        re-solve; see :meth:`build_problem`) and warm-starts the solver
        from the live placement (:mod:`repro.placement.incremental`, or
        MILP with the out-of-scope seeds frozen); ``None`` is the full
        solve.
        """
        problem = self.build_problem(scope=scope)
        if self.solver == "milp":
            if scope is not None and problem.previous_placement:
                # No true HiGHS MIP-start: warm-start by freezing the
                # out-of-scope seeds to their current switch.
                incumbent = self._incumbent_solution(problem)
                scope_set = set(scope)
                frozen = {sid for sid, n
                          in problem.previous_placement.items()
                          if n not in scope_set}
                solution = solve_milp(problem,
                                      time_limit_s=self.milp_time_limit_s,
                                      registry=self.metrics,
                                      warm_start=incumbent,
                                      frozen_seeds=frozen)
                solution.info.setdefault("incremental", True)
                solution.info.setdefault("dirty_switches", len(scope_set))
            else:
                solution = solve_milp(problem,
                                      time_limit_s=self.milp_time_limit_s,
                                      registry=self.metrics)
            if solution.status == "invalid-incumbent":
                # The time limit left an incumbent that breaks (C1)-(C4);
                # reconciling to its empty placement would undeploy the
                # fleet, so place with Alg. 1 instead.
                solution = solve_heuristic(problem, registry=self.metrics)
        elif scope is not None:
            solution = solve_incremental(
                problem, self._incumbent_solution(problem),
                scope=set(scope), registry=self.metrics)
        else:
            solution = solve_heuristic(problem, registry=self.metrics)
        self._m_optimizations.inc()
        self.last_solution = solution
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("reoptimize", track="seeder", cat="placement",
                           args={"solver": self.solver,
                                 "placed": len(solution.placement),
                                 "objective": solution.objective,
                                 "scope": sorted(scope) if scope else None,
                                 "incremental": bool(
                                     solution.info.get("incremental")),
                                 "dirty": solution.info.get(
                                     "dirty_seeds")})
        self._reconcile(solution, restore_snapshots or {})
        return solution

    def _incumbent_solution(self, problem: PlacementProblem
                            ) -> PlacementSolution:
        """The live placement as a warm-start incumbent for ``problem``."""
        return PlacementSolution(
            placement=dict(problem.previous_placement),
            allocations={sid: dict(alloc) for sid, alloc
                         in problem.previous_allocations.items()},
            objective=0.0, solver="incumbent")

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _is_live(self, seed: ManagedSeed) -> bool:
        """Is the seed actually running on its soil (deploy landed)?"""
        return (seed.switch is not None
                and seed.seed_id in self.soils[seed.switch].deployments)

    def _reconcile(self, solution: PlacementSolution,
                   restore_snapshots: Optional[Mapping[str, Any]] = None
                   ) -> None:
        restore_snapshots = restore_snapshots or {}
        for task in self.tasks.values():
            for seed in task.seeds:
                if seed.migrating:
                    # A migration is mid-flight; touching the seed now
                    # would race its undeploy/deploy pair.  The next
                    # reconciliation sees the settled state.
                    continue
                target = solution.placement.get(seed.seed_id)
                allocation = solution.allocations.get(seed.seed_id, {})
                if target is None:
                    if self._is_live(seed):
                        self._send_command(seed.switch, {
                            "cmd": "undeploy", "seed_id": seed.seed_id,
                            "reason": "displaced"})
                    seed.switch = None
                    seed.allocation = {}
                elif seed.switch is None:
                    self._deploy(task, seed, target, allocation,
                                 snapshot=restore_snapshots.get(
                                     seed.seed_id))
                elif seed.switch != target:
                    if self._is_live(seed):
                        self._migrate(task, seed, target, allocation)
                    else:
                        # Deploy command still in flight: retarget the
                        # bookkeeping and race it — whichever lands as a
                        # stale copy is swept by the deployed-event check.
                        seed.switch = target
                        seed.allocation = dict(allocation)
                        self._deploy(task, seed, target, allocation,
                                     snapshot=restore_snapshots.get(
                                         seed.seed_id))
                else:
                    if not _alloc_close(seed.allocation, allocation):
                        seed.allocation = dict(allocation)
                        if self._is_live(seed):
                            self._send_command(target, {
                                "cmd": "reallocate",
                                "seed_id": seed.seed_id,
                                "allocation": dict(allocation)})
        self._sweep_stale_deployments()

    def _sweep_stale_deployments(self) -> None:
        """Undeploy seed copies running where the bookkeeping says they
        should not be (split-brain cleanup after partitions heal)."""
        expected: Dict[str, Optional[int]] = {}
        migrating: set = set()
        for task in self.tasks.values():
            for seed in task.seeds:
                expected[seed.seed_id] = seed.switch
                if seed.migrating:
                    migrating.add(seed.seed_id)
        for switch_id, soil in self.soils.items():
            if soil.failed:
                continue
            for seed_id in list(soil.deployments):
                if seed_id in migrating:
                    continue  # its undeploy/deploy pair is in flight
                if expected.get(seed_id) != switch_id:
                    self._send_command(switch_id, {
                        "cmd": "undeploy", "seed_id": seed_id,
                        "reason": "stale"})

    def _deploy(self, task: ActiveTask, seed: ManagedSeed, target: int,
                allocation: Mapping[str, float],
                snapshot: Optional[Mapping[str, Any]] = None) -> None:
        seed.switch = target
        seed.allocation = dict(allocation)
        self._send_deploy(seed, target, snapshot)

    def _migrate(self, task: ActiveTask, seed: ManagedSeed, target: int,
                 allocation: Mapping[str, float]) -> None:
        """SV-B: undeploy at the source (its reply carries the snapshot),
        transfer the state, deploy at the destination, resume."""
        old_switch = seed.switch
        seed.migrating = True
        seed.migration_source = old_switch
        self._m_migrations.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"migrate {seed.seed_id}", track="seeder",
                           cat="lifecycle",
                           args={"trace_id": seed.seed_id,
                                 "from": old_switch, "to": target})
        seed.switch = target
        seed.allocation = dict(allocation)
        self._send_command(old_switch, {
            "cmd": "undeploy", "seed_id": seed.seed_id,
            "reason": "migrate", "dest": target})

    # ------------------------------------------------------------------
    # Command channel (reliable seeder -> soil control plane)
    # ------------------------------------------------------------------
    def _send_command(self, switch_id: int,
                      payload: Dict[str, Any]) -> None:
        self.channel.send(f"soil/{switch_id}", payload,
                          on_dead=self._on_command_dead_letter)

    def _send_deploy(self, seed: ManagedSeed, target: int,
                     snapshot: Optional[Mapping[str, Any]]) -> None:
        config = self._config_for(seed)
        if config is None:
            return  # task vanished while the command was being prepared
        payload = {
            "cmd": "deploy", "seed_id": seed.seed_id,
            "task_id": seed.task_id,
            "program_xml": seed.blueprint.xml_payload,
            "machine_name": seed.machine_name,
            "externals": config.externals,
            "allocation": dict(seed.allocation),
            "snapshot": snapshot, "event_cpu_s": config.event_cpu_s}
        self.channel.send(f"soil/{target}", payload,
                          on_dead=self._on_command_dead_letter,
                          extra_latency_s=DEPLOY_LATENCY_S)

    def _config_for(self, seed: ManagedSeed):
        task = self.tasks.get(seed.task_id)
        if task is None:
            return None
        return next(c for c in task.definition.machines
                    if c.machine_name == seed.machine_name)

    def _find_seed(self, seed_id: Optional[str]) -> Optional[ManagedSeed]:
        if seed_id is None:
            return None
        for task in self.tasks.values():
            for seed in task.seeds:
                if seed.seed_id == seed_id:
                    return seed
        return None

    def _on_soil_event(self, message: BusMessage) -> None:
        """Soil lifecycle reports arriving on the reliable channel."""
        payload = message.payload
        if not isinstance(payload, dict) or "event" not in payload:
            return
        event = payload["event"]
        seed = self._find_seed(payload.get("seed_id"))
        if event == "deployed":
            self._on_deployed(seed, payload)
        elif event == "undeployed":
            self._on_undeployed(seed, payload)
        elif event == "deploy-failed":
            if seed is not None and seed.switch == payload.get("switch"):
                seed.switch = None
                seed.allocation = {}
                seed.migrating = False
                seed.migration_source = None

    def _on_deployed(self, seed: Optional[ManagedSeed],
                     payload: Dict[str, Any]) -> None:
        switch = payload.get("switch")
        seed_id = payload.get("seed_id")
        if seed is None or seed.switch != switch:
            # Task removed or seed retargeted while the command flew:
            # the copy that just started is stale — take it down.
            self._send_command(switch, {
                "cmd": "undeploy", "seed_id": seed_id, "reason": "stale"})
            return
        seed.current_state = payload.get("state") or seed.current_state
        seed.migrating = False
        seed.migration_source = None
        # The allocation may have been re-optimized while the deploy was
        # in flight; converge the live deployment to the bookkeeping.
        soil = self.soils.get(switch)
        live = soil.deployments.get(seed_id) if soil is not None else None
        if live is not None and not _alloc_close(live.allocation,
                                                 seed.allocation):
            self._send_command(switch, {
                "cmd": "reallocate", "seed_id": seed_id,
                "allocation": dict(seed.allocation)})

    def _on_undeployed(self, seed: Optional[ManagedSeed],
                       payload: Dict[str, Any]) -> None:
        if payload.get("reason") != "migrate" or seed is None:
            return
        snapshot = payload.get("snapshot")
        state_size = estimate_size_bytes(snapshot)
        transfer = (MIGRATION_OVERHEAD_S
                    + state_size / MIGRATION_BANDWIDTH_BPS)
        self.sim.schedule(transfer, self._finish_migration, seed, snapshot,
                          label=f"migrate {seed.seed_id} "
                                f"->{seed.switch}",
                          cost_key=("seeder", seed.switch, seed.seed_id,
                                    "migrate"))

    def _finish_migration(self, seed: ManagedSeed,
                          snapshot: Optional[Mapping[str, Any]]) -> None:
        if seed.switch is None or self._find_seed(seed.seed_id) is None:
            seed.migrating = False
            return  # task removed while the state was in transit
        if self._is_live(seed):
            seed.migrating = False
            return
        self._send_deploy(seed, seed.switch, snapshot)

    def _on_command_dead_letter(self, dst: str, payload: Any,
                                attempts: int) -> None:
        """A command exhausted its retries (destination dead or
        partitioned beyond the retry horizon)."""
        self._m_lost_commands.inc()
        if not isinstance(payload, dict):
            return
        seed = self._find_seed(payload.get("seed_id"))
        if seed is None:
            return
        cmd = payload.get("cmd")
        if cmd == "deploy":
            try:
                switch = int(dst.rsplit("/", 1)[1])
            except (ValueError, IndexError):
                return
            if seed.switch == switch and not self._is_live(seed):
                source = seed.migration_source
                seed.migrating = False
                seed.migration_source = None
                if self._usable_rollback_target(source, switch):
                    # Mid-migration: the target never answered, but the
                    # source is still fine — roll the seed back with the
                    # snapshot the dead command carried, instead of
                    # stranding it undeployed until some future
                    # reoptimize.
                    seed.switch = source
                    self._m_migration_rollbacks.inc()
                    tracer = self.tracer
                    if tracer.enabled:
                        tracer.instant(
                            f"migration-rollback {seed.seed_id}",
                            track="seeder", cat="lifecycle",
                            args={"trace_id": seed.seed_id,
                                  "from": switch, "to": source})
                    self._send_deploy(seed, source,
                                      payload.get("snapshot"))
                else:
                    # Give up on this placement; the fault-tolerance
                    # manager (or the next reoptimize) finds the seed a
                    # new home — nudge one so it isn't stranded forever.
                    seed.switch = None
                    seed.allocation = {}
                    self.sim.schedule(0.0, self._rescue_reoptimize,
                                      label=f"rescue {seed.seed_id}")
        elif cmd == "undeploy" and payload.get("reason") == "migrate":
            # The source is unreachable: its copy of the state is lost.
            # Restart the seed at its target rather than blocking forever.
            seed.migrating = False
            seed.migration_source = None
            if seed.switch is not None and not self._is_live(seed):
                self._send_deploy(seed, seed.switch, None)

    def _usable_rollback_target(self, source: Optional[int],
                                target: int) -> bool:
        if source is None or source == target:
            return False
        if source in self.failed_switches \
                or source in self.cordoned_switches:
            return False
        soil = self.soils.get(source)
        return soil is not None and not soil.failed

    def _rescue_reoptimize(self) -> None:
        """Re-place after a dead-lettered deploy left a seed homeless.

        Scheduled (not inline) so the dead-letter callback never
        re-enters the reliable channel mid-dispatch; skipped when a
        concurrent reconciliation already found the seed a home.
        """
        if any(seed.switch is None and not seed.migrating
               for task in self.tasks.values() for seed in task.seeds):
            self.reoptimize()

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def _route_seed_message(self, src_seed_id: str, src_machine: str,
                            target_machine: str, dst: Optional[Any],
                            value: Any) -> None:
        """Deliver a seed's ``send x to M [@dst]`` (SIII-A-d)."""
        delivered = 0
        for task in self.tasks.values():
            for seed in task.seeds:
                if seed.machine_name != target_machine:
                    continue
                if seed.switch is None or seed.seed_id == src_seed_id:
                    continue
                if dst is not None and seed.switch != dst:
                    continue
                endpoint = f"seed/{seed.switch}/{seed.seed_id}"
                if not self.bus.is_registered(endpoint):
                    continue
                self.bus.send(
                    f"seed-route/{src_seed_id}", endpoint,
                    {"__from_machine__": src_machine, "value": value},
                    size_bytes=estimate_size_bytes(value))
                delivered += 1
        if delivered == 0 and dst is not None:
            raise DeploymentError(
                f"send from {src_seed_id!r}: no {target_machine!r} seed on "
                f"switch {dst!r}")

    def broadcast_to_seeds(self, task_id: str, machine: str,
                           dst: Optional[int], value: Any,
                           source: str) -> int:
        """Harvester -> seeds delivery (used by Harvester.send_to_seeds)."""
        task = self.tasks.get(task_id)
        if task is None:
            raise DeploymentError(f"unknown task {task_id!r}")
        sent = 0
        for seed in task.seeds:
            if seed.machine_name != machine or seed.switch is None:
                continue
            if dst is not None and seed.switch != dst:
                continue
            endpoint = f"seed/{seed.switch}/{seed.seed_id}"
            if not self.bus.is_registered(endpoint):
                continue
            self.bus.send(source, endpoint,
                          {"__harvester__": True, "value": value},
                          size_bytes=estimate_size_bytes(value))
            sent += 1
        return sent

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _make_transition_listener(self, soil: Soil):
        def listener(seed_id: str, old_state: str, new_state: str) -> None:
            for task in self.tasks.values():
                for seed in task.seeds:
                    if seed.seed_id == seed_id:
                        seed.current_state = new_state
                        return
        return listener

    def deployed_seed_count(self) -> int:
        return sum(soil.num_seeds for soil in self.soils.values())


def _alloc_close(a: Mapping[str, float], b: Mapping[str, float],
                 tol: float = 1e-9) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)
