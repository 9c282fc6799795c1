"""The soil: per-switch M&M foundation layer (SII-B-b).

The soil manages seed execution, tracks switch resources, aggregates
polling across seeds, and mediates every interaction between a seed and
the outside world (ASIC via the driver, other seeds, harvesters).

Polling aggregation: when several seeds poll the same subject, the soil
polls the ASIC once and fans the data out — "it is possible to poll the
data only once for all seeds to minimize communication to the ASIC and
avoid contention".  With aggregation disabled, every seed's poll crosses
the PCIe bus individually (the Fig. 8/9 comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.almanac.codegen import MachineInstance, vector_kernel
from repro.almanac.analysis import (
    ConstEnv,
    PollVarInfo,
    analyze_poll_var,
    encode_polling_subjects,
)
from repro.almanac.machine import CompiledMachine, flatten_machine
from repro.almanac.xmlcodec import decode_program
from repro.errors import DeploymentError, FarmError
from repro.net import filters as flt
from repro.sim.engine import PeriodicTimer, Simulator
from repro.switchsim.chassis import RESOURCE_TYPES, Switch
from repro.switchsim.stratum import SwitchDriver
from repro.switchsim.tcam import MONITORING, RuleAction, TcamRule
from repro.core.comm import (
    BusMessage,
    ControlBus,
    ExecutionMode,
    SoilCommConfig,
    estimate_size_bytes,
    seed_soil_cpu_cost,
    seed_soil_latency,
)
from repro.core.reliable import ReliableEndpoint, RetryPolicy

#: Default CPU cost of one seed event handler invocation (statistics
#: filtering + state machine bookkeeping) — the HH-class workload.
DEFAULT_EVENT_CPU_S = 10e-6

#: Baseline standing load of one deployed seed (timer + bookkeeping).
SEED_BASELINE_LOAD = 0.001

#: Shortest polling interval the soil will arm (protects the switch from a
#: zero/negative interval after a pathological reallocation).
MIN_POLL_INTERVAL_S = 1e-4

#: Packet samples pulled per probe firing.  Breadth-based detectors
#: (super-spreaders, floods) need to see many flows per batch.
PROBE_BATCH_SIZE = 64


@dataclass
class _PollPlan:
    """Precomputed firing plan for one trigger variable.

    Subjects and the armed interval only change on deploy/reallocate/
    ``set_trigger_interval``; deriving them there instead of on every
    firing keeps ``encode_polling_subjects`` and the rational-function
    interval evaluation out of the per-tick hot path.
    """

    info: PollVarInfo
    kind: str
    interval: Optional[float]
    subjects: Optional[frozenset]
    ports: Tuple[int, ...] = ()
    rule_patterns: Tuple[Any, ...] = ()
    #: Precomputed profiler attribution key (component, switch, seed,
    #: label) — shared by every event this plan schedules, so the
    #: profiled hot path never allocates a key per firing.
    cost_key: Optional[tuple] = None


class _PollGroup:
    """Seeds sharing one fused poll timer.

    Seeds whose plans agree on kind/interval/subjects *and* that were
    armed at the same instant fire in perfect sync forever, so the soil
    services them all from a single timer event: one heap entry, one
    callback, one poll and one charge pass, and a batch of deliveries
    that the vector dispatcher can run as one kernel invocation.  Scalar
    mode arms every trigger as a private group of one.
    """

    __slots__ = ("key", "members", "instances", "timer")

    def __init__(self, key: Any) -> None:
        self.key = key
        #: ``(deployment, var)`` in join order, and each member's machine
        #: instance alongside (a crash restart re-arms, hence re-joins).
        self.members: List[Tuple["SeedDeployment", str]] = []
        self.instances: List[MachineInstance] = []
        self.timer: Optional[PeriodicTimer] = None

    def leave(self, deployment: "SeedDeployment", var: str) -> None:
        for index, (member, name) in enumerate(self.members):
            if member is deployment and name == var:
                del self.members[index]
                del self.instances[index]
                return


#: Shared decode+flatten results; seeds of one task deploy the same XML on
#: hundreds of switches, and a shared CompiledMachine lets the closure and
#: vector-kernel caches amortize across the fleet (instances never mutate
#: the compiled object).
_COMPILE_CACHE: Dict[Tuple[str, str], CompiledMachine] = {}


def _compiled_for(program_xml: str, machine_name: str) -> CompiledMachine:
    key = (program_xml, machine_name)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        if len(_COMPILE_CACHE) >= 512:
            _COMPILE_CACHE.clear()
        program = decode_program(program_xml)
        compiled = flatten_machine(program, machine_name)
        _COMPILE_CACHE[key] = compiled
    return compiled


@dataclass
class SeedDeployment:
    """Everything the soil tracks about one running seed."""

    seed_id: str
    task_id: str
    machine_name: str
    instance: MachineInstance
    allocation: Dict[str, float]
    poll_vars: Dict[str, PollVarInfo]
    timers: Dict[str, PeriodicTimer] = field(default_factory=dict)
    rules: List[int] = field(default_factory=list)  # installed TCAM rule ids
    poll_plans: Dict[str, _PollPlan] = field(default_factory=dict)
    event_cpu_s: float = DEFAULT_EVENT_CPU_S
    events_delivered: int = 0
    messages_sent: int = 0
    deployed_at: float = 0.0


@dataclass
class _PollCacheEntry:
    time: float
    data: Any


class _SeedHost:
    """HostInterface implementation binding a seed to its soil."""

    def __init__(self, soil: "Soil", deployment: SeedDeployment) -> None:
        self.soil = soil
        self.deployment = deployment

    def now(self) -> float:
        return self.soil.sim.now

    def resources(self) -> Mapping[str, float]:
        return dict(self.deployment.allocation)

    def add_tcam_rule(self, rule: Dict[str, Any]) -> None:
        self.soil.install_rule(self.deployment, rule)

    def remove_tcam_rule(self, pattern: flt.Filter) -> None:
        self.soil.remove_rules(self.deployment, pattern)

    def get_tcam_rule(self, pattern: flt.Filter) -> Optional[Dict[str, Any]]:
        rule = self.soil.driver.get_table_entry(pattern)
        if rule is None:
            return None
        return {"__struct__": "Rule", "pattern": rule.pattern,
                "act": {"action": rule.action.value, **rule.params}}

    def send_to_harvester(self, value: Any) -> None:
        self.soil.send_to_harvester(self.deployment, value)

    def send_to_machine(self, machine: str, dst: Optional[Any],
                        value: Any) -> None:
        self.soil.send_to_machine(self.deployment, machine, dst, value)

    def set_trigger_interval(self, var: str, interval: float) -> None:
        self.soil.set_trigger_interval(self.deployment, var, interval)

    def transit_hook(self, old_state: str, new_state: str) -> None:
        self.soil.on_transition(self.deployment, old_state, new_state)

    def exec_external(self, command: str, arg: Any) -> Any:
        return self.soil.exec_external(self.deployment, command, arg)

    def log(self, message: str) -> None:
        self.soil.logs.append((self.soil.sim.now,
                               self.deployment.seed_id, message))


class Soil:
    """One switch's M&M foundation layer."""

    def __init__(self, sim: Simulator, switch: Switch, driver: SwitchDriver,
                 bus: ControlBus,
                 config: Optional[SoilCommConfig] = None,
                 resource_types=RESOURCE_TYPES,
                 retry_policy: Optional[RetryPolicy] = None,
                 batching: bool = True) -> None:
        self.sim = sim
        self.switch = switch
        self.driver = driver
        self.bus = bus
        self.config = config or SoilCommConfig()
        #: Grouping policy, read each time a trigger is armed: fuse
        #: same-plan triggers into shared poll groups, or (False) arm each
        #: as a group of one — the reference grouping that
        #: tests/core/test_batched_polls.py compares fused groups against.
        self.batching = batching
        self._poll_groups: Dict[Any, _PollGroup] = {}
        self._memberships: Dict[Tuple[str, str], _PollGroup] = {}
        #: Bumped whenever a seed leaves ``deployments`` or gets a fresh
        #: instance; a delivery fired under an older value re-resolves
        #: its members instead of trusting the group's lists.
        self._roster_epoch = 0
        #: One (subjects, ports, rule patterns) triple per distinct
        #: subject set: plans of different seeds share the objects, so
        #: poll-cache and group-key lookups compare by identity.
        self._subject_pool: Dict[frozenset, Tuple[frozenset, tuple,
                                                  tuple]] = {}
        # Incremental resource-accounting state (avoids full O(seeds)
        # recomputation on every deploy/undeploy/interval change).
        self._cpu_load_seeds: set = set()
        self._pcie_rates: Dict[str, Tuple[Any, ...]] = {}
        self._pcie_subject_rates: Dict[Any, Dict[Tuple[str, str],
                                                 float]] = {}
        self.resource_types = tuple(resource_types)
        self.deployments: Dict[str, SeedDeployment] = {}
        self.logs: List[Tuple[float, str, str]] = []
        #: External programs runnable via Almanac's exec() (List. 1).
        self.externals: Dict[str, Callable[[Any], Any]] = {}
        #: exec() CPU cost per call, per command (seconds of one core).
        self.external_costs: Dict[str, float] = {}
        self._poll_cache: Dict[Any, _PollCacheEntry] = {}
        self._transition_listeners: List[Callable[[str, str, str], None]] = []
        self.endpoint = f"soil/{switch.switch_id}"
        #: Set by the fault-tolerance machinery when the switch dies.
        self.failed = False
        #: "propagate" re-raises seed exceptions (strict, default);
        #: "restart" re-instantiates a crashed seed, up to max_seed_crashes.
        self.crash_policy = "propagate"
        self.max_seed_crashes = 3
        self.seed_crashes: Dict[str, int] = {}
        #: Reliable command channel (seeder -> soil commands, soil ->
        #: seeder lifecycle reports).  A failed soil goes silent: it
        #: neither acks nor processes until :meth:`power_on`.
        self.channel = ReliableEndpoint(
            bus, sim, self.endpoint, self._on_bus_message,
            policy=retry_policy, alive=lambda: not self.failed)
        #: Router installed by the seeder for inter-seed messages.
        self.seed_message_router: Optional[Callable[..., None]] = None
        # Observability: the soil registers into the bus's registry/tracer
        # (one shared pair per deployment when FarmDeployment wired them).
        self.metrics = bus.metrics
        self.tracer = bus.tracer
        self._track = f"switch/{switch.switch_id}"
        # Shared profiler attribution keys for events that are not
        # per-seed (batched deliveries, inbound messages).
        self._batch_cost_key = ("soil", switch.switch_id, None,
                                "deliver-batch")
        self._recv_cost_key = ("soil", switch.switch_id, None, "recv")
        labels = {"switch": switch.switch_id}
        self._m_polls = self.metrics.counter(
            "farm_soil_polls_total",
            "ASIC polls actually issued over PCIe.", labels=labels)
        self._m_cache_hits = self.metrics.counter(
            "farm_soil_poll_cache_hits_total",
            "Seed polls served from the aggregation cache.", labels=labels)
        self._m_events = self.metrics.counter(
            "farm_soil_events_total",
            "Seed handler invocations (trigger + recv).", labels=labels)
        self._m_seed_messages = self.metrics.counter(
            "farm_soil_seed_messages_total",
            "Messages seeds sent (harvester + seed-to-seed).", labels=labels)
        self._m_crashes = self.metrics.counter(
            "farm_soil_seed_crashes_total",
            "Seed crashes contained by the restart policy.", labels=labels)
        self._m_deploys = self.metrics.counter(
            "farm_soil_deploys_total",
            "Seeds deployed on this switch.", labels=labels)
        self._m_undeploys = self.metrics.counter(
            "farm_soil_undeploys_total",
            "Seeds undeployed from this switch.", labels=labels)
        self._g_seeds = self.metrics.gauge(
            "farm_soil_seeds",
            "Seeds currently deployed on this switch.", labels=labels)
        self._m_batched_polls = self.metrics.counter(
            "farm_soil_batched_polls_total",
            "Fused poll-group firings that served more than one seed.",
            labels=labels)
        self._m_vector_events = self.metrics.counter(
            "farm_soil_vectorized_events_total",
            "Seed handler invocations dispatched through a vector kernel.",
            labels=labels)

    # ------------------------------------------------------------------
    # Deployment lifecycle
    # ------------------------------------------------------------------
    def deploy(self, seed_id: str, task_id: str, program_xml: str,
               machine_name: str,
               externals: Optional[Mapping[str, Any]] = None,
               allocation: Optional[Mapping[str, float]] = None,
               snapshot: Optional[Mapping[str, Any]] = None,
               event_cpu_s: float = DEFAULT_EVENT_CPU_S) -> SeedDeployment:
        """Instantiate a seed from its XML payload and start it.

        With ``snapshot`` the seed resumes mid-state (migration arrival)
        instead of entering its initial state.
        """
        if self.failed:
            raise DeploymentError(
                f"switch {self.switch.switch_id} is marked failed")
        if seed_id in self.deployments:
            raise DeploymentError(
                f"seed {seed_id!r} already deployed on switch "
                f"{self.switch.switch_id}")
        compiled = _compiled_for(program_xml, machine_name)
        allocation = {r: float((allocation or {}).get(r, 0.0))
                      for r in self.resource_types}
        env = ConstEnv.for_machine(
            _flat_decl(compiled), externals)
        poll_vars = {
            decl.name: analyze_poll_var(decl, env, self.resource_types)
            for decl in compiled.trigger_decls}
        deployment = SeedDeployment(
            seed_id=seed_id, task_id=task_id, machine_name=machine_name,
            instance=None,  # set below (host needs the deployment object)
            allocation=allocation, poll_vars=poll_vars,
            event_cpu_s=event_cpu_s, deployed_at=self.sim.now)
        host = _SeedHost(self, deployment)
        instance = MachineInstance(compiled, host, externals=externals,
                                   instance_id=seed_id, tracer=self.tracer)
        deployment.instance = instance
        self.deployments[seed_id] = deployment
        self.bus.register(self._seed_endpoint(seed_id),
                          lambda msg: self._on_seed_message(seed_id, msg))
        if snapshot is not None:
            instance.restore(snapshot)
        else:
            instance.start()
        self._arm_triggers(deployment)
        self._refresh_cpu_load(deployment)
        self._refresh_pcie_demand(deployment)
        self._m_deploys.inc()
        self._g_seeds.set(len(self.deployments))
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"deploy {seed_id}", track=self._track,
                           cat="lifecycle",
                           args={"trace_id": seed_id, "task": task_id,
                                 "resumed": snapshot is not None})
        return deployment

    def undeploy(self, seed_id: str) -> Dict[str, Any]:
        """Stop a seed and release everything; returns its final snapshot."""
        deployment = self._get(seed_id)
        snapshot = deployment.instance.snapshot()
        self._disarm_triggers(deployment)
        for rule_id in list(deployment.rules):
            try:
                self.driver.delete_table_entry(rule_id)
            except FarmError:
                pass
        deployment.rules.clear()
        self.switch.cpu.clear_standing_load(f"seed/{seed_id}")
        self._cpu_load_seeds.discard(seed_id)
        self.bus.unregister(self._seed_endpoint(seed_id))
        del self.deployments[seed_id]
        self._roster_epoch += 1
        self._refresh_pcie_demand(removed_seed_id=seed_id)
        self._m_undeploys.inc()
        self._g_seeds.set(len(self.deployments))
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"undeploy {seed_id}", track=self._track,
                           cat="lifecycle", args={"trace_id": seed_id})
        return snapshot

    def snapshot_seed(self, seed_id: str) -> Dict[str, Any]:
        """Inner state for migration (seed keeps running until undeploy)."""
        return self._get(seed_id).instance.snapshot()

    def reallocate(self, seed_id: str,
                   allocation: Mapping[str, float]) -> None:
        """Apply a new resource allocation; fires the realloc trigger."""
        deployment = self._get(seed_id)
        deployment.allocation = {r: float(allocation.get(r, 0.0))
                                 for r in self.resource_types}
        self._arm_triggers(deployment)
        self._refresh_cpu_load(deployment)
        self._refresh_pcie_demand(deployment)
        try:
            deployment.instance.fire_realloc()
        except FarmError:
            if not self._contain_crash(deployment):
                raise

    def _get(self, seed_id: str) -> SeedDeployment:
        try:
            return self.deployments[seed_id]
        except KeyError:
            raise DeploymentError(
                f"no seed {seed_id!r} on switch {self.switch.switch_id}"
            ) from None

    def _seed_endpoint(self, seed_id: str) -> str:
        return f"seed/{self.switch.switch_id}/{seed_id}"

    # ------------------------------------------------------------------
    # Trigger variables: timers + polling
    # ------------------------------------------------------------------
    def _interval_for(self, deployment: SeedDeployment,
                      info: PollVarInfo) -> Optional[float]:
        try:
            interval = info.interval_at(deployment.allocation)
        except FarmError:
            return None
        if interval <= 0 or interval != interval:  # NaN guard
            return None
        return max(interval, MIN_POLL_INTERVAL_S)

    def _rebuild_poll_plans(self, deployment: SeedDeployment) -> None:
        num_ports = self.switch.asic.num_ports
        plans: Dict[str, _PollPlan] = {}
        for name, info in deployment.poll_vars.items():
            interval = self._interval_for(deployment, info)
            subjects: Optional[frozenset] = None
            ports: Tuple[int, ...] = ()
            rule_patterns: Tuple[Any, ...] = ()
            if info.kind != "time":
                subjects = encode_polling_subjects(info.what, num_ports)
                pooled = self._subject_pool.get(subjects)
                if pooled is None:
                    pooled = self._subject_pool[subjects] = (
                        subjects,
                        tuple(sorted(
                            p for kind, p in subjects if kind == "port")),
                        tuple(c for kind, c in subjects if kind == "tcam"))
                subjects, ports, rule_patterns = pooled
            plans[name] = _PollPlan(
                info=info, kind=info.kind, interval=interval,
                subjects=subjects, ports=ports, rule_patterns=rule_patterns,
                cost_key=("soil", self.switch.switch_id,
                          deployment.seed_id, name))
        deployment.poll_plans = plans

    def _disarm_triggers(self, deployment: SeedDeployment) -> None:
        """Detach a seed from its timers (shared group timers survive as
        long as any other member remains)."""
        for name in deployment.timers:
            group = self._memberships.pop((deployment.seed_id, name))
            group.leave(deployment, name)
            if not group.members:
                group.timer.stop()
                self._poll_groups.pop(group.key, None)
        deployment.timers.clear()

    def _arm_triggers(self, deployment: SeedDeployment) -> None:
        self._disarm_triggers(deployment)
        self._rebuild_poll_plans(deployment)
        for name, plan in deployment.poll_plans.items():
            if plan.interval is None:
                continue  # no resources allocated for this poll yet
            if self.batching:
                self._join_group(deployment, name, plan)
            else:
                self._arm_private(deployment, name, plan.interval)

    def _join_group(self, deployment: SeedDeployment, name: str,
                    plan: _PollPlan) -> None:
        """Attach a trigger to a fused poll group (creating it on first
        join).  Keying on the arm time keeps group members phase-aligned:
        a seed deployed later would fire on a different schedule and must
        not piggyback on an older group's timer."""
        key = (plan.kind, plan.interval, plan.subjects, plan.ports,
               plan.rule_patterns, deployment.event_cpu_s, self.sim.now)
        group = self._poll_groups.get(key)
        if group is None:
            group = _PollGroup(key)
            group.timer = self.sim.every(
                plan.interval, self._fire_group, group,
                label=f"poll-group {self.switch.switch_id}:{name}",
                cost_key=("soil", self.switch.switch_id, None,
                          f"poll-group {name}"))
            self._poll_groups[key] = group
        self._enrol(group, deployment, name)

    def _arm_private(self, deployment: SeedDeployment, var: str,
                     interval: float) -> None:
        """Arm a trigger on a timer of its own: a group of one that no
        later deploy can join (timing, event label and cost key are those
        of a per-seed timer)."""
        group = _PollGroup(("priv", (deployment.seed_id, var), self.sim.now))
        group.timer = self.sim.every(
            interval, self._fire_group, group,
            label=f"{deployment.seed_id}.{var}",
            cost_key=("soil", self.switch.switch_id, deployment.seed_id,
                      var))
        self._enrol(group, deployment, var)

    def _enrol(self, group: _PollGroup, deployment: SeedDeployment,
               var: str) -> None:
        group.members.append((deployment, var))
        group.instances.append(deployment.instance)
        self._memberships[(deployment.seed_id, var)] = group
        deployment.timers[var] = group.timer

    def set_trigger_interval(self, deployment: SeedDeployment, var: str,
                             interval: float) -> None:
        """Dynamic polling-rate change from inside the seed (SIII-A-d)."""
        interval = max(float(interval), MIN_POLL_INTERVAL_S)
        member = (deployment.seed_id, var)
        group = self._memberships.get(member)
        if group is not None and len(group.members) == 1:
            # Sole member: retime the group in place.  Retire its key
            # so later deploys don't phase-join the retimed timer.
            self._poll_groups.pop(group.key, None)
            group.key = ("priv", member, self.sim.now)
            group.timer.reschedule(interval)
        else:
            # Leave the shared group (if any) and fire on a private
            # schedule (timing-identical to a reschedule of an own timer).
            if group is not None:
                group.leave(deployment, var)
            self._arm_private(deployment, var, interval)
        # Interval now diverges from the static analysis: pin it.
        info = deployment.poll_vars.get(var)
        if info is not None:
            from repro.almanac.poly import LinPoly, RationalFunc
            deployment.poll_vars[var] = PollVarInfo(
                name=info.name, kind=info.kind,
                ival=RationalFunc(LinPoly.constant(interval)),
                what=info.what)
        self._rebuild_poll_plans(deployment)
        self._refresh_cpu_load(deployment)
        self._refresh_pcie_demand(deployment)

    def _poll(self, deployment: SeedDeployment,
              plan: _PollPlan) -> Tuple[Any, float]:
        """Poll statistics, serving from the aggregation cache when fresh."""
        cache_key = plan.subjects
        interval = plan.interval or MIN_POLL_INTERVAL_S
        if self.config.aggregation:
            cached = self._poll_cache.get(cache_key)
            # ``cached.time + interval`` repeats the poll timer's own float
            # add, so a poll at the timer's next deadline always misses.
            if cached is not None and self.sim.now < cached.time + interval:
                self._m_cache_hits.inc()
                # Aggregated fan-out: no PCIe crossing, but the data must
                # reach the seed — trivial for threads (shared buffer),
                # two context switches for process seeds (Fig. 9's cost).
                cpu, ctx = seed_soil_cpu_cost(self.config)
                self.switch.cpu.charge_work(cpu, context_switches=ctx)
                return cached.data, 0.0
        self._m_polls.inc()
        ports = plan.ports
        if ports:
            stats, latency = self.driver.read_port_counters(list(ports))
        elif plan.rule_patterns:
            rule_ids = [rule.rule_id
                        for rule in self.switch.tcam.rules(MONITORING)]
            stats, latency = self.driver.read_rule_counters(rule_ids)
        else:
            stats, latency = self.driver.read_port_counters()
        if self.config.aggregation:
            self._poll_cache[cache_key] = _PollCacheEntry(self.sim.now, stats)
            # Aggregation work happens in the soil (Fig. 9): merging and
            # fanning out costs CPU, more when seeds are processes.
            cpu, ctx = seed_soil_cpu_cost(self.config)
            self.switch.cpu.charge_work(cpu, context_switches=ctx)
        return stats, latency

    def _fire_group(self, group: _PollGroup) -> None:
        """Service every member of a poll group from one timer event.

        The loop runs the poll/charge/trace sequence per member in join
        (= deploy) order.  Where the members share the poll's outcome —
        the group key makes their plans agree, and the soil aggregates —
        only the first (the leader) takes the loop: the others are cache
        hits on what it just polled or found cached, so their counters,
        CPU charges and latencies are applied in bulk, in the float-add
        order the loop would have produced.  Deliveries landing at the
        same instant share a bucket, so that the handler batch can be
        dispatched through one vector kernel.
        """
        members, instances = group.members, group.instances
        count = served = len(members)
        config, cpu = self.config, self.switch.cpu
        tracing = self.tracer.enabled
        if count > 1:
            self._m_batched_polls.inc()
            kind = members[0][0].poll_plans[members[0][1]].kind
            if kind == "time" or (kind != "probe" and config.aggregation):
                served = 1
        # total latency -> (members, data values, instances); first-seen
        # order is the order the scalar heap would deliver in.
        deliveries: Dict[float, Tuple[list, list, list]] = {}
        for member, instance in zip(members[:served], instances):
            deployment, var = member
            plan = deployment.poll_plans[var]
            if plan.kind == "time":
                data, extra = None, 0.0
            elif plan.kind == "probe":
                data, extra = self.driver.sample_packets(
                    plan.info.what, max_packets=PROBE_BATCH_SIZE)
            else:
                data, extra = self._poll(deployment, plan)
            comm_latency = seed_soil_latency(config, len(self.deployments))
            cpu_cost, ctx = seed_soil_cpu_cost(config)
            handler_delay = cpu.charge_work(
                deployment.event_cpu_s + cpu_cost, context_switches=ctx)
            total = extra + comm_latency + handler_delay
            if tracing:
                self._trace_polls([member], total)
            bucket = deliveries.setdefault(total, ([], [], []))
            bucket[0].append(member)
            bucket[1].append(data)
            bucket[2].append(instance)
        if served < count:
            # The loop served the leader.  Followers cross no PCIe (extra
            # = 0.0: adds exactly), see its data and replay its charges.
            followers = members[1:]
            charges = ((deployment.event_cpu_s + cpu_cost, ctx),)
            if kind != "time":
                self._m_cache_hits.inc(count - 1)
                charges = ((cpu_cost, ctx),) + charges
            cpu.charge_work_repeated(charges, count - 1)
            total = comm_latency + handler_delay
            if tracing:
                self._trace_polls(followers, total)
            bucket = deliveries.setdefault(total, ([], [], []))
            bucket[0].extend(followers)
            bucket[1].extend([data] * (count - 1))
            bucket[2].extend(instances[1:])
        for total, (batch, datas, batch_instances) in deliveries.items():
            if len(batch) == 1:
                deployment, var = batch[0]
                seed_id = deployment.seed_id
                self.sim.schedule(total, self._run_handler, seed_id, var,
                                  datas[0], label=f"deliver {seed_id}.{var}",
                                  cost_key=deployment.poll_plans[var].cost_key)
            else:
                self.sim.schedule(total, self._run_handler_batch, batch,
                                  datas, batch_instances, self._roster_epoch,
                                  label=f"deliver batch x{len(batch)}",
                                  cost_key=self._batch_cost_key)

    def _trace_polls(self, members: List[Tuple[SeedDeployment, str]],
                     total: float) -> None:
        # The cost model fixes the delivery latency up front, so the whole
        # poll->handler interval is one complete span.
        poll_span, track, now = (self.tracer.poll_span, self._track,
                                 self.sim.now)
        for deployment, var in members:
            poll_span(deployment.seed_id, var, track, now, total)

    def _run_handler(self, seed_id: str, var: str, data: Any) -> None:
        deployment = self.deployments.get(seed_id)
        if deployment is None:
            return  # undeployed while the event was in flight
        deployment.events_delivered += 1
        self._m_events.inc()
        try:
            deployment.instance.fire_trigger_var(var, data)
        except FarmError:
            if not self._contain_crash(deployment):
                raise

    def _run_handler_batch(self, batch: List[Tuple[SeedDeployment, str]],
                           datas: List[Any],
                           instances: List[MachineInstance],
                           epoch: int) -> None:
        if epoch != self._roster_epoch:
            # A seed went away or restarted while the event was in flight:
            # re-resolve every member by id, dropping the undeployed.
            live = [(current, var, data)
                    for (deployment, var), data in zip(batch, datas)
                    if (current := self.deployments.get(deployment.seed_id))]
            batch = [(deployment, var) for deployment, var, _ in live]
            datas = [data for _, _, data in live]
            instances = [deployment.instance for deployment, _ in batch]
        if len(batch) > 1 and self._try_vector_fire(batch, datas, instances):
            return
        for (deployment, var), data in zip(batch, datas):
            deployment.events_delivered += 1
            self._m_events.inc()
            try:
                deployment.instance.fire_trigger_var(var, data)
            except FarmError:
                if not self._contain_crash(deployment):
                    raise

    def _try_vector_fire(self, batch: List[Tuple[SeedDeployment, str]],
                         datas: List[Any],
                         instances: List[MachineInstance]) -> bool:
        """Dispatch a same-instant handler batch through a vector kernel.

        Requires every member to share one CompiledMachine (identity —
        guaranteed for same-task seeds via the deploy compile cache), the
        same current state, and an affine handler (see
        :mod:`repro.almanac.vector`).  Any mismatch, or tracing being on
        (per-event spans), falls back to the scalar loop above.
        """
        if self.tracer.enabled:
            return False
        var = batch[0][1]
        compiled = instances[0].compiled
        state = instances[0].current_state
        for (_, v), inst in zip(batch, instances):
            if (v != var or inst.compiled is not compiled
                    or inst.current_state != state):
                return False
        kernel = vector_kernel(compiled, state, var)
        if kernel is None or not kernel.fire(instances, datas):
            return False
        count = len(batch)
        for deployment, _ in batch:
            deployment.events_delivered += 1
        self._m_events.inc(count)
        self._m_vector_events.inc(count)
        return True

    def _contain_crash(self, deployment: SeedDeployment) -> bool:
        """Apply the crash policy; returns True if the crash was handled.

        Under "restart" the seed is re-instantiated from scratch (its
        state is assumed corrupted) until max_seed_crashes, after which
        the seed stays down and the failure propagates.
        """
        if self.crash_policy != "restart":
            return False
        seed_id = deployment.seed_id
        crashes = self.seed_crashes.get(seed_id, 0) + 1
        self.seed_crashes[seed_id] = crashes
        if crashes > self.max_seed_crashes:
            return False
        compiled = deployment.instance.compiled
        machine_vars = deployment.instance.snapshot()["machine_vars"]
        externals = {name: machine_vars[name]
                     for name in compiled.external_names
                     if name in machine_vars}
        host = _SeedHost(self, deployment)
        fresh = MachineInstance(compiled, host, externals=externals,
                                instance_id=seed_id, tracer=self.tracer)
        deployment.instance = fresh
        self._roster_epoch += 1
        fresh.start()
        self._arm_triggers(deployment)
        self.logs.append((self.sim.now, seed_id,
                          f"restarted after crash #{crashes}"))
        self._m_crashes.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"crash-restart {seed_id}", track=self._track,
                           cat="lifecycle",
                           args={"trace_id": seed_id, "crashes": crashes})
        return True

    # ------------------------------------------------------------------
    # Resource accounting refresh
    # ------------------------------------------------------------------
    def _refresh_cpu_load(self, deployment: SeedDeployment) -> None:
        # Event-handling work is charged per delivery (charge_work in
        # _deliver); the standing entry covers only the seed's constant
        # bookkeeping so nothing is double counted.  The load is the same
        # constant for every seed, so re-setting it on every reallocate/
        # interval change is pure waste — set it once per deployment.
        seed_id = deployment.seed_id
        if seed_id in self._cpu_load_seeds:
            return
        self.switch.cpu.set_standing_load(f"seed/{seed_id}",
                                          SEED_BASELINE_LOAD)
        self._cpu_load_seeds.add(seed_id)

    def _refresh_pcie_demand(self, deployment: Optional[SeedDeployment]
                             = None,
                             removed_seed_id: Optional[str] = None) -> None:
        """Maintain the standing PCIe polling demand incrementally.

        With aggregation, each subject is charged at the *fastest* rate any
        seed polls it; without, rates add up (SIV-B-b's pollres model).
        Only the touched seed's contribution is recomputed; everyone
        else's entries carry forward in the per-subject rate table, so
        the cost is O(subjects) instead of O(seeds x plans).
        """
        from repro.switchsim.pcie import BYTES_PER_COUNTER
        if removed_seed_id is not None:
            self._drop_pcie_rates(removed_seed_id)
        if deployment is not None:
            seed_id = deployment.seed_id
            self._drop_pcie_rates(seed_id)
            entries = []
            for name, plan in deployment.poll_plans.items():
                if plan.kind == "time" or plan.interval is None:
                    continue
                rate = (len(plan.subjects) * BYTES_PER_COUNTER
                        / plan.interval)
                entries.append((plan.subjects, name))
                self._pcie_subject_rates.setdefault(
                    plan.subjects, {})[(seed_id, name)] = rate
            self._pcie_rates[seed_id] = tuple(entries)
        total = 0.0
        for rates in self._pcie_subject_rates.values():
            values = rates.values()
            total += max(values) if self.config.aggregation \
                else sum(values)
        self.switch.pcie.register_poller("soil", total)

    def _drop_pcie_rates(self, seed_id: str) -> None:
        for subjects, name in self._pcie_rates.pop(seed_id, ()):
            table = self._pcie_subject_rates.get(subjects)
            if table is None:
                continue
            table.pop((seed_id, name), None)
            if not table:
                del self._pcie_subject_rates[subjects]

    # ------------------------------------------------------------------
    # Local reactions: TCAM
    # ------------------------------------------------------------------
    _ACTION_MAP = {
        "forward": RuleAction.FORWARD,
        "drop": RuleAction.DROP,
        "rate_limit": RuleAction.RATE_LIMIT,
        "mirror": RuleAction.MIRROR,
        "count": RuleAction.COUNT,
        "set_qos": RuleAction.SET_QOS,
    }

    def install_rule(self, deployment: SeedDeployment,
                     rule_struct: Dict[str, Any]) -> int:
        """Install a monitoring rule on behalf of a seed (local reaction)."""
        pattern = rule_struct.get("pattern")
        if not isinstance(pattern, flt.Filter):
            raise DeploymentError("Rule.pattern must be a filter")
        act = rule_struct.get("act")
        params: Dict[str, Any] = {}
        if isinstance(act, dict):
            action_name = str(act.get("action", "count"))
            params = {k: v for k, v in act.items()
                      if k not in ("action", "__struct__")}
        else:
            action_name = str(act or "count")
        action = self._ACTION_MAP.get(action_name)
        if action is None:
            raise DeploymentError(f"unknown rule action {action_name!r}")
        budget = deployment.allocation.get("TCAM", 0.0)
        if budget and len(deployment.rules) + 1 > budget:
            raise DeploymentError(
                f"seed {deployment.seed_id!r} exceeded its TCAM budget "
                f"({int(budget)} rules)")
        rule = TcamRule(pattern=pattern, action=action, priority=10,
                        params=params, region=MONITORING)
        rule_id, _latency = self.driver.write_table_entry(rule)
        deployment.rules.append(rule_id)
        return rule_id

    def remove_rules(self, deployment: SeedDeployment,
                     pattern: flt.Filter) -> int:
        removed = 0
        for rule_id in list(deployment.rules):
            try:
                rule = self.switch.tcam.get(rule_id)
            except FarmError:
                deployment.rules.remove(rule_id)
                continue
            if rule.pattern == pattern:
                self.driver.delete_table_entry(rule_id)
                deployment.rules.remove(rule_id)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send_to_harvester(self, deployment: SeedDeployment,
                          value: Any) -> None:
        deployment.messages_sent += 1
        self._m_seed_messages.inc()
        dst = f"harvester/{deployment.task_id}"
        if not self.bus.is_registered(dst):
            return  # task has no harvester; message is dropped silently
        # Telemetry is fire-and-forget (a lost report ages out of any
        # windowed aggregate), but it carries a per-seed sequence number
        # so the harvester can discard duplicates a chaotic bus created.
        self.bus.send(self._seed_endpoint(deployment.seed_id), dst,
                      {"seed_id": deployment.seed_id,
                       "switch": self.switch.switch_id, "value": value,
                       "rseq": deployment.messages_sent,
                       # Deployment epoch: rseq restarts when a seed is
                       # redeployed (failover), so dedup keys include it.
                       "epoch": deployment.deployed_at},
                      size_bytes=estimate_size_bytes(value))

    def send_to_machine(self, deployment: SeedDeployment, machine: str,
                        dst: Optional[Any], value: Any) -> None:
        deployment.messages_sent += 1
        self._m_seed_messages.inc()
        if self.seed_message_router is None:
            raise DeploymentError(
                "no seed message router installed (is a seeder running?)")
        self.seed_message_router(deployment.seed_id, deployment.machine_name,
                                 machine, dst, value)

    def _on_bus_message(self, message: BusMessage) -> None:
        """Seeder commands addressed to the soil (reliable channel).

        Every command is idempotent: the reliable layer deduplicates true
        retransmissions, but the seeder may legitimately re-issue a
        command (dead-letter recovery, stale-sweep), so handlers tolerate
        already-applied state rather than raising.
        """
        payload = message.payload
        if not isinstance(payload, dict) or "cmd" not in payload:
            return
        command = str(payload["cmd"])
        if command == "deploy":
            self._cmd_deploy(message.src, payload)
        elif command == "undeploy":
            self._cmd_undeploy(message.src, payload)
        elif command == "reallocate":
            self._cmd_reallocate(payload)

    def _reply(self, dst: str, payload: Dict[str, Any]) -> None:
        self.channel.send(dst, payload)

    def _cmd_deploy(self, reply_to: str, payload: Dict[str, Any]) -> None:
        seed_id = payload["seed_id"]
        deployment = self.deployments.get(seed_id)
        if deployment is None:
            try:
                deployment = self.deploy(
                    seed_id=seed_id, task_id=payload["task_id"],
                    program_xml=payload["program_xml"],
                    machine_name=payload["machine_name"],
                    externals=payload.get("externals"),
                    allocation=payload.get("allocation"),
                    snapshot=payload.get("snapshot"),
                    event_cpu_s=payload.get(
                        "event_cpu_s", DEFAULT_EVENT_CPU_S))
            except DeploymentError as exc:
                self._reply(reply_to, {
                    "event": "deploy-failed", "seed_id": seed_id,
                    "switch": self.switch.switch_id, "error": str(exc)})
                return
        self._reply(reply_to, {
            "event": "deployed", "seed_id": seed_id,
            "switch": self.switch.switch_id,
            "state": deployment.instance.current_state})

    def _cmd_undeploy(self, reply_to: str, payload: Dict[str, Any]) -> None:
        seed_id = payload["seed_id"]
        reason = payload.get("reason", "remove")
        snapshot = None
        if seed_id in self.deployments:
            snapshot = self.undeploy(seed_id)
        self._reply(reply_to, {
            "event": "undeployed", "seed_id": seed_id,
            "switch": self.switch.switch_id, "reason": reason,
            "dest": payload.get("dest"),
            # The snapshot only travels when someone waits for it
            # (migration); plain removals don't ship dead state.
            "snapshot": snapshot if reason == "migrate" else None})

    def _cmd_reallocate(self, payload: Dict[str, Any]) -> None:
        seed_id = payload["seed_id"]
        if seed_id in self.deployments:
            self.reallocate(seed_id, payload.get("allocation") or {})

    def _on_seed_message(self, seed_id: str, message: BusMessage) -> None:
        deployment = self.deployments.get(seed_id)
        if deployment is None:
            return
        payload = message.payload
        source_machine = ""
        value = payload
        if isinstance(payload, dict) and "__from_machine__" in payload:
            source_machine = payload["__from_machine__"]
            value = payload["value"]
        elif isinstance(payload, dict) and "value" in payload \
                and "__harvester__" in payload:
            value = payload["value"]
        cpu_cost, ctx = seed_soil_cpu_cost(self.config)
        delay = self.switch.cpu.charge_work(
            deployment.event_cpu_s + cpu_cost, context_switches=ctx)
        self.sim.schedule(
            delay, self._fire_recv, seed_id, value, source_machine,
            label=f"recv {seed_id}", cost_key=self._recv_cost_key)

    def _fire_recv(self, seed_id: str, value: Any,
                   source_machine: str) -> None:
        deployment = self.deployments.get(seed_id)
        if deployment is None:
            return
        deployment.events_delivered += 1
        self._m_events.inc()
        try:
            deployment.instance.fire_recv(value, source_machine=source_machine)
        except FarmError:
            if not self._contain_crash(deployment):
                raise

    # ------------------------------------------------------------------
    # Power state (fault tolerance / ops)
    # ------------------------------------------------------------------
    def power_off(self) -> None:
        """Crash the switch: seeds, timers, standing load, and in-flight
        control traffic are all lost; only off-switch checkpoints survive.
        The soil goes silent on the bus (no acks, no heartbeats) until
        :meth:`power_on`."""
        if self.failed:
            return
        self.failed = True
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("power-off", track=self._track, cat="lifecycle",
                           args={"seeds_lost": len(self.deployments)})
        for deployment in list(self.deployments.values()):
            self._disarm_triggers(deployment)
            self.bus.unregister(self._seed_endpoint(deployment.seed_id))
        self.deployments.clear()
        self._roster_epoch += 1
        self._poll_groups.clear()
        self._memberships.clear()
        self._cpu_load_seeds.clear()
        self._pcie_rates.clear()
        self._pcie_subject_rates.clear()
        self._g_seeds.set(0)
        self._poll_cache.clear()
        self.channel.reset()
        self.switch.cpu.clear_all_standing()
        self.switch.pcie.unregister_poller("soil")

    def power_on(self) -> None:
        """Bring a powered-off switch back; it resumes empty (deploys and
        heartbeats restart it into service)."""
        self.failed = False
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("power-on", track=self._track, cat="lifecycle")

    # ------------------------------------------------------------------
    # Transitions & external code
    # ------------------------------------------------------------------
    def add_transition_listener(
            self, listener: Callable[[str, str, str], None]) -> None:
        """listener(seed_id, old_state, new_state)"""
        self._transition_listeners.append(listener)

    def on_transition(self, deployment: SeedDeployment, old_state: str,
                      new_state: str) -> None:
        for listener in self._transition_listeners:
            listener(deployment.seed_id, old_state, new_state)

    def register_external(self, command: str, fn: Callable[[Any], Any],
                          cpu_cost_s: float = 0.0) -> None:
        """Make an external program available to seeds' exec() calls."""
        self.externals[command] = fn
        self.external_costs[command] = cpu_cost_s

    def exec_external(self, deployment: SeedDeployment, command: str,
                      arg: Any) -> Any:
        fn = self.externals.get(command)
        if fn is None:
            raise DeploymentError(
                f"exec({command!r}): no such external program on switch "
                f"{self.switch.switch_id}")
        cost = self.external_costs.get(command, 0.0)
        if cost:
            as_process = self.config.execution_mode is ExecutionMode.PROCESS
            self.switch.cpu.charge_work(
                cost, context_switches=2 if as_process else 0)
        return fn(arg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_seeds(self) -> int:
        return len(self.deployments)


def _flat_decl(compiled: CompiledMachine):
    """Synthetic MachineDecl view of a flattened machine (for ConstEnv)."""
    from repro.almanac import astnodes as ast
    return ast.MachineDecl(
        name=compiled.name, placements=compiled.placements,
        var_decls=compiled.var_decls, states=[], events=[])
