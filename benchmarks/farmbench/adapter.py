"""farmbench's only door into the ``repro`` package.

Every import of ``repro`` and every call into it lives in this file, so a
PR that changes a public API needs a one-file benchmark follow-up.  Only
public API is used: constructors, ``FarmDeployment``, ``Seeder.submit``,
``Soil.deploy``, registry reads, ``Harvester.reports``, the placement
solvers, ``validate_solution`` and ``Profiler`` - never ``_m_*`` privates
or ``REPRO_*`` environment switches.

``workloads.py`` decides *what* runs (sizes, seeded inputs, oracles);
this file knows *how* to build it on the repo's objects and how to read
the results back.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.almanac import MachineInstance, VectorKernel, compile_source, parse
from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    UtilityPiece,
)
from repro.almanac.xmlcodec import encode_program
from repro.core import (
    ControlBus,
    FarmDeployment,
    FaultToleranceManager,
    MachineConfig,
    Seeder,
    Soil,
    TaskDefinition,
)
from repro.net import traffic
from repro.net.topology import spine_leaf
from repro.obs import Observability, Profiler, ThresholdRule
from repro.obs.tsdb import Scraper
from repro.placement.heuristic import solve_heuristic
from repro.placement.incremental import (
    ChurnDelta,
    apply_delta,
    solve_incremental,
)
from repro.placement.instances import generate_problem
from repro.placement.model import (
    PollDemand,
    SeedSpec,
    TaskSpec,
    validate_solution,
)
from repro.remediation import DrainPolicy, GuardrailConfig
from repro.sim.engine import Event, Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for
from repro.tasks import TASK_REGISTRY

from tracing import SpanRecorder


# ---------------------------------------------------------------------------
# Tracing: timing proxies around the calls into each layer
# ---------------------------------------------------------------------------

#: (class, method, span name) - patched on the class in traced repetitions.
TRACE_POINTS = (
    (MachineInstance, "fire_trigger_var", "almanac.handler"),
    (MachineInstance, "fire_recv", "almanac.handler"),
    (VectorKernel, "fire", "almanac.vector"),
    (Soil, "deploy", "core.soil.deploy"),
    (Seeder, "submit", "core.seeder.submit"),
    (Seeder, "reoptimize", "core.seeder.reoptimize"),
    (traffic.Workload, "start", "net.workload_start"),
    (Scraper, "scrape_once", "obs.scrape"),
)


class KernelCounts:
    """Counts taken at the kernel's public entry points while traced."""

    def __init__(self) -> None:
        self.cancelled = 0
        self.pending_peak = 0


def install_tracing(recorder: SpanRecorder) -> KernelCounts:
    """Wrap the layer boundaries for this (traced) process.

    Must run before any world is built: periodic timers bind their
    callbacks at construction time.
    """
    for cls, method, name in TRACE_POINTS:
        setattr(cls, method, recorder.wrap(getattr(cls, method), name))
    global solve_full, _apply_delta, _solve_incremental
    solve_full = recorder.wrap(solve_full, "placement.solve")
    _apply_delta = recorder.wrap(_apply_delta, "placement.apply_delta")
    _solve_incremental = recorder.wrap(_solve_incremental,
                                       "placement.solve_incremental")

    counts = KernelCounts()
    schedule_at, cancel = Simulator.schedule_at, Event.cancel

    def counted_schedule_at(sim, *args, **kwargs):
        event = schedule_at(sim, *args, **kwargs)
        pending = sim.pending()
        if pending > counts.pending_peak:
            counts.pending_peak = pending
        return event

    def counted_cancel(event):
        if event.alive:
            counts.cancelled += 1
        cancel(event)

    Simulator.schedule_at = counted_schedule_at
    Event.cancel = counted_cancel
    return counts


class TracedDriver:
    """A ``SwitchDriver`` stand-in that times every call into switchsim."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.switch = inner.switch
        wrap = recorder.wrap
        self.read_port_counters = wrap(inner.read_port_counters,
                                       "switchsim.read_counters")
        self.read_rule_counters = wrap(inner.read_rule_counters,
                                       "switchsim.read_counters")
        self.sample_packets = wrap(inner.sample_packets,
                                   "switchsim.sample_packets")
        self.write_table_entry = wrap(inner.write_table_entry,
                                      "switchsim.table_write")
        self.delete_table_entry = wrap(inner.delete_table_entry,
                                       "switchsim.table_write")
        self.get_table_entry = inner.get_table_entry

    @property
    def calls(self) -> int:
        return self.inner.calls


def start_profiler(sim: Simulator) -> Profiler:
    return Profiler(sim, mode="exact").start()


def component_seconds(profiler: Profiler) -> Dict[str, float]:
    """Wall seconds per cost-key component (soil, bus, ft, ...)."""
    profiler.stop()
    out: Dict[str, float] = {}
    for entry in profiler.cost_model().entries:
        out[entry.component] = out.get(entry.component, 0.0) + entry.ns / 1e9
    return out


# ---------------------------------------------------------------------------
# Registry reads (the one place farm_* metric names appear)
# ---------------------------------------------------------------------------

def handler_events(registry: Any) -> int:
    return int(registry.sum_values("farm_soil_events_total"))


def seed_crashes(registry: Any) -> int:
    return int(registry.sum_values("farm_soil_seed_crashes_total"))


def dead_letters(registry: Any) -> int:
    return int(registry.sum_values("farm_reliable_dead_letters_total"))


def remediations_executed(registry: Any) -> int:
    return int(registry.sum_values("farm_remediation_decisions_total",
                                   {"decision": "executed"}))


def registry_totals(registry: Any) -> Dict[str, float]:
    """Every counter and gauge family summed over its label sets, for the
    digest.  Histograms hold wall-clock solver runtimes and are left out."""
    return {family.name: sum(child.value
                             for child in family.children.values())
            for family in registry.families()
            if family.kind != "histogram"}


def layer_counts(registry: Any) -> Dict[str, float]:
    """Per-layer work counts, read from the registry."""
    total = registry.sum_values
    polls = total("farm_soil_polls_total")
    hits = total("farm_soil_poll_cache_hits_total")
    events = total("farm_soil_events_total")
    sent = total("farm_bus_messages_total")
    dropped = total("farm_bus_chaos_dropped_total")
    solver_s = sum(child.sum for family in registry.families()
                   if family.name == "farm_placement_runtime_seconds"
                   for child in family.children.values())
    return {
        "core.soil.polls_total": polls,
        "core.soil.batched_polls_total":
            total("farm_soil_batched_polls_total"),
        "core.soil.poll_cache_hit_frac":
            hits / (hits + polls) if hits + polls else 0.0,
        "core.soil.deploys_total": total("farm_soil_deploys_total"),
        "core.soil.seed_crashes_total": total("farm_soil_seed_crashes_total"),
        "switchsim.pcie_transfers_total": total("farm_pcie_transfers_total"),
        "switchsim.pcie_bytes_total": total("farm_pcie_bytes_total"),
        "switchsim.cpu_work_sim_s": total("farm_cpu_work_seconds_total"),
        "switchsim.tcam_rules_peak": total("farm_tcam_rules"),
        "almanac.vectorized_frac":
            total("farm_soil_vectorized_events_total") / events
            if events else 0.0,
        "core.seeder.optimizations_total":
            total("farm_seeder_optimizations_total"),
        "core.seeder.migrations_total": total("farm_seeder_migrations_total"),
        "core.seeder.lost_commands_total":
            total("farm_seeder_lost_commands_total"),
        "core.bus.messages_total": sent,
        "core.bus.bytes_total": total("farm_bus_bytes_total"),
        "core.bus.retransmissions_total":
            total("farm_reliable_retransmissions_total"),
        "core.bus.dead_letters_total":
            total("farm_reliable_dead_letters_total"),
        "core.bus.chaos_dropped_total": dropped,
        "core.bus.delivered_frac":
            sent / (sent + dropped) if sent + dropped else 0.0,
        "core.ft.heartbeats_total": total("farm_ft_heartbeats_total"),
        "core.ft.failovers_total": total("farm_ft_failovers_total"),
        "placement.solves_total": total("farm_placement_solves_total"),
        "placement.solve_busy_s": solver_s,
        "obs.scrapes_total": total("scarecrow_scrapes_total"),
        "obs.tsdb_samples_total": total("scarecrow_samples_total"),
        "remediation.decisions_total":
            total("farm_remediation_decisions_total"),
        "remediation.executed_total":
            total("farm_remediation_decisions_total",
                  {"decision": "executed"}),
        "remediation.suppressed_total":
            total("farm_remediation_decisions_total",
                  {"decision": "blocked"}),
    }


# ---------------------------------------------------------------------------
# fleet_poll: standalone switches + soils on one bus
# ---------------------------------------------------------------------------

POLL_SOURCE = """
machine Dispatch {
  place all;
  poll pollStats = Poll { .ival = %(interval)s, .what = port ANY };
  long polls = 0;
  long acc = 0;
  state run {
    when (pollStats as stats) do {
      polls = polls + 1;
      acc = acc + 2 * polls;
    }
  }
}
"""

POLL_ALLOCATION = {"vCPU": 0.1, "RAM": 64, "TCAM": 8, "PCIe": 100}


class PollFleet:
    """``len(rates)`` standalone switches sharing one control bus, each
    with uniform background traffic at its own rate."""

    def __init__(self, rates: Sequence[float], ports: int,
                 interval_s: float,
                 recorder: Optional[SpanRecorder] = None) -> None:
        self.sim = Simulator()
        self.registry = Observability(self.sim).registry
        self.program_xml = encode_program(
            parse(POLL_SOURCE % {"interval": interval_s}))
        bus = ControlBus(self.sim, registry=self.registry)
        self.switches: List[Switch] = []
        self.soils: List[Soil] = []
        self.flows = 0
        for index, rate in enumerate(rates):
            switch = Switch(self.sim, index, registry=self.registry)
            workload = traffic.UniformWorkload(ports, rate_bps=rate,
                                               seed=index)
            workload.start(self.sim, switch.asic)
            self.flows += workload.stats.flows_created
            driver = driver_for(switch)
            if recorder is not None:
                driver = TracedDriver(driver, recorder)
            self.switches.append(switch)
            self.soils.append(Soil(self.sim, switch, driver, bus))

    def deploy(self, seeds_per_switch: int) -> None:
        for index, soil in enumerate(self.soils):
            for seed in range(seeds_per_switch):
                soil.deploy(seed_id=f"d{index}_{seed}", task_id="fleet_poll",
                            program_xml=self.program_xml,
                            machine_name="Dispatch",
                            allocation=POLL_ALLOCATION)

    def seed_vars(self, switch: int, seed: int) -> Dict[str, Any]:
        deployment = self.soils[switch].deployments[f"d{switch}_{seed}"]
        return deployment.instance.snapshot()["machine_vars"]

    def port_tx_bytes(self, switch: int, port: int) -> float:
        return self.switches[switch].asic.read_port_stats(port).tx_bytes

    def cpu_load_percent(self) -> List[float]:
        return [switch.cpu.mean_load_percent() for switch in self.switches]

    def driver_calls(self) -> int:
        return sum(soil.driver.calls for soil in self.soils)


# ---------------------------------------------------------------------------
# task_portfolio / task_portfolio_guarded: a full FarmDeployment
# ---------------------------------------------------------------------------

PROBE_MACHINE = """
machine Probe%(index)d {
  place any;
  poll pollStats = Poll { .ival = %(interval)s, .what = port ANY };
  state observe {
    util (res) { return 1; }
    when (pollStats as stats) do { }
  }
}"""

#: incident kind -> the portfolio task whose harvester must report it
INCIDENT_TASKS = {
    "hh": "heavy_hitter",
    "scan": "port_scan",
    "ddos": "ddos",
    "syn": "tcp_syn_flood",
    "surge": "traffic_change",
}

GRAY_RULE = "heartbeat-degraded"


def _probe_fleet_task(num_probes: int, interval_s: float) -> TaskDefinition:
    """Movable (``place any``) probes: the Tab. I tasks pin one seed per
    switch, which a drain cannot move; these give remediation and the
    incremental re-solve something to migrate."""
    source = "\n".join(PROBE_MACHINE % {"index": i, "interval": interval_s}
                       for i in range(num_probes))
    return TaskDefinition(
        task_id="probe-fleet", source=source,
        machines=[MachineConfig(machine_name=f"Probe{i}")
                  for i in range(num_probes)])


def _incident_traffic(incident: Dict[str, Any]) -> traffic.Workload:
    kind = incident["kind"]
    if kind == "hh":
        return traffic.HeavyHitterWorkload(
            num_ports=incident["ports"], hh_ratio=incident["ratio"],
            hh_rate_bps=incident["rate_bps"], churn_interval=None,
            seed=incident["traffic_seed"])
    if kind == "scan":
        return traffic.PortScanWorkload(
            num_ports_scanned=incident["width"], scanner_ip=incident["ip"])
    if kind == "ddos":
        return traffic.DDoSWorkload(
            num_sources=incident["sources"], victim_ip=incident["ip"])
    if kind == "syn":
        return traffic.SynFloodWorkload(
            syn_rate_pps=incident["rate_pps"], victim_ip=incident["ip"])
    if kind == "surge":
        return traffic.UniformWorkload(
            incident["ports"], rate_bps=incident["rate_bps"])
    raise ValueError(f"unknown incident kind {kind!r}")


class Portfolio:
    """The operator's path: compile, place, deploy, poll, react, report."""

    def __init__(self, spec: Dict[str, Any], guarded: bool,
                 recorder: Optional[SpanRecorder] = None) -> None:
        self.spec = spec
        self.guarded = guarded
        self.recorder = recorder
        farm = FarmDeployment(topology=spine_leaf(*spec["fabric"]),
                              trace=guarded)
        self.farm = farm
        self.sim = farm.sim
        self.registry = farm.metrics
        self.leaves: List[int] = list(farm.topology.leaf_ids)
        self.flows = 0
        if recorder is not None:
            for soil in farm.seeder.soils.values():
                soil.driver = TracedDriver(soil.driver, recorder)
        if guarded:
            chaos = farm.enable_chaos(seed=spec["chaos_seed"])
            # Loss on the reliable command plane and on heartbeats; seed
            # telemetry is fire-and-forget, so uniform loss there would
            # make incident reports fail by construction.
            for src in ("seeder", "soil/*"):
                chaos.lossy(spec["bus_loss"], src=src)
        self.tasks: Dict[str, TaskDefinition] = {}
        for name, kwargs in spec["tasks"]:
            self.tasks[name] = TASK_REGISTRY[name](**kwargs)
            farm.submit(self.tasks[name])
        self.tasks["probe_fleet"] = _probe_fleet_task(
            spec["probes"], spec["probe_interval_s"])
        farm.submit(self.tasks["probe_fleet"])
        self.scarecrow = None
        self.engine = None
        self.gray: Dict[str, Any] = {}
        if guarded:
            self._start_monitors()
        farm.settle(spec["settle_s"])
        if guarded:
            self._arm_remediation()
        for leaf in self.leaves:
            self._start(traffic.UniformWorkload(
                spec["ports"], rate_bps=spec["background_bps"]), leaf)

    def _start(self, workload: traffic.Workload, leaf: int) -> None:
        self.farm.start_workload(workload, leaf)
        self.flows += workload.stats.flows_created

    # -- guards ------------------------------------------------------------
    def _start_monitors(self) -> None:
        """Heartbeats and scrapes run from before the settle, so the alert
        rule armed after it reads a full window of healthy history (a
        rule armed on an empty TSDB fires on its own warm-up)."""
        spec, farm = self.spec, self.farm
        self.ft = FaultToleranceManager(
            farm.seeder, heartbeat_interval_s=spec["heartbeat_s"],
            confirm_limit=30, checkpoint_interval_s=spec["checkpoint_s"])
        self.scarecrow = farm.enable_scarecrow(interval_s=spec["scrape_s"])

    def _arm_remediation(self) -> None:
        spec = self.spec
        healthy = 1.0 / spec["heartbeat_s"]
        self.scarecrow.add_rule(ThresholdRule(
            GRAY_RULE, "farm_ft_heartbeats_total", reducer="rate",
            window_s=spec["rule_window_s"], op="<",
            threshold=healthy * 0.5, clear_threshold=healthy * 0.7,
            for_s=spec["rule_for_s"], severity="critical"))
        self.scarecrow.feed_fault_tolerance(self.ft)
        self.engine = self.farm.enable_remediation(
            fault_tolerance=self.ft,
            config=GuardrailConfig(default_cooldown_s=spec["cooldown_s"],
                                   max_active=1, blast_radius=1))
        self.engine.add_policy(DrainPolicy(GRAY_RULE))
        if self.recorder is not None:
            hooks = self.scarecrow.alerts.on_transition
            hooks[:] = [self.recorder.wrap(hook, "remediation.act")
                        for hook in hooks]

    def schedule(self, t0: float, incidents: Sequence[Dict[str, Any]]
                 ) -> None:
        """Script the timed phase: incident onsets and, when guarded, the
        gray failure on the busiest switch with its MU bookkeeping."""
        sim = self.sim
        for incident in incidents:
            sim.schedule_at(
                t0 + incident["onset_s"], self._start,
                _incident_traffic(incident), incident["leaf"],
                label=f"incident {incident['kind']}",
                cost_key=("traffic", incident["leaf"], None, "incident"))
        if not self.guarded:
            return
        start, end = (t0 + s for s in self.spec["gray_window_s"])
        sim.schedule_at(start - self.spec["heartbeat_s"], self._arm_gray,
                        start, end, label="farmbench: arm gray failure")
        sim.schedule_at(start, self._beats, "beats_start",
                        label="farmbench: gray window opens")
        sim.schedule_at(end - self.spec["heartbeat_s"] / 2,
                        self._capture_placement,
                        label="farmbench: capture placement")
        sim.schedule_at(end, self._beats, "beats_end",
                        label="farmbench: gray window closes")

    def _arm_gray(self, start: float, end: float) -> None:
        # The busiest switch: where the solver packed the movable probes
        # (a spine), so the drain has seeds it can actually migrate.
        soils = self.farm.seeder.soils
        victim = max(soils, key=lambda n: (soils[n].num_seeds, -n))
        self.gray["victim"] = victim
        self.gray["baseline_mu"] = sum(
            utility for _switch, utility in self._live_seed_utilities())
        self.farm.chaos.gray_failure(victim, loss=self.spec["gray_loss"],
                                     at=start, duration=end - start)

    def _beats(self, key: str) -> None:
        self.gray[key] = {
            switch: self.registry.value("farm_ft_heartbeats_total",
                                        {"switch": str(switch)})
            for switch in self.farm.seeder.soils}

    def _capture_placement(self) -> None:
        self.gray["placed"] = self._live_seed_utilities()

    def _live_seed_utilities(self) -> List[Tuple[int, float]]:
        """(switch, utility) of every seed actually running right now."""
        seeder = self.farm.seeder
        zeros = {r: 0.0 for r in seeder.resource_types}
        out = []
        for task in seeder.tasks.values():
            for seed in task.seeds:
                soil = seeder.soils.get(seed.switch)
                if soil is None or seed.seed_id not in soil.deployments:
                    continue
                utility = seed.blueprint.utility_for_state(
                    seed.current_state or seed.blueprint.initial_state)
                out.append((seed.switch,
                            utility.evaluate({**zeros, **seed.allocation})))
        return out

    def mu_retained(self) -> float:
        """Delivery-weighted MU at the end of the gray window over the
        pre-failure MU (the definition of ``run_remediation_mode``)."""
        gray = self.gray
        window = self.spec["gray_window_s"][1] - self.spec["gray_window_s"][0]
        expected = window / self.spec["heartbeat_s"]
        delivery = {
            switch: max(0.0, min(1.0, (gray["beats_end"][switch]
                                       - gray["beats_start"][switch])
                                 / expected))
            for switch in gray["beats_end"]}
        effective = sum(utility * delivery.get(switch, 0.0)
                        for switch, utility in gray["placed"])
        return effective / gray["baseline_mu"]

    # -- reading -----------------------------------------------------------
    def submitted_seed_count(self) -> int:
        return sum(len(task.seeds)
                   for task in self.farm.seeder.tasks.values())

    def live_seed_count(self) -> int:
        return self.farm.seeder.deployed_seed_count()

    def placed_tasks(self) -> List[str]:
        solution = self.farm.seeder.last_solution
        return sorted(solution.placed_tasks) if solution else []

    def task_ids(self) -> List[str]:
        return sorted(task.task_id for task in self.tasks.values())

    def monitoring_utility(self) -> float:
        return self.farm.seeder.last_solution.objective

    def placement_map(self) -> List[Tuple[str, int]]:
        return sorted(self.farm.seeder.last_solution.placement.items())

    def reports(self, task_name: str) -> List[Tuple[float, int, Any]]:
        """(sim time, switch, value) of every report a task's harvester
        accepted."""
        return [(r.time, r.switch, r.value)
                for r in self.tasks[task_name].harvester.reports]

    def cpu_load_percent(self) -> List[float]:
        return [switch.cpu.mean_load_percent() for switch in self.farm.fleet]

    def driver_calls(self) -> int:
        return sum(soil.driver.calls
                   for soil in self.farm.seeder.soils.values())

    def guard_counts(self) -> Dict[str, float]:
        tracer = self.farm.tracer
        fired = 0
        if self.scarecrow is not None:
            fired = sum(1 for event in self.scarecrow.log
                        if event.state == "firing")
        return {"obs.alerts_fired_total": fired,
                "obs.trace_events_total": len(tracer),
                "obs.trace_dropped_total": tracer.dropped}


def heavy_ports(incident: Dict[str, Any]) -> List[int]:
    """Which ports a heavy-hitter incident makes heavy: the traffic
    generator's own ground truth, read off a detached instance."""
    workload = _incident_traffic(incident)
    workload.start(Simulator(), _NullSink())
    return sorted(workload.true_heavy_ports())


class _NullSink:
    def attach_flow(self, flow: Any, in_port: int, out_port: int) -> None:
        pass

    def detach_flow(self, flow: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# placement_fig7 / placement_churn
# ---------------------------------------------------------------------------

def generate_instance(num_seeds: int, num_switches: int, num_tasks: int,
                      seed: int, capacity_scale: float = 1.0) -> Any:
    problem = generate_problem(num_seeds, num_switches, num_tasks=num_tasks,
                               seed=seed)
    if capacity_scale != 1.0:
        for caps in problem.available.values():
            for resource in caps:
                caps[resource] *= capacity_scale
    return problem


def solve_full(problem: Any) -> Any:
    return solve_heuristic(problem)


def _apply_delta(problem: Any, delta: Any, incumbent: Any) -> Any:
    return apply_delta(problem, delta, incumbent=incumbent)


def _solve_incremental(problem: Any, incumbent: Any, delta: Any) -> Any:
    return solve_incremental(problem, incumbent, delta=delta)


def violations(problem: Any, solution: Any) -> List[str]:
    return validate_solution(problem, solution)


def solution_summary(problem: Any, solution: Any) -> Dict[str, Any]:
    return {"objective": solution.objective,
            "placed": len(solution.placement),
            "seeds": problem.num_seeds,
            "placement": sorted(solution.placement.items()),
            "allocations": sorted(
                (seed_id, sorted(alloc.items()))
                for seed_id, alloc in solution.allocations.items())}


def residents_by_switch(problem: Any, solution: Any) -> Dict[int, List[str]]:
    residents: Dict[int, List[str]] = {n: [] for n in problem.switches}
    for seed_id, switch in solution.placement.items():
        residents[switch].append(seed_id)
    return residents


def churn_delta(problem: Any, solution: Any, kind: str, target: int,
                index: int) -> Any:
    """One single-switch delta of ``kind`` against ``target`` (the four
    scenario shapes of ``run_churn_benchmark``)."""
    vcpu = problem.available[target]["vCPU"]
    if kind == "shrink":
        return ChurnDelta(capacity_changes={target: {"vCPU": vcpu * 0.75}})
    if kind == "grow":
        return ChurnDelta(capacity_changes={target: {"vCPU": vcpu * 1.5}})
    if kind == "task-add":
        switches = problem.switches
        anchor = switches.index(target)
        task_id = f"churn-probe-{index}"
        piece = UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -0.1),
                         LinPoly({"RAM": 1.0}, -32.0)),
            utility=ConcaveUtility.constant(5.0))
        seeds = [SeedSpec(
            seed_id=f"{task_id}/s{i}", task_id=task_id,
            candidates=tuple(sorted(
                switches[(anchor + i + k) % len(switches)]
                for k in range(3))),
            utility=PiecewiseUtility([piece])) for i in range(4)]
        return ChurnDelta(added_tasks=(TaskSpec(task_id=task_id,
                                                seeds=seeds),))
    if kind == "poll-bump":
        for seed_id in sorted(sid for sid, n in solution.placement.items()
                              if n == target):
            seed = problem.seed(seed_id)
            if seed.poll_demands:
                bumped = tuple(
                    PollDemand(subject=d.subject,
                               inv_interval=LinPoly(
                                   dict(d.inv_interval.coeffs),
                                   d.inv_interval.const + 2.0),
                               weight=d.weight)
                    for d in seed.poll_demands)
                return ChurnDelta(poll_changes={seed_id: bumped})
        return ChurnDelta(capacity_changes={target: {"vCPU": vcpu * 1.1}})
    raise ValueError(f"unknown delta kind {kind!r}")


def apply_and_resolve(problem: Any, incumbent: Any, delta: Any
                      ) -> Tuple[Any, Any, float, float]:
    """Apply one delta and re-solve warm; returns the churned problem,
    the new solution and the host (CPU) seconds of each half."""
    clock = time.process_time
    start = clock()
    churned = _apply_delta(problem, delta, incumbent)
    middle = clock()
    solution = _solve_incremental(churned, incumbent, delta)
    return churned, solution, middle - start, clock() - middle


def resolve_info(solution: Any) -> Dict[str, Any]:
    return {"incremental": bool(solution.info.get("incremental")),
            "fallback": solution.info.get("fallback"),
            "dirty_seeds": int(solution.info.get("dirty_seeds", 0))}


# ---------------------------------------------------------------------------
# timer_storm and the kernel probes: the bare Simulator
# ---------------------------------------------------------------------------

class TimerStorm:
    """Periodic timers with trivial callbacks plus one schedule-then-
    cancel retry timeout per ``cancel_every`` ticks."""

    def __init__(self, timers: Sequence[Tuple[float, float]],
                 cancel_every: int, retry_delay_s: float) -> None:
        self.sim = Simulator()
        self.ticks = 0
        self.cancels = 0
        self._cancel_every = cancel_every
        self._retry_delay_s = retry_delay_s
        for interval, first in timers:
            self.sim.every(interval, self._tick, start_after=first)

    def _tick(self) -> None:
        self.ticks += 1
        if self.ticks % self._cancel_every == 0:
            self.sim.schedule(self._retry_delay_s, _noop).cancel()
            self.cancels += 1


def _noop() -> None:
    pass


def kernel_probe(events: int, cancels_per_event: int) -> float:
    """Events per host second of a self-rescheduling tick loop (the two
    ``bench_kernel`` loops: plain, and cancel-heavy)."""
    sim = Simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        for _ in range(cancels_per_event):
            sim.schedule_at(sim.now + 10.0, _noop).cancel()
        if fired[0] < events:
            sim.schedule_at(sim.now + 0.001, tick)

    sim.schedule_at(0.0, tick)
    start = time.process_time()
    sim.run()
    return events / (time.process_time() - start)


def compile_probe() -> float:
    """Host ms per task to push every Tab. I source through the public
    compile path."""
    definitions = [factory() for factory in TASK_REGISTRY.values()]
    start = time.process_time()
    for definition in definitions:
        for machine in definition.machines:
            compile_source(definition.source, machine.machine_name,
                           externals=machine.externals)
    return (time.process_time() - start) * 1e3 / len(definitions)
