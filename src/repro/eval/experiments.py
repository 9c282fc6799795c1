"""Experiment drivers for every table and figure of SVI.

Each ``run_*`` function reproduces one evaluation artifact and returns
plain data (rows/series) that the benchmark suite prints and asserts
shapes over.  Keeping them here (not in ``benchmarks/``) makes them part
of the public API: a downstream user can rerun any paper experiment
programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.sflow import SflowDeployment
from repro.baselines.sonata import SonataDeployment, SonataQuery
from repro.baselines.specialized import HeliosMonitor, PlanckMonitor
from repro.core.comm import (
    CommScheme,
    ControlBus,
    ExecutionMode,
    SoilCommConfig,
    seed_soil_latency,
)
from repro.core.deployment import FarmDeployment
from repro.core.soil import Soil
from repro.core.task import MachineConfig, TaskDefinition
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload
from repro.placement.heuristic import solve_heuristic
from repro.placement.instances import generate_problem
from repro.placement.milp import solve_milp
from repro.placement.model import validate_solution
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch, SwitchFleet
from repro.switchsim.stratum import driver_for
from repro.tasks.heavy_hitter import make_task as make_hh_task
from repro.tasks.ml_task import ML_EVENT_CPU_S, SVR_ITERATION_CPU_S

HH_THRESHOLD_BPS = 10e6
HEAVY_RATE_BPS = 100e6


# ---------------------------------------------------------------------------
# Tab. 4 — responsiveness
# ---------------------------------------------------------------------------

@dataclass
class DetectionResult:
    system: str
    kind: str  # "G"eneric or "S"pecialized
    latency_s: Optional[float]


def _farm_detection_latency(accuracy_ms: float = 1.0,
                            trial_phase: float = 0.0) -> Optional[float]:
    farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
    task = make_hh_task(threshold=HH_THRESHOLD_BPS, accuracy_ms=accuracy_ms)
    farm.submit(task)
    farm.settle(0.05 + trial_phase)
    leaf = farm.topology.leaf_ids[0]
    workload = HeavyHitterWorkload(
        num_ports=20, hh_ratio=0.05, hh_rate_bps=HEAVY_RATE_BPS,
        churn_interval=None, seed=7)
    onset = farm.sim.now
    farm.start_workload(workload, leaf)
    farm.run(until=onset + 5.0)
    first = task.harvester.first_detection_time()
    return None if first is None else first - onset


def _baseline_detection_latency(system: str,
                                trial_phase: float = 0.0) -> Optional[float]:
    sim = Simulator()
    topology = spine_leaf(1, 1, 1)
    fleet = SwitchFleet.for_topology(sim, topology)
    bus = ControlBus(sim)
    leaf = topology.leaf_ids[0]
    switch = fleet.get(leaf)
    pairs = [(sw, driver_for(sw)) for sw in fleet]
    if system == "sflow":
        # 1 ms probing with a 200 ms collector analysis pass: the mean
        # detection wait (~100 ms) matches the paper's measured sFlow row.
        deployment = SflowDeployment(sim, pairs, bus, HH_THRESHOLD_BPS,
                                     probe_period_s=0.001,
                                     analysis_interval_s=0.2)
        detector = deployment.collector
    elif system == "sonata":
        deployment = SonataDeployment(sim, pairs, bus,
                                      SonataQuery(threshold_bps=HH_THRESHOLD_BPS))
        detector = deployment.collector
    elif system == "planck":
        detector = PlanckMonitor(sim, switch, driver_for(switch),
                                 HH_THRESHOLD_BPS)
    elif system == "helios":
        detector = HeliosMonitor(sim, switch, driver_for(switch),
                                 HH_THRESHOLD_BPS)
    else:
        raise ValueError(f"unknown system {system!r}")
    sim.run(until=0.05 + trial_phase)
    workload = HeavyHitterWorkload(
        num_ports=20, hh_ratio=0.05, hh_rate_bps=HEAVY_RATE_BPS,
        churn_interval=None, seed=7)
    onset = sim.now
    workload.start(sim, switch.asic)
    sim.run(until=onset + 20.0)
    first = detector.first_detection_time()
    return None if first is None else first - onset


def run_tab4_responsiveness(trials: int = 3) -> List[DetectionResult]:
    """Tab. 4: HH detection time for FARM and the four baselines."""
    def mean_over_trials(fn) -> Optional[float]:
        values = []
        for trial in range(trials):
            value = fn(trial * 0.0017)
            if value is not None:
                values.append(value)
        return sum(values) / len(values) if values else None

    results = [
        DetectionResult("FARM", "G", mean_over_trials(
            lambda ph: _farm_detection_latency(1.0, ph))),
        DetectionResult("Planck", "S", mean_over_trials(
            lambda ph: _baseline_detection_latency("planck", ph))),
        DetectionResult("Helios", "S", mean_over_trials(
            lambda ph: _baseline_detection_latency("helios", ph))),
        DetectionResult("sFlow", "G", mean_over_trials(
            lambda ph: _baseline_detection_latency("sflow", ph))),
        DetectionResult("Sonata", "G", mean_over_trials(
            lambda ph: _baseline_detection_latency("sonata", ph))),
    ]
    return results


# ---------------------------------------------------------------------------
# Fig. 4 — network load vs number of ports
# ---------------------------------------------------------------------------

@dataclass
class NetworkLoadPoint:
    system: str
    ports: int
    control_bytes_per_s: float
    control_msgs_per_s: float


def run_fig4_network_load(port_counts: Tuple[int, ...] = (100, 200, 400,
                                                          600),
                          duration_s: float = 5.0) -> List[NetworkLoadPoint]:
    """Fig. 4: control-network load of FARM / sFlow(1 ms) / sFlow(10 ms) /
    Sonata(75 % aggregation) as the monitored port count grows.

    HH parameters per SVI-B-b: 1 % heavy, churn once per minute.  Port
    counts beyond one switch are modeled as multiple 50-port switches.
    """
    points: List[NetworkLoadPoint] = []
    for ports in port_counts:
        num_switches = max(1, (ports + 49) // 50)
        ports_per_switch = ports // num_switches
        # --- FARM -----------------------------------------------------
        farm = FarmDeployment(topology=spine_leaf(1, num_switches, 1))
        task = make_hh_task(threshold=HH_THRESHOLD_BPS, accuracy_ms=10)
        farm.submit(task)
        farm.settle(0.05)
        for leaf in farm.topology.leaf_ids:
            workload = HeavyHitterWorkload(
                num_ports=min(ports_per_switch, 48), hh_ratio=0.01,
                hh_rate_bps=HEAVY_RATE_BPS, churn_interval=60.0, seed=leaf)
            farm.start_workload(workload, leaf)
        value = farm.metrics.value
        start_bytes = value("farm_bus_bytes_total")
        start_msgs = value("farm_bus_messages_total")
        t0 = farm.sim.now
        farm.run(until=t0 + duration_s)
        points.append(NetworkLoadPoint(
            "FARM", ports,
            (value("farm_bus_bytes_total") - start_bytes) / duration_s,
            (value("farm_bus_messages_total") - start_msgs) / duration_s))
        # --- baselines --------------------------------------------------
        for system, period in (("sFlow 1ms", 0.001), ("sFlow 10ms", 0.010),
                               ("Sonata", None)):
            sim = Simulator()
            topology = spine_leaf(1, num_switches, 1)
            fleet = SwitchFleet.for_topology(sim, topology)
            bus = ControlBus(sim)
            pairs = [(sw, driver_for(sw)) for sw in fleet
                     if sw.switch_id in topology.leaf_ids]
            if system == "Sonata":
                SonataDeployment(sim, pairs, bus,
                                 SonataQuery(threshold_bps=HH_THRESHOLD_BPS,
                                             aggregation_factor=0.75))
            else:
                SflowDeployment(sim, pairs, bus, HH_THRESHOLD_BPS,
                                probe_period_s=period)
            for leaf in topology.leaf_ids:
                workload = HeavyHitterWorkload(
                    num_ports=min(ports_per_switch, 48), hh_ratio=0.01,
                    hh_rate_bps=HEAVY_RATE_BPS, churn_interval=60.0,
                    seed=leaf)
                workload.start(sim, fleet.get(leaf).asic)
            t0 = sim.now
            sim.run(until=t0 + duration_s)
            points.append(NetworkLoadPoint(
                system, ports,
                bus.metrics.value("farm_bus_bytes_total") / duration_s,
                bus.metrics.value("farm_bus_messages_total") / duration_s))
    return points


# ---------------------------------------------------------------------------
# Fig. 5 — switch CPU load vs number of flows
# ---------------------------------------------------------------------------

@dataclass
class CpuLoadPoint:
    system: str
    flows: int
    cpu_load_percent: float
    #: Load recomputed from the registry counters (``farm_cpu_*_total``)
    #: instead of the CPU model's private integrals — the Fig. 5 check.
    registry_cpu_load_percent: float = 0.0


def _registry_cpu_load_percent(switch: Switch, horizon_s: float) -> float:
    """Mean CPU load in percent from the metrics registry alone.

    The registry counters mirror the CPU model's work/standing integrals
    add-for-add, so this matches ``mean_load_percent()`` exactly.
    """
    switch.cpu.mean_load_percent()  # flush the standing-load integral
    labels = {"switch": switch.switch_id}
    work = switch.metrics.value("farm_cpu_work_seconds_total", labels)
    standing = switch.metrics.value(
        "farm_cpu_standing_core_seconds_total", labels)
    demand = (work + standing) / horizon_s * 100.0
    return min(demand, switch.cpu.num_cores * 100.0)


def run_fig5_cpu_load(flow_counts: Tuple[int, ...] = (100, 200, 400, 600,
                                                      800, 1000),
                      duration_s: float = 5.0) -> List[CpuLoadPoint]:
    """Fig. 5: switch CPU of FARM vs sFlow polling flow rules at equal
    (10 ms) accuracy.  sFlow's per-sample shipping cost is flat in the
    flow count; FARM's analysis grows with monitored state.
    """
    points: List[CpuLoadPoint] = []
    for flows in flow_counts:
        # FARM: one seed analyzing `flows` flow-rule statistics.
        sim = Simulator()
        switch = Switch(sim, 1)
        soil = Soil(sim, switch, driver_for(switch), ControlBus(sim))
        # Event cost grows with the number of rules the handler scans.
        event_cpu = 2e-6 + flows * 0.05e-6
        _deploy_polling_seed(soil, "farm-seed", interval_s=0.010,
                             event_cpu_s=event_cpu)
        sim.run(until=duration_s)
        points.append(CpuLoadPoint(
            "FARM", flows, switch.cpu.mean_load_percent(),
            _registry_cpu_load_percent(switch, duration_s)))
        # sFlow: agent samples and forwards, cost per sample, no analysis.
        sim = Simulator()
        switch = Switch(sim, 1)
        bus = ControlBus(sim)
        from repro.baselines.sflow import SflowCollector, SflowAgent
        collector = SflowCollector(sim, bus, HH_THRESHOLD_BPS)
        SflowAgent(sim, switch, driver_for(switch), bus, collector.endpoint,
                   probe_period_s=0.010)
        sim.run(until=duration_s)
        points.append(CpuLoadPoint(
            "sFlow", flows, switch.cpu.mean_load_percent(),
            _registry_cpu_load_percent(switch, duration_s)))
    return points


# ---------------------------------------------------------------------------
# Fig. 6 — CPU load vs number of seeds (HH and ML tasks)
# ---------------------------------------------------------------------------

#: Simple HH seed used for direct-soil scaling experiments.
_SCALING_SEED_SOURCE = """
machine ScaleProbe {{
  place all;
  poll pollStats = Poll {{ .ival = {interval}, .what = port ANY }};
  state observe {{
    util (res) {{ return 1; }}
    when (pollStats as stats) do {{ }}
  }}
}}
"""

_ML_SEED_SOURCE = """
machine ScaleML {{
  place all;
  poll pollStats = Poll {{ .ival = {interval}, .what = port ANY }};
  external long iterations;
  state predicting {{
    util (res) {{ return 1; }}
    when (pollStats as stats) do {{
      int it = 0;
      while (it < iterations) {{
        exec("svr_predict", stats);
        it = it + 1;
      }}
    }}
  }}
}}
"""


def _deploy_polling_seed(soil: Soil, seed_id: str, interval_s: float,
                         event_cpu_s: float,
                         source: Optional[str] = None,
                         externals: Optional[dict] = None) -> None:
    from repro.almanac.parser import parse
    from repro.almanac.xmlcodec import encode_program
    text = (source or _SCALING_SEED_SOURCE).format(interval=interval_s)
    program = parse(text)
    machine = program.machines[0].name
    soil.deploy(seed_id=seed_id, task_id=f"task-{seed_id}",
                program_xml=encode_program(program), machine_name=machine,
                externals=externals,
                allocation={"vCPU": 0.05, "RAM": 16, "TCAM": 4, "PCIe": 10},
                event_cpu_s=event_cpu_s)


@dataclass
class SeedScalingPoint:
    task: str
    accuracy_ms: float
    seeds: int
    cpu_load_percent: float
    polling_accuracy_met: bool


def run_fig6_seed_scaling(
        task: str = "hh",
        accuracy_ms: float = 10.0,
        seed_counts: Tuple[int, ...] = (10, 20, 40, 60, 80, 100),
        iterations: int = 1,
        duration_s: float = 2.0) -> List[SeedScalingPoint]:
    """Fig. 6: CPU load of N collocated seeds at a fixed polling accuracy.

    ``task='hh'`` uses the light statistics handler; ``task='ml'`` runs
    ``iterations`` SVR evaluations per poll via exec() (Fig. 6c/d).
    """
    points: List[SeedScalingPoint] = []
    for count in seed_counts:
        sim = Simulator()
        switch = Switch(sim, 1)
        soil = Soil(sim, switch, driver_for(switch), ControlBus(sim))
        if task == "ml":
            # Charge the measured-equivalent switch-CPU cost per iteration;
            # skip the real matmul here (the benchmark measures switch load,
            # not host time).
            soil.register_external("svr_predict", lambda stats: 0.0,
                                   cpu_cost_s=SVR_ITERATION_CPU_S)
        for index in range(count):
            if task == "ml":
                _deploy_polling_seed(
                    soil, f"ml{index}", interval_s=accuracy_ms / 1000.0,
                    event_cpu_s=ML_EVENT_CPU_S, source=_ML_SEED_SOURCE,
                    externals={"iterations": iterations})
            else:
                _deploy_polling_seed(
                    soil, f"hh{index}", interval_s=accuracy_ms / 1000.0,
                    event_cpu_s=10e-6)
        sim.run(until=duration_s)
        points.append(SeedScalingPoint(
            task=task, accuracy_ms=accuracy_ms, seeds=count,
            cpu_load_percent=switch.cpu.mean_load_percent(),
            polling_accuracy_met=not switch.cpu.saturated_demand))
    return points


# ---------------------------------------------------------------------------
# Fig. 7 — placement optimization quality and runtime
# ---------------------------------------------------------------------------

@dataclass
class PlacementPoint:
    solver: str
    num_seeds: int
    utility: float
    runtime_s: float
    feasible: bool


def run_fig7_placement(
        seed_counts: Tuple[int, ...] = (1000, 4000, 7000, 10200),
        num_switches: int = 1040,
        runs_per_size: int = 3,
        milp_time_limits: Tuple[float, ...] = (1.0,),
        include_milp: bool = True) -> List[PlacementPoint]:
    """Fig. 7: heuristic vs MILP utility (a) and runtime (b).

    The paper uses Gurobi with 1 s and 10 min timeouts; HiGHS stands in.
    ``runs_per_size`` averages over randomized instances (paper: 10).
    """
    points: List[PlacementPoint] = []
    for count in seed_counts:
        h_utils, h_times = [], []
        m_results: Dict[float, List[Tuple[float, float]]] = {
            limit: [] for limit in milp_time_limits}
        for run in range(runs_per_size):
            problem = generate_problem(count, num_switches, num_tasks=10,
                                       seed=run)
            solution = solve_heuristic(problem)
            validate_solution(problem, solution)
            h_utils.append(solution.objective)
            h_times.append(solution.runtime_s)
            if include_milp:
                for limit in milp_time_limits:
                    milp_solution = solve_milp(problem, time_limit_s=limit)
                    m_results[limit].append(
                        (milp_solution.objective, milp_solution.runtime_s))
        points.append(PlacementPoint(
            "FARM", count, sum(h_utils) / len(h_utils),
            sum(h_times) / len(h_times), True))
        if include_milp:
            for limit, results in m_results.items():
                if results:
                    points.append(PlacementPoint(
                        f"MILP({limit:g}s)", count,
                        sum(r[0] for r in results) / len(results),
                        sum(r[1] for r in results) / len(results), True))
    return points


# ---------------------------------------------------------------------------
# Fig. 8 — PCIe vs ASIC congestion
# ---------------------------------------------------------------------------

@dataclass
class BusLoadPoint:
    seeds: int
    pcie_oversubscription: float
    asic_utilization: float


def run_fig8_pcie(seed_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32),
                  interval_s: float = 0.001,
                  duration_s: float = 0.2,
                  aggregation: bool = False) -> List[BusLoadPoint]:
    """Fig. 8: polling congests the PCIe bus long before the ASIC fabric.

    Every seed polls all port counters at 1 ms.  Without aggregation the
    per-seed demand adds up and saturates the 8 Mbps polling path within a
    handful of seeds; the ASIC, carrying a multi-Gbps workload, is at a
    fraction of a percent.  (Re-run with ``aggregation=True`` to see the
    soil collapse all that demand to a single poll stream.)
    """
    points: List[BusLoadPoint] = []
    for count in seed_counts:
        sim = Simulator()
        switch = Switch(sim, 1)
        soil = Soil(sim, switch, driver_for(switch), ControlBus(sim),
                    config=SoilCommConfig(aggregation=aggregation))
        workload = HeavyHitterWorkload(num_ports=40, hh_ratio=0.05,
                                       hh_rate_bps=2.5e8, seed=1,
                                       churn_interval=None)
        workload.start(sim, switch.asic)
        for index in range(count):
            _deploy_polling_seed(soil, f"s{index}", interval_s=interval_s,
                                 event_cpu_s=5e-6)
        sim.run(until=duration_s)
        switch.asic.refresh_fabric_demand()
        points.append(BusLoadPoint(
            seeds=count,
            pcie_oversubscription=switch.pcie.oversubscription,
            asic_utilization=switch.asic.fabric.utilization))
    return points


# ---------------------------------------------------------------------------
# Fig. 9 — aggregation cost (threads vs processes)
# ---------------------------------------------------------------------------

@dataclass
class AggregationPoint:
    mode: str  # "threads" | "processes"
    aggregation: bool
    seeds: int
    soil_cpu_percent: float


def run_fig9_aggregation(
        seed_counts: Tuple[int, ...] = (1, 25, 50, 100, 150),
        interval_s: float = 0.010,
        duration_s: float = 2.0) -> List[AggregationPoint]:
    """Fig. 9: the soil CPU cost of aggregating seed poll requests.

    Thread-based seeds see almost no aggregation cost; process-based
    seeds pay context switches per fan-out.
    """
    points: List[AggregationPoint] = []
    configs = [
        ("threads", SoilCommConfig(ExecutionMode.THREAD,
                                   CommScheme.SHARED_BUFFER,
                                   aggregation=True)),
        ("threads-noagg", SoilCommConfig(ExecutionMode.THREAD,
                                         CommScheme.SHARED_BUFFER,
                                         aggregation=False)),
        ("processes", SoilCommConfig(ExecutionMode.PROCESS, CommScheme.GRPC,
                                     aggregation=True)),
        ("processes-noagg", SoilCommConfig(ExecutionMode.PROCESS,
                                           CommScheme.GRPC,
                                           aggregation=False)),
    ]
    for count in seed_counts:
        for mode, config in configs:
            sim = Simulator()
            switch = Switch(sim, 1)
            soil = Soil(sim, switch, driver_for(switch), ControlBus(sim),
                        config=config)
            for index in range(count):
                _deploy_polling_seed(soil, f"s{index}",
                                     interval_s=interval_s,
                                     event_cpu_s=10e-6)
            sim.run(until=duration_s)
            points.append(AggregationPoint(
                mode=mode.split("-")[0],
                aggregation="noagg" not in mode,
                seeds=count,
                soil_cpu_percent=switch.cpu.mean_load_percent()))
    return points


# ---------------------------------------------------------------------------
# Fig. 10 — seed<->soil communication latency
# ---------------------------------------------------------------------------

@dataclass
class CommLatencyPoint:
    scheme: str  # "shared_buffer" | "grpc"
    seeds: int
    latency_s: float


def run_fig10_comm_latency(
        seed_counts: Tuple[int, ...] = (1, 25, 50, 100, 150)
        ) -> List[CommLatencyPoint]:
    """Fig. 10: gRPC latency grows linearly with deployed seeds; the
    shared buffer stays flat."""
    points: List[CommLatencyPoint] = []
    for count in seed_counts:
        grpc = SoilCommConfig(ExecutionMode.PROCESS, CommScheme.GRPC)
        shared = SoilCommConfig(ExecutionMode.THREAD,
                                CommScheme.SHARED_BUFFER)
        points.append(CommLatencyPoint(
            "grpc", count, seed_soil_latency(grpc, count)))
        points.append(CommLatencyPoint(
            "shared_buffer", count, seed_soil_latency(shared, count)))
    return points


# ---------------------------------------------------------------------------
# Chaos resilience — MU retained under control-plane faults
# ---------------------------------------------------------------------------

@dataclass
class ChaosResiliencePoint:
    loss: float
    seeds_expected: int
    seeds_deployed: int
    achieved_mu: float
    planned_mu: float
    retransmissions: int
    lost_commands: int
    messages_dropped: int

    @property
    def mu_retained(self) -> float:
        """Fraction of the optimizer's planned MU actually running."""
        if self.planned_mu <= 0:
            return 0.0
        return self.achieved_mu / self.planned_mu


def run_chaos_resilience(
        loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
        duration_s: float = 2.0,
        chaos_seed: int = 11) -> List[ChaosResiliencePoint]:
    """Monitoring utility retained as control-message loss grows.

    For each loss rate, a heavy-hitter task (one seed per switch) is
    deployed over a fault-injected control bus; the reliable command
    channel retries until every deploy lands.  ``mu_retained`` compares
    the MU of the seeds *actually running* after ``duration_s`` against
    the optimizer's plan — 1.0 means no deploy command was lost.
    """
    from repro.placement.model import compute_objective

    points: List[ChaosResiliencePoint] = []
    for loss in loss_rates:
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        chaos = farm.enable_chaos(seed=chaos_seed)
        if loss:
            chaos.lossy(loss)
        farm.submit(make_hh_task(threshold=HH_THRESHOLD_BPS,
                                 accuracy_ms=10))
        farm.run(until=farm.sim.now + duration_s)
        seeder = farm.seeder
        solution = seeder.last_solution
        problem = seeder.build_problem()
        live = {seed_id: switch
                for seed_id, switch in solution.placement.items()
                if seed_id in seeder.soils[switch].deployments}
        achieved = compute_objective(problem, live, solution.allocations)
        planned = compute_objective(problem, solution.placement,
                                    solution.allocations)
        expected = sum(len(task.seeds) for task in seeder.tasks.values())
        points.append(ChaosResiliencePoint(
            loss=loss, seeds_expected=expected,
            seeds_deployed=seeder.deployed_seed_count(),
            achieved_mu=achieved, planned_mu=planned,
            # Commands retry from the seeder, lifecycle reports from the
            # soils: the family sums both directions' endpoints.
            retransmissions=int(farm.metrics.sum_values(
                "farm_reliable_retransmissions_total")),
            lost_commands=int(farm.metrics.value(
                "farm_seeder_lost_commands_total")),
            messages_dropped=chaos.messages_dropped))
    return points


# ---------------------------------------------------------------------------
# Scarecrow — self-monitoring under chaos (alert lifecycle + dashboard)
# ---------------------------------------------------------------------------

@dataclass
class ScarecrowChaosPoint:
    """Outcome of one chaos run observed end-to-end by Scarecrow."""

    loss_start_s: float
    loss_end_s: float
    duration_s: float
    #: ``(sim_t, rule, state)`` for every alert lifecycle transition.
    alert_log: List[Tuple[float, str, str]]
    #: sim-seconds from loss-phase start to mu-degradation firing.
    firing_delay_s: Optional[float]
    #: did the mu-degradation alert resolve after the partition healed?
    resolved: bool
    external_suspicions: int
    parked_peak: float
    scrapes: int


def run_scarecrow_chaos(duration_s: float = 80.0,
                        loss_start_s: float = 10.0,
                        loss_end_s: float = 40.0,
                        chaos_seed: int = 11,
                        scrape_interval_s: float = 1.0,
                        dashboard_path: Optional[str] = None
                        ) -> ScarecrowChaosPoint:
    """Partition one switch mid-run and let the telemetry pipeline tell
    the story: the fault-tolerance layer parks the victim's pinned seeds,
    the ``mu-degradation`` threshold rule fires off the parked-seeds
    gauge, an EWMA rule flags the heartbeat-rate drop, and both resolve
    once the partition heals.  ``dashboard_path`` additionally renders
    the whole run as a self-contained HTML dashboard.
    """
    from repro.core.fault_tolerance import FaultToleranceManager
    from repro.obs.alerts import FIRING, RESOLVED, EwmaAnomalyRule, ThresholdRule

    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    chaos = farm.enable_chaos(seed=chaos_seed)
    farm.submit(make_hh_task(threshold=HH_THRESHOLD_BPS, accuracy_ms=10))
    ft = FaultToleranceManager(farm.seeder)
    scarecrow = farm.enable_scarecrow(interval_s=scrape_interval_s)
    scarecrow.add_rule(ThresholdRule(
        "mu-degradation", "farm_ft_parked_seeds", op=">", threshold=0.0,
        for_s=2.0, severity="critical",
        description="Seeds displaced by a failure with nowhere to go: "
                    "planned monitoring utility is not being delivered."))
    scarecrow.add_rule(EwmaAnomalyRule(
        "bus-drop-anomaly", "farm_bus_chaos_dropped_total",
        reducer="rate", window_s=5.0, direction="above",
        z_threshold=4.0, min_samples=5, severity="warning",
        description="Control-bus message drop rate spiked above its "
                    "EWMA baseline (chaos or congestion eating "
                    "heartbeats/reports)."))
    scarecrow.feed_fault_tolerance(ft)

    victim = max(farm.seeder.soils)
    chaos.partition_switch(victim, at=loss_start_s,
                           duration=loss_end_s - loss_start_s)
    farm.run(until=duration_s)
    scarecrow.scrape_once()

    events = scarecrow.events_for("mu-degradation")
    fired = [e.t for e in events if e.state == FIRING]
    resolved = [e.t for e in events
                if e.state == RESOLVED and e.t >= loss_end_s]
    parked = scarecrow.engine.max_over_time("farm_ft_parked_seeds")
    if dashboard_path is not None:
        scarecrow.write_dashboard(
            dashboard_path, title="Scarecrow — chaos run",
            subtitle=f"switch {victim} partitioned "
                     f"[{loss_start_s:g}s – {loss_end_s:g}s] of "
                     f"{duration_s:g}s; scrape every "
                     f"{scrape_interval_s:g}s")
    return ScarecrowChaosPoint(
        loss_start_s=loss_start_s, loss_end_s=loss_end_s,
        duration_s=duration_s,
        alert_log=[(e.t, e.rule, e.state) for e in scarecrow.log],
        firing_delay_s=(fired[0] - loss_start_s) if fired else None,
        resolved=bool(resolved),
        external_suspicions=int(
            farm.metrics.value("farm_ft_external_suspicions_total")),
        parked_peak=max(parked.values()) if parked else 0.0,
        scrapes=int(farm.metrics.value("scarecrow_scrapes_total")))


# ---------------------------------------------------------------------------
# Remediation — closed-loop detect → decide → act under a gray failure
# ---------------------------------------------------------------------------

def _make_probe_task(num_probes: int = 6,
                     interval_s: float = 0.05) -> TaskDefinition:
    """A fleet of *movable* probes: one ``place any`` machine per probe.

    The paper's HH task pins one seed per switch (``place all``), which a
    drain cannot move; remediation needs seeds whose candidate set spans
    the fabric, so each probe is its own machine with free placement.
    """
    blocks = []
    for index in range(num_probes):
        blocks.append(f"""
machine Probe{index} {{
  place any;
  poll pollStats = Poll {{ .ival = {interval_s}, .what = port ANY }};
  state observe {{
    util (res) {{ return 1; }}
    when (pollStats as stats) do {{ }}
  }}
}}""")
    return TaskDefinition(
        task_id="probe-fleet", source="\n".join(blocks),
        machines=[MachineConfig(machine_name=f"Probe{index}")
                  for index in range(num_probes)])


@dataclass
class RemediationRunPoint:
    """One gray-failure run: off (detection only), dry, or active."""

    mode: str                       # off | dry | active
    victim: Optional[int]
    baseline_mu: float              # live MU just before the gray phase
    effective_mu: float             # delivery-weighted MU at phase end
    delivery: Dict[int, float]      # per-switch heartbeat delivery frac.
    #: ``(sim_t, rule, state)`` for every alert lifecycle transition.
    alert_log: List[Tuple[float, str, str]]
    #: Normalized decision identities (action, switch, rule, verdict) —
    #: timestamps excluded so dry-run parity survives RNG divergence.
    decisions: List[Tuple]
    #: Full decision records (empty in "off" mode).
    records: List

    @property
    def mu_retained(self) -> float:
        """Delivery-weighted MU as a fraction of the pre-failure MU."""
        if self.baseline_mu <= 0:
            return 0.0
        return self.effective_mu / self.baseline_mu


@dataclass
class RemediationComparison:
    """The closed-loop proof: engine on vs dry-run vs detection-only."""

    off: RemediationRunPoint
    dry: RemediationRunPoint
    active: RemediationRunPoint

    @property
    def mu_gain(self) -> float:
        return self.active.mu_retained - self.off.mu_retained

    @property
    def dry_matches_active(self) -> bool:
        return self.dry.decisions == self.active.decisions

    @property
    def dry_changed_nothing(self) -> bool:
        return abs(self.dry.effective_mu - self.off.effective_mu) < 1e-9


def _live_utilities(seeder) -> List[Tuple[int, float]]:
    """``(switch, utility)`` of every seed actually running right now."""
    placed = []
    zeros = {r: 0.0 for r in seeder.resource_types}
    for task in seeder.tasks.values():
        for seed in task.seeds:
            if seed.switch is None:
                continue
            soil = seeder.soils.get(seed.switch)
            if soil is None or seed.seed_id not in soil.deployments:
                continue
            utility = seed.blueprint.utility_for_state(
                seed.current_state or seed.blueprint.initial_state)
            env = dict(zeros)
            env.update(seed.allocation)
            placed.append((seed.switch, utility.evaluate(env)))
    return placed


def run_remediation_mode(mode: str = "active",
                         duration_s: float = 80.0,
                         loss_start_s: float = 10.0,
                         loss_end_s: float = 50.0,
                         gray_loss: float = 0.75,
                         chaos_seed: int = 11,
                         num_probes: int = 6,
                         scrape_interval_s: float = 1.0,
                         dashboard_path: Optional[str] = None
                         ) -> RemediationRunPoint:
    """One gray-failure run with the remediation loop off/dry/active.

    A fleet of movable probes is placed over a small fabric; the switch
    hosting the most probes suffers a gray failure (``gray_loss`` of its
    control-plane output silently dropped — heartbeats trickle through,
    so the two-stage detector never confirms a failure).  A Scarecrow
    rate rule on the per-switch heartbeat counters fires, and in
    ``active`` mode a :class:`~repro.remediation.policies.DrainPolicy`
    cordons the victim and migrates its probes to healthy switches.

    The score is **delivery-weighted MU**: each live seed's utility is
    scaled by its switch's heartbeat delivery fraction over the gray
    window — a probe left on the gray switch is only as useful as the
    telemetry that actually escapes it.
    """
    from repro.core.fault_tolerance import FaultToleranceManager
    from repro.obs.alerts import ThresholdRule
    from repro.remediation import (
        DrainPolicy,
        EscalatePolicy,
        GuardrailConfig,
    )

    if mode not in ("off", "dry", "active"):
        raise ValueError(f"mode must be off/dry/active: {mode!r}")
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    chaos = farm.enable_chaos(seed=chaos_seed)
    farm.submit(_make_probe_task(num_probes=num_probes))
    # A gray switch keeps heartbeating *sometimes*: with a generous
    # confirm_limit the built-in detector can never declare it failed —
    # exactly the gap the remediation loop exists to close.
    ft = FaultToleranceManager(farm.seeder, confirm_limit=30)
    scarecrow = farm.enable_scarecrow(interval_s=scrape_interval_s)
    healthy_rate = 1.0 / ft.heartbeat_interval_s
    scarecrow.add_rule(ThresholdRule(
        "heartbeat-degraded", "farm_ft_heartbeats_total",
        reducer="rate", window_s=5.0, op="<",
        threshold=healthy_rate * 0.6, clear_threshold=healthy_rate * 0.75,
        for_s=3.0, severity="critical",
        description="A switch's heartbeat delivery rate dropped well "
                    "below the emission rate: gray failure (lossy but "
                    "alive) — telemetry from it is rotting."))
    scarecrow.feed_fault_tolerance(ft)

    engine = None
    if mode in ("dry", "active"):
        engine = farm.enable_remediation(
            fault_tolerance=ft, dry_run=(mode == "dry"),
            config=GuardrailConfig(default_cooldown_s=20.0, max_active=1,
                                   blast_radius=1, blast_window_s=60.0,
                                   flap_limit=2, flap_window_s=30.0))
        engine.add_policy(DrainPolicy("heartbeat-degraded"))
        engine.add_policy(EscalatePolicy("heartbeat-degraded",
                                         breaches=3, window_s=30.0))

    state: Dict[str, object] = {"victim": None, "baseline": 0.0,
                                "effective_raw": []}

    def pick_victim_and_fail() -> None:
        counts = {sw: soil.num_seeds
                  for sw, soil in farm.seeder.soils.items()}
        victim = max(sorted(counts), key=lambda sw: counts[sw])
        state["victim"] = victim
        state["baseline"] = sum(
            utility for _, utility in _live_utilities(farm.seeder))
        chaos.gray_failure(victim, loss=gray_loss, at=loss_start_s,
                           duration=loss_end_s - loss_start_s)

    def capture_placement() -> None:
        # Just before the failure heals: where did every live seed end
        # up, and what is it worth?  (Captured mid-run because the
        # post-heal restore migrates seeds back.)
        state["effective_raw"] = _live_utilities(farm.seeder)

    farm.sim.schedule(loss_start_s - 0.5, pick_victim_and_fail,
                      label="remediation: arm gray failure")
    farm.sim.schedule(loss_end_s - 0.25, capture_placement,
                      label="remediation: capture placement")
    farm.run(until=duration_s)
    scarecrow.scrape_once()

    # Per-switch heartbeat delivery over the gray window, from the TSDB
    # the alert rule itself read — the experiment scores what the
    # monitoring fabric saw, not privileged simulator state.
    window = loss_end_s - loss_start_s
    expected = window / ft.heartbeat_interval_s
    delivery: Dict[int, float] = {}
    vector = scarecrow.engine.delta("farm_ft_heartbeats_total",
                                    window_s=window, at=loss_end_s)
    for labels, delta in vector.items():
        switch = int(dict(labels)["switch"])
        delivery[switch] = max(0.0, min(1.0, delta / expected))
    effective = sum(u * delivery.get(sw, 0.0)
                    for sw, u in state["effective_raw"])

    if dashboard_path is not None:
        victim = state["victim"]
        scarecrow.write_dashboard(
            dashboard_path,
            title=f"Remediation — gray failure ({mode})",
            subtitle=f"switch {victim} gray at loss={gray_loss:g} "
                     f"[{loss_start_s:g}s – {loss_end_s:g}s] of "
                     f"{duration_s:g}s; engine {mode}",
            annotations=(engine.log.annotations()
                         if engine is not None else None))

    return RemediationRunPoint(
        mode=mode, victim=state["victim"],
        baseline_mu=state["baseline"], effective_mu=effective,
        delivery=delivery,
        alert_log=[(e.t, e.rule, e.state) for e in scarecrow.log],
        decisions=(engine.log.decision_keys() if engine is not None
                   else []),
        records=(list(engine.log.records) if engine is not None else []))


def run_remediation_loop(duration_s: float = 80.0,
                         loss_start_s: float = 10.0,
                         loss_end_s: float = 50.0,
                         gray_loss: float = 0.75,
                         chaos_seed: int = 11,
                         dashboard_path: Optional[str] = None
                         ) -> RemediationComparison:
    """The closed-loop proof: the same scripted gray failure three ways.

    * **off** — detection only: alerts fire, nothing acts.
    * **dry** — the engine decides (guardrails and all) but never acts;
      the simulation must be bit-identical to "off".
    * **active** — decisions execute; retained MU must beat "off".
    """
    kwargs = dict(duration_s=duration_s, loss_start_s=loss_start_s,
                  loss_end_s=loss_end_s, gray_loss=gray_loss,
                  chaos_seed=chaos_seed)
    return RemediationComparison(
        off=run_remediation_mode("off", **kwargs),
        dry=run_remediation_mode("dry", **kwargs),
        active=run_remediation_mode("active", dashboard_path=dashboard_path,
                                    **kwargs))


# ---------------------------------------------------------------------------
# Surveyor — profiling and load-imbalance reporting
# ---------------------------------------------------------------------------

@dataclass
class ProfilePoint:
    """One profiled run of the skewed Fig. 6-style workload."""

    mode: str
    switches: int
    seeds: int
    wall_s: float
    attributed_s: float
    coverage: float          # attributed / wall (exact mode: >= 0.99)
    dispatches: int
    gini: float
    max_mean_skew: float
    shares_sum: float        # per-switch cost shares, must be 1.0 +- 0.01
    top_switches: List[Tuple[str, float, float]]  # (switch, ns, share)
    hot_seed: Optional[str]


def run_profile(num_switches: int = 6, base_seeds: int = 3,
                accuracy_ms: float = 10.0, duration_s: float = 2.0,
                mode: str = "exact", sample_every: int = 32,
                top_k: int = 5,
                flamegraph_path: Optional[str] = None,
                collapsed_path: Optional[str] = None,
                postmortem_path: Optional[str] = None) -> ProfilePoint:
    """Profile a deliberately *skewed* Fig. 6-style polling fleet.

    Switch ``i`` (1-based) hosts ``base_seeds * i`` seeds, each polling a
    port of its own, so the imbalance report has a known shape: cost
    shares should rise roughly linearly with the switch id and the top-k
    table must name the highest-id switches.  The optional paths write
    the flame-graph HTML,
    the collapsed-stack export, and a flight-recorder postmortem bundle
    (artifacts for CI).
    """
    from time import perf_counter

    from repro.obs import Observability
    from repro.obs.profiler import ProfilingBundle
    from repro.sim.engine import Simulator as _Sim

    sim = _Sim()
    obs = Observability(sim)
    want_recorder = postmortem_path is not None
    bundle = ProfilingBundle(
        sim, obs, mode=mode, sample_every=sample_every,
        flight_recorder=want_recorder,
        counter_interval_s=duration_s / 4 if want_recorder else None)
    bus = ControlBus(sim, registry=obs.registry, tracer=obs.tracer)
    seeds_total = 0
    for index in range(1, num_switches + 1):
        switch = Switch(sim, index)
        soil = Soil(sim, switch, driver_for(switch), bus)
        for s in range(base_seeds * index):
            # Distinct subjects share no poll (Fig. 8's regime), so cost
            # grows with the seed count; same-subject seeds would fuse
            # into one group firing of near-constant cost.
            _deploy_polling_seed(
                soil, f"sw{index}-hh{s}", interval_s=accuracy_ms / 1000.0,
                event_cpu_s=10e-6,
                source=_SCALING_SEED_SOURCE.replace(
                    "port ANY", f"port {s % switch.asic.num_ports}"))
            seeds_total += 1
    bundle.reanchor()
    start = perf_counter()
    sim.run(until=duration_s)
    wall_s = perf_counter() - start
    bundle.profiler.stop()

    model = bundle.cost_model()
    report = model.imbalance_report()
    if flamegraph_path is not None:
        from repro.obs.flamegraph import write_flamegraph
        write_flamegraph(
            flamegraph_path, model,
            subtitle=f"{seeds_total} seeds over {num_switches} switches "
                     f"(linear skew), {accuracy_ms:g} ms polls, "
                     f"{duration_s:g} sim-s, {mode} mode",
            report=report)
    if collapsed_path is not None:
        from repro.obs.flamegraph import write_collapsed
        write_collapsed(collapsed_path, model)
    if postmortem_path is not None:
        bundle.write_postmortem(postmortem_path, reason="profile-run")
    bundle.stop()

    top = [(str(sw), float(ns), share)
           for sw, ns, share in report.top(top_k)]
    hot_seeds = model.top_seeds(1)
    return ProfilePoint(
        mode=mode, switches=num_switches, seeds=seeds_total,
        wall_s=wall_s, attributed_s=model.total_ns / 1e9,
        coverage=model.coverage(wall_s), dispatches=model.dispatches,
        gini=report.gini, max_mean_skew=report.max_mean_skew,
        shares_sum=sum(report.shares.values()),
        top_switches=top,
        hot_seed=hot_seeds[0][0] if hot_seeds else None)
