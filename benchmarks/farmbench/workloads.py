"""The six farmbench workloads: sizes, seeded inputs, phases and oracles.

Each workload turns ``--seed`` into its inputs (traffic rates, incident
identities, placement instance, delta sequence, timer phases), builds its
world through ``adapter`` (setup), runs one timed phase, and then checks
the outputs against expectations *computed from the inputs* - closed
forms and generator ground truth, not golden files.  Nothing in this file
imports ``repro``.

Sizes come from ``catalogue.SIZES`` (the seed-commit targets).  They are
smaller than a stand-alone study would choose because the driver contract
caps a whole benchmark campaign (136 runs) at 57 minutes; see README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from typing import Any, Dict, List, Optional, Tuple

import adapter
from catalogue import SIZES, SMOKE_SIZES
from tracing import TIMED, SpanRecorder

TIMER_INTERVALS_S = (0.01, 0.02, 0.1, 1.0)
DELTA_KINDS = ("shrink", "grow", "task-add", "poll-bump")
INCIDENT_KINDS = ("hh", "scan", "ddos", "syn", "surge")

#: Tab. I tasks of the portfolio with the arguments that make the seeded
#: incidents detectable (the ddos defaults need more volume than a probe
#: batch of 64 samples can carry).
PORTFOLIO_TASKS = (
    ("heavy_hitter", {"threshold": 10e6, "accuracy_ms": 10}),
    ("port_scan", {}),
    ("ddos", {"rate_threshold": 1e4, "source_threshold": 5}),
    ("entropy_estimation", {}),
    ("traffic_change", {}),
    ("tcp_syn_flood", {}),
)


class Trace:
    """What a traced repetition carries: the span recorder, the kernel
    entry-point counts and (after the timed phase) the exact profiler's
    wall seconds per cost-key component."""

    def __init__(self, workload: str, rep: int) -> None:
        self.recorder = SpanRecorder(workload, rep)
        self.kernel = adapter.install_tracing(self.recorder)
        self.components: Dict[str, float] = {}


class Checks:
    """Attempted and failed operations and output checks of one rep."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def count(self, attempted: int, failed: int, message: str) -> None:
        """``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.failures.append(f"{message}: {failed} of {attempted}")


def digest(items: Any) -> str:
    """sha256 over simulated statistics; floats by ``repr`` so that one
    differing ulp shows."""
    text = json.dumps(items, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One repetition of one workload.  Subclasses fill the phases."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, smoke: bool,
                 trace: Optional[Trace]) -> None:
        self.seed = seed
        self.size = (SMOKE_SIZES if smoke else SIZES)[self.name]
        self.trace = trace
        self.recorder = trace.recorder if trace else None
        self.rng = random.Random(f"{self.name}/{seed}")
        self.checks = Checks()
        self.work = 0
        #: Workload-specific named values (``detect_latency_sim_ms`` ...).
        self.values: Dict[str, float] = {}
        #: Per-layer values only this workload knows (traced reps).
        self.layer_values: Dict[str, float] = {}
        self.sim: Any = None
        self.registry: Any = None
        self.kernel_events_timed = 0
        self.flows = 0          # traffic flows attached (net layer)
        self.driver_calls = 0   # calls into switchsim drivers

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Optional[float]:
        """The timed phase.  May return the seconds to report instead of
        the phase's own (a phase that interleaves untimed checks)."""
        raise NotImplementedError

    def check(self) -> Any:
        """Run the output oracles; returns the digest items."""
        raise NotImplementedError

    def work_per_s(self, timed_s: float) -> float:
        return self.work / timed_s

    def _run_sim(self, until: float, events=None) -> None:
        """Advance the simulator through the timed phase, profiled when
        traced; ``events`` reads the work counter."""
        before_kernel = self.sim.events_processed
        before = events() if events else 0
        profiler = adapter.start_profiler(self.sim) if self.trace else None
        self.sim.run(until=until)
        if profiler is not None:
            self.trace.components = adapter.component_seconds(profiler)
        self.kernel_events_timed = self.sim.events_processed - before_kernel
        self.work = (events() - before) if events \
            else self.kernel_events_timed


# ---------------------------------------------------------------------------

class FleetPoll(Workload):
    name = "fleet_poll"
    work_unit = "handler events"

    def setup(self) -> None:
        size, rng = self.size, self.rng
        self.rates = [rng.uniform(5e4, 2e5) for _ in range(size["switches"])]
        self.samples = [(rng.randrange(size["switches"]),
                         rng.randrange(size["seeds_per_switch"]),
                         rng.randrange(size["ports"])) for _ in range(8)]
        # Half an interval past the last round: every round's handlers
        # have run, the next round has not fired.
        self.until = (size["rounds"] + 0.5) * size["interval_s"]
        self.fleet = adapter.PollFleet(self.rates, size["ports"],
                                       size["interval_s"], self.recorder)
        self.sim, self.registry = self.fleet.sim, self.fleet.registry
        self.fleet.deploy(size["seeds_per_switch"])

    def run(self) -> None:
        self._run_sim(self.until,
                      lambda: adapter.handler_events(self.registry))

    def check(self) -> Any:
        size, checks, rounds = self.size, self.checks, self.size["rounds"]
        expected = size["switches"] * size["seeds_per_switch"] * rounds
        checks.expect(self.work == expected,
                      f"handler events {self.work} != closed form {expected}")
        observed = []
        for switch, seed, port in self.samples:
            variables = self.fleet.seed_vars(switch, seed)
            polls, acc = variables["polls"], variables["acc"]
            checks.expect(
                polls == rounds and acc == rounds * (rounds + 1),
                f"seed d{switch}_{seed}: polls={polls} acc={acc}, want "
                f"{rounds} and {rounds * (rounds + 1)}")
            tx_bytes = self.fleet.port_tx_bytes(switch, port)
            want = self.rates[switch] * self.until
            checks.expect(math.isclose(tx_bytes, want, rel_tol=1e-9),
                          f"switch {switch} port {port}: {tx_bytes} tx "
                          f"bytes, want {want}")
            observed.append((switch, seed, port, polls, acc, tx_bytes))
        checks.count(size["switches"] * size["seeds_per_switch"],
                     adapter.seed_crashes(self.registry), "seed crashes")
        self.flows = self.fleet.flows
        self.driver_calls = self.fleet.driver_calls()
        return {"events": self.work, "kernel": self.sim.events_processed,
                "registry": adapter.registry_totals(self.registry),
                "cpu": self.fleet.cpu_load_percent(), "samples": observed}


# ---------------------------------------------------------------------------

class TaskPortfolio(Workload):
    name = "task_portfolio"
    work_unit = "handler events"
    guarded = False

    def _spec(self) -> Dict[str, Any]:
        size, rng = self.size, self.rng
        leaves = size["fabric"][1]
        spec = dict(size, tasks=PORTFOLIO_TASKS,
                    chaos_seed=rng.randrange(1 << 30))
        # Leaf i always gets incident kind i mod 5 (leaves past the last
        # full round stay quiet) with the same flow counts and rates: the
        # seed moves victims, heavy ports and the chaos draws, never how
        # much work an event costs, so timings of different seeds compare.
        rounds = leaves // len(INCIDENT_KINDS)
        self.incident_plan = []
        for index in range(rounds * len(INCIDENT_KINDS)):
            kind = INCIDENT_KINDS[index % len(INCIDENT_KINDS)]
            a, b = rng.randrange(250), 1 + index
            incident = {"kind": kind, "leaf_index": index,
                        "onset_s": size["onset_s"]}
            if kind == "hh":
                incident.update(ports=20, ratio=0.1, rate_bps=1e8,
                                traffic_seed=rng.randrange(1 << 30))
            elif kind == "scan":
                incident.update(width=64, ip=f"172.31.{a}.{b}")
            elif kind == "ddos":
                incident.update(sources=30, ip=f"10.200.{a}.{b}")
            elif kind == "syn":
                incident.update(rate_pps=20000, ip=f"10.201.{a}.{b}")
            else:
                incident.update(ports=size["ports"],
                                rate_bps=10 * size["background_bps"])
            self.incident_plan.append(incident)
        return spec

    def setup(self) -> None:
        self.farm = adapter.Portfolio(self._spec(), self.guarded,
                                      self.recorder)
        self.sim, self.registry = self.farm.sim, self.farm.registry
        for incident in self.incident_plan:
            incident["leaf"] = self.farm.leaves[incident["leaf_index"]]
        self.t0 = self.sim.now
        self.farm.schedule(self.t0, self.incident_plan)
        self.live_after_setup = self.farm.live_seed_count()
        self.placed_after_setup = set(self.farm.placed_tasks())

    def run(self) -> None:
        self._run_sim(self.t0 + self.size["timed_sim_s"],
                      lambda: adapter.handler_events(self.registry))

    def _first_report(self, incident: Dict[str, Any]) -> Optional[float]:
        """Sim time of the first report of ``incident`` by the harvester
        of the task responsible for it, naming the right victim."""
        onset = self.t0 + incident["onset_s"]
        kind = incident["kind"]
        wanted = (set(adapter.heavy_ports(incident)) if kind == "hh"
                  else incident.get("ip"))
        first = None
        for when, switch, value in self.farm.reports(
                adapter.INCIDENT_TASKS[kind]):
            if switch != incident["leaf"] or when < onset:
                continue
            if kind == "hh":
                hit = wanted & set(value)
                wanted -= hit
            elif kind == "surge":
                hit = isinstance(value, float)
            else:
                hit = value == wanted
            if hit and first is None:
                first = when
        if kind == "hh" and wanted:
            return None  # some heavy port was never reported
        return first

    def check(self) -> Any:
        checks, farm = self.checks, self.farm
        submitted = farm.submitted_seed_count()
        for task_id in farm.task_ids():
            checks.expect(task_id in self.placed_after_setup,
                          f"task {task_id} was not placed")
        checks.count(submitted, submitted - self.live_after_setup,
                     "seeds not live after settle")
        latencies = []
        for incident in self.incident_plan:
            first = self._first_report(incident)
            checks.expect(first is not None,
                          f"{incident['kind']} incident on leaf "
                          f"{incident['leaf']} was never reported")
            if first is not None:
                latencies.append(
                    (first - self.t0 - incident["onset_s"]) * 1e3)
        entropy_leaves = {switch for _t, switch, value
                          in farm.reports("entropy_estimation")
                          if isinstance(value, float)}
        checks.count(len(farm.leaves),
                     len(set(farm.leaves) - entropy_leaves),
                     "leaves with traffic but no entropy estimate")
        dead = adapter.dead_letters(self.registry)
        checks.expect(dead == 0, f"{dead} dead-lettered commands")
        crashes = adapter.seed_crashes(self.registry)
        checks.expect(crashes == 0, f"{crashes} seed crashes")
        self.values["detect_latency_sim_ms"] = \
            statistics.median(latencies) if latencies else 0.0
        self._check_guards()
        self.flows = farm.flows
        self.driver_calls = farm.driver_calls()
        self.layer_values["placement.placed_frac"] = \
            farm.live_seed_count() / submitted
        self.layer_values.update(farm.guard_counts())
        reports = {name: [(when, switch, repr(value)) for when, switch, value
                          in farm.reports(name)]
                   for name, _kwargs in PORTFOLIO_TASKS}
        return {"kernel": self.sim.events_processed,
                "registry": adapter.registry_totals(self.registry),
                "reports": reports, "cpu": farm.cpu_load_percent(),
                "placement": farm.placement_map(), "values": self.values}

    def _check_guards(self) -> None:
        self.values["monitoring_utility"] = self.farm.monitoring_utility()


class TaskPortfolioGuarded(TaskPortfolio):
    name = "task_portfolio_guarded"
    guarded = True

    def _check_guards(self) -> None:
        farm, checks = self.farm, self.checks
        counts = farm.guard_counts()
        checks.expect(counts["obs.alerts_fired_total"] >= 1,
                      "the gray failure never fired its alert")
        checks.expect(counts["obs.trace_dropped_total"] == 0,
                      f"{counts['obs.trace_dropped_total']} trace events "
                      f"dropped")
        checks.expect(adapter.remediations_executed(self.registry) >= 1,
                      "remediation never acted on the alert")
        self.values["mu_retained"] = farm.mu_retained()


# ---------------------------------------------------------------------------

class PlacementFig7(Workload):
    name = "placement_fig7"
    work_unit = "seeds considered"

    def setup(self) -> None:
        size = self.size
        self.problem = adapter.generate_instance(
            size["seeds"], size["switches"], size["tasks"], self.seed)

    def run(self) -> None:
        self.solution = adapter.solve_full(self.problem)
        self.work = self.size["seeds"]

    def check(self) -> Any:
        found = adapter.violations(self.problem, self.solution)
        self.checks.count(self.size["seeds"], len(found),
                          f"validate_solution violations ({found[:2]})")
        summary = adapter.solution_summary(self.problem, self.solution)
        self.values["monitoring_utility"] = summary["objective"]
        self.layer_values.update({
            "placement.placed_frac": summary["placed"] / summary["seeds"],
            "placement.validate_violations_total": len(found),
            "placement.solves_total": 1})
        return summary


class PlacementChurn(Workload):
    name = "placement_churn"
    work_unit = "deltas"

    def setup(self) -> None:
        size = self.size
        self.problem = adapter.generate_instance(
            size["seeds"], size["switches"], size["tasks"], self.seed,
            capacity_scale=size["capacity_scale"])
        self.solution = adapter.solve_full(self.problem)
        self.initial = adapter.solution_summary(self.problem, self.solution)

    def _target(self) -> int:
        """A switch from the middle third by resident count: busy enough
        that the delta touches real seeds, slack enough that it usually
        stays local (the choice ``run_churn_benchmark`` makes)."""
        residents = adapter.residents_by_switch(self.problem, self.solution)
        ranked = sorted(residents, key=lambda n: (len(residents[n]), n))
        third = max(1, len(ranked) // 3)
        return self.rng.choice(ranked[third:2 * third] or ranked)

    def run(self) -> float:
        self.resolve_s: List[float] = []
        self.apply_s: List[float] = []
        self.infos: List[Dict[str, Any]] = []
        self.violation_count = 0
        for index in range(self.size["deltas"]):
            delta = adapter.churn_delta(
                self.problem, self.solution,
                DELTA_KINDS[index % len(DELTA_KINDS)], self._target(), index)
            self.problem, self.solution, apply_s, solve_s = \
                adapter.apply_and_resolve(self.problem, self.solution, delta)
            self.apply_s.append(apply_s)
            self.resolve_s.append(apply_s + solve_s)
            self.infos.append(adapter.resolve_info(self.solution))
            # validate_solution costs as much as the re-solve: untimed.
            found = adapter.violations(self.problem, self.solution)
            self.violation_count += len(found)
            if found:
                self.checks.failures.append(
                    f"delta {index}: {found[:2]}")
        self.work = self.size["deltas"]
        return sum(self.resolve_s)

    def work_per_s(self, timed_s: float) -> float:
        # Deltas per host second *at the median delta*: one full-solve
        # fallback costs as much as ~100 incremental deltas, so the mean
        # measures how many fallbacks a seed happens to draw.
        return 1.0 / statistics.median(self.resolve_s)

    def check(self) -> Any:
        self.checks.attempted += self.size["deltas"]
        summary = adapter.solution_summary(self.problem, self.solution)
        incremental = sum(info["incremental"] for info in self.infos)
        fallbacks = sum(info["fallback"] is not None for info in self.infos)
        ordered = sorted(self.resolve_s)
        self.values["resolve_p50_ms"] = \
            statistics.median(self.resolve_s) * 1e3
        self.values["monitoring_utility"] = summary["objective"]
        self.layer_values.update({
            "placement.placed_frac": summary["placed"] / summary["seeds"],
            "placement.validate_violations_total": self.violation_count,
            "placement.solves_total": 1 + len(self.infos),
            "placement.apply_delta_p50_ms":
                statistics.median(self.apply_s) * 1e3,
            "placement.resolve_p90_ms":
                ordered[int(0.9 * (len(ordered) - 1))] * 1e3,
            "placement.incremental_used_frac": incremental / len(self.infos),
            "placement.fallback_full_total": fallbacks,
            "placement.dirty_seeds_mean":
                statistics.mean(info["dirty_seeds"] for info in self.infos)})
        return {"initial": self.initial, "final": summary,
                "infos": self.infos}


# ---------------------------------------------------------------------------

class TimerStorm(Workload):
    name = "timer_storm"
    work_unit = "kernel events"

    def setup(self) -> None:
        size, rng = self.size, self.rng
        self.timers = []
        for _ in range(size["timers"]):
            # Seeded mix and phases: the tick count, not only the order,
            # depends on the seed.
            interval = rng.choice(TIMER_INTERVALS_S)
            self.timers.append((interval, interval * (1.0 + rng.random())))
        self.storm = adapter.TimerStorm(self.timers, size["cancel_every"],
                                        size["retry_delay_s"])
        self.sim = self.storm.sim

    def run(self) -> None:
        self._run_sim(self.size["until_s"])

    def check(self) -> Any:
        until, expected = self.size["until_s"], 0
        for interval, first in self.timers:
            # The kernel's own arithmetic: first firing at 0.0 + first,
            # each next one at now + interval.
            when = 0.0 + first
            while when <= until:
                expected += 1
                when = when + interval
        storm, checks = self.storm, self.checks
        checks.expect(storm.ticks == expected,
                      f"{storm.ticks} ticks, closed form {expected}")
        checks.expect(storm.cancels == expected // self.size["cancel_every"],
                      f"{storm.cancels} retry cancels, want "
                      f"{expected // self.size['cancel_every']}")
        checks.expect(self.work == expected,
                      f"{self.work} dispatched events, want {expected}")
        return {"ticks": storm.ticks, "cancels": storm.cancels,
                "kernel": self.sim.events_processed,
                "pending": self.sim.pending()}


WORKLOADS = {cls.name: cls for cls in (
    FleetPoll, TaskPortfolio, TaskPortfolioGuarded, PlacementFig7,
    PlacementChurn, TimerStorm)}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced repetition
# ---------------------------------------------------------------------------

SWITCHSIM_SPANS = ("switchsim.read_counters", "switchsim.sample_packets",
                   "switchsim.table_write")
ALMANAC_SPANS = ("almanac.handler", "almanac.vector")
SEEDER_SPANS = ("core.seeder.submit", "core.seeder.reoptimize")
PLACEMENT_SPANS = ("placement.solve", "placement.apply_delta",
                   "placement.solve_incremental")


def layer_metrics(workload: Workload
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(per-layer metrics, timed-phase seconds per layer) of a traced rep.

    Busy seconds come from the spans (self time = span - children), wall
    per component from the exact profiler, counts from the registry at the
    same boundaries.  The share table attributes every profiled second of
    the timed phase to exactly one layer.
    """
    trace = workload.trace
    whole = trace.recorder.totals()
    timed = trace.recorder.totals(TIMED)
    comp = trace.components

    def field(table, names, key):
        return sum(table[n][key] for n in names if n in table)

    soil_self = (comp.get("soil", 0.0)
                 - field(timed, SWITCHSIM_SPANS + ALMANAC_SPANS, "top_s"))
    bus_busy = (comp.get("bus", 0.0) + comp.get("reliable", 0.0)
                - field(timed, ("core.soil.deploy",), "top_s"))
    layers: Dict[str, float] = {}
    if workload.registry is not None:
        layers.update(adapter.layer_counts(workload.registry))
    # Solves the seeder ran (registry) plus the benchmark's own (spans).
    layers["placement.solve_busy_s"] = (
        layers.get("placement.solve_busy_s", 0.0)
        + field(whole, PLACEMENT_SPANS, "self_s"))
    if workload.sim is not None:
        layers.update({
            "sim.events_total": workload.sim.events_processed,
            "sim.cancelled_total": trace.kernel.cancelled,
            "sim.compactions_total": workload.sim.compactions,
            "sim.pending_peak": trace.kernel.pending_peak})
    layers.update({
        "core.soil.self_s": soil_self,
        "core.soil.deploy_busy_s": field(whole, ("core.soil.deploy",),
                                         "total_s"),
        "switchsim.driver_calls_total": workload.driver_calls,
        "switchsim.read_counters_busy_s":
            field(whole, ("switchsim.read_counters",), "self_s"),
        "switchsim.sample_packets_busy_s":
            field(whole, ("switchsim.sample_packets",), "self_s"),
        "switchsim.table_write_busy_s":
            field(whole, ("switchsim.table_write",), "self_s"),
        "almanac.handler_calls_total":
            field(whole, ("almanac.handler",), "count"),
        "almanac.handler_busy_s": field(whole, ("almanac.handler",),
                                        "self_s"),
        "almanac.vector_fires_total": field(whole, ("almanac.vector",),
                                            "count"),
        "almanac.vector_busy_s": field(whole, ("almanac.vector",), "self_s"),
        "core.seeder.submit_busy_s": field(whole, ("core.seeder.submit",),
                                           "total_s"),
        "core.bus.busy_s": bus_busy,
        "core.ft.busy_s": comp.get("ft", 0.0),
        "obs.scrape_busy_s": field(whole, ("obs.scrape",), "self_s"),
        "net.flows_attached_total": workload.flows,
        "net.workload_start_busy_s": field(whole, ("net.workload_start",),
                                           "total_s"),
        "net.traffic_busy_s": comp.get("traffic", 0.0),
    })
    layers.update(workload.layer_values)

    shares = {
        "core.soil": soil_self + field(timed, ("core.soil.deploy",),
                                       "self_s"),
        "switchsim": field(timed, SWITCHSIM_SPANS, "self_s"),
        "almanac": field(timed, ALMANAC_SPANS, "self_s"),
        "core.bus": bus_busy,
        "core.seeder": comp.get("seeder", 0.0)
                       + field(timed, SEEDER_SPANS, "self_s"),
        "core.ft": comp.get("ft", 0.0),
        "obs": comp.get("scarecrow", 0.0)
               - field(timed, ("obs.scrape",), "top_s")
               + field(timed, ("obs.scrape",), "self_s"),
        "remediation": field(timed, ("remediation.act",), "self_s"),
        "net": comp.get("traffic", 0.0),
        "placement": field(timed, PLACEMENT_SPANS, "self_s"),
        # Events scheduled without a cost key.  On timer_storm that is
        # the whole run: the kernel dispatching trivial callbacks.
        "sim" if workload.name == "timer_storm" else "other":
            comp.get("kernel", 0.0),
    }
    return layers, shares

