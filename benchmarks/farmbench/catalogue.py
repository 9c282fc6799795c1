"""What farmbench measures: workload sizes, metric catalogue, predictions.

``/BENCHMARK.json`` is the driver-facing declaration and the single source
for workload names, the contract's end-to-end metrics and the per-layer
metric names with their units and directions.  The driver's format has no
room for three things a reader needs, so they live here:

* the size of each workload (seed-commit targets);
* the ten *named* end-to-end metrics of the issue, which apply to some
  workloads only (the driver wants every workload to emit every declared
  end-to-end metric, so BENCHMARK.json carries their common projection:
  ``setup_s``, ``work_per_s``, ``peak_rss_mb``; failures travel in the
  result's ``attempted``/``failed``);
* for each per-layer metric, which end-to-end metric it should move on
  which workload - written down before any optimisation is measured.

No ``repro`` import here: ``run.py`` and ``compare.py`` load this file in
the parent process, which never imports the program.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

# ---------------------------------------------------------------------------
# Workload sizes
# ---------------------------------------------------------------------------

SIZES: Dict[str, Dict[str, Any]] = {
    "fleet_poll": {
        "switches": 80, "seeds_per_switch": 50, "ports": 48,
        "interval_s": 0.01, "rounds": 40},
    "task_portfolio": {
        "fabric": [4, 16, 4], "ports": 48, "background_bps": 1e5,
        "timed_sim_s": 0.8, "onset_s": 0.15, "settle_s": 0.3, "probes": 8,
        "probe_interval_s": 0.05},
    "placement_fig7": {"seeds": 3000, "switches": 780, "tasks": 10},
    "placement_churn": {
        "seeds": 1000, "switches": 150, "tasks": 10, "capacity_scale": 2.0,
        "deltas": 100},
    "timer_storm": {
        "timers": 20000, "until_s": 0.6, "cancel_every": 4,
        "retry_delay_s": 0.5},
}
#: Every guard on, same fleet/tasks/traffic/seed as ``task_portfolio``.
SIZES["task_portfolio_guarded"] = dict(
    SIZES["task_portfolio"], bus_loss=0.05, heartbeat_s=0.025,
    checkpoint_s=0.2, scrape_s=0.05, rule_window_s=0.2, rule_for_s=0.1,
    cooldown_s=2.0, gray_loss=0.75, gray_window_s=[0.35, 0.7])

#: Reduced sizes for the self-test (``--smoke``): same code paths, seconds
#: of wall in total, never written to history.
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "fleet_poll": dict(SIZES["fleet_poll"], switches=6, seeds_per_switch=10,
                       ports=8, rounds=5),
    "task_portfolio": dict(SIZES["task_portfolio"], fabric=[2, 5, 1]),
    "task_portfolio_guarded": dict(SIZES["task_portfolio_guarded"],
                                   fabric=[2, 5, 1]),
    "placement_fig7": {"seeds": 120, "switches": 30, "tasks": 4},
    "placement_churn": dict(SIZES["placement_churn"], seeds=160,
                            switches=24, tasks=4, deltas=12),
    "timer_storm": dict(SIZES["timer_storm"], timers=400, until_s=0.25),
}

SIM_WORKLOADS = ("fleet_poll", "task_portfolio", "task_portfolio_guarded")
PORTFOLIOS = ("task_portfolio", "task_portfolio_guarded")
ALL = None  # a named metric that applies to every workload

EXACT = "exact"  # bound of a simulated metric: repeats bit for bit


@functools.lru_cache(maxsize=None)
def load_benchmark() -> Dict[str, Any]:
    """The parsed BENCHMARK.json (read once; treat as read-only)."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def fmt(value: float) -> str:
    """A metric value for a table: thousands grouped, else 4 digits."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}" if abs(value) >= 1 else f"{value:.4g}"


# ---------------------------------------------------------------------------
# The ten named end-to-end metrics
# ---------------------------------------------------------------------------

Record = Dict[str, Any]


class Named:
    """One named end-to-end metric: where it applies and how one
    repetition's record yields it."""

    def __init__(self, name: str, unit: str, better: str, bound: Any,
                 workloads: Optional[Tuple[str, ...]],
                 read: Callable[[Record], float], what: str) -> None:
        self.name, self.unit, self.better = name, unit, better
        self.bound, self.workloads = bound, workloads
        self.read, self.what = read, what

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


def named_metrics(bounds: Dict[str, float]) -> List[Named]:
    """The catalogue; timing bounds come from BENCHMARK.json so the two
    never disagree."""
    rate = bounds["work_per_s"]
    return [
        Named("setup_s", "s", "lower", bounds["setup_s"], ALL,
              lambda r: r["setup_s"],
              "host s (CPU seconds) from process start to ready-to-run "
              "(imports, world built, tasks submitted and settled, "
              "incumbent solved)"),
        Named("seed_events_per_s", "1/s", "higher", rate, SIM_WORKLOADS,
              lambda r: r["work_per_s"],
              "Almanac handler events (farm_soil_events_total delta) per "
              "host s (CPU seconds of the child) of the timed phase"),
        Named("kernel_events_per_s", "1/s", "higher", rate, ("timer_storm",),
              lambda r: r["work_per_s"],
              "dispatched kernel events per host s"),
        Named("solve_s", "s", "lower", rate, ("placement_fig7",),
              lambda r: r["timed_s"], "host s for the full solve"),
        Named("resolve_p50_ms", "ms", "lower", rate, ("placement_churn",),
              lambda r: r["values"]["resolve_p50_ms"],
              "host ms per delta (apply_delta + solve_incremental), median "
              "of the repetition's deltas"),
        Named("detect_latency_sim_ms", "ms", "lower", EXACT, PORTFOLIOS,
              lambda r: r["values"]["detect_latency_sim_ms"],
              "simulated ms from incident onset to the first matching "
              "Harvester.reports entry, median over injected incidents"),
        Named("monitoring_utility", "MU", "higher", EXACT,
              ("placement_fig7", "placement_churn", "task_portfolio"),
              lambda r: r["values"]["monitoring_utility"],
              "objective of the (final) placement"),
        Named("mu_retained", "frac", "higher", EXACT,
              ("task_portfolio_guarded",),
              lambda r: r["values"]["mu_retained"],
              "delivery-weighted MU at the end of the gray window over the "
              "pre-failure MU"),
        Named("peak_rss_mb", "MB", "lower", bounds["peak_rss_mb"], ALL,
              lambda r: r["peak_rss_mb"], "child ru_maxrss"),
        Named("failed_op_frac", "frac", "lower", EXACT, ALL,
              lambda r: len(r["failures"]) / r["attempted"],
              "failed over attempted operations and checks"),
    ]


# ---------------------------------------------------------------------------
# Predictions: which end-to-end metric each layer metric should move
# ---------------------------------------------------------------------------

_KERNEL = ("kernel_events_per_s@timer_storm; no move elsewhere "
           "(kernel <= 5% of wall)")
_GUARDED = "seed_events_per_s@task_portfolio_guarded"
_SETUP_PORTFOLIO = "setup_s@task_portfolio, setup_s@task_portfolio_guarded"
_CHURN = "resolve_p50_ms@placement_churn; no move on placement_fig7"

LAYER_MOVES: Dict[str, str] = {
    "sim.events_total": _KERNEL,
    "sim.cancelled_total": _KERNEL,
    "sim.compactions_total": _KERNEL,
    "sim.pending_peak": _KERNEL,
    "sim.plain_events_per_s": _KERNEL,
    "sim.cancel_heavy_events_per_s": _KERNEL,
    "sim.kernel_share_est": _KERNEL,
    "core.soil.self_s": "seed_events_per_s@fleet_poll (largest share); "
                        "<10% on task_portfolio",
    "core.soil.polls_total": "seed_events_per_s@fleet_poll",
    "core.soil.batched_polls_total": "seed_events_per_s@fleet_poll",
    "core.soil.poll_cache_hit_frac": "seed_events_per_s@fleet_poll",
    "core.soil.deploys_total": "setup_s@fleet_poll",
    "core.soil.deploy_busy_s": "setup_s@fleet_poll (most of it beyond "
                               "imports)",
    "core.soil.seed_crashes_total": "failed_op_frac@all",
    "switchsim.driver_calls_total": "seed_events_per_s@task_portfolio",
    "switchsim.read_counters_busy_s": "seed_events_per_s@fleet_poll and "
                                      "@task_portfolio",
    "switchsim.sample_packets_busy_s": "seed_events_per_s@task_portfolio; "
                                       "zero on fleet_poll",
    "switchsim.table_write_busy_s": "seed_events_per_s@task_portfolio",
    "switchsim.pcie_transfers_total": "seed_events_per_s@task_portfolio",
    "switchsim.pcie_bytes_total": "seed_events_per_s@task_portfolio",
    "switchsim.cpu_work_sim_s": "detect_latency_sim_ms@task_portfolio",
    "switchsim.tcam_rules_peak": "detect_latency_sim_ms@task_portfolio",
    "almanac.handler_calls_total": "seed_events_per_s@task_portfolio",
    "almanac.handler_busy_s": "seed_events_per_s@task_portfolio; ~0 on "
                              "fleet_poll",
    "almanac.vector_fires_total": "seed_events_per_s@fleet_poll",
    "almanac.vector_busy_s": "seed_events_per_s@fleet_poll",
    "almanac.vectorized_frac": "seed_events_per_s@fleet_poll",
    "almanac.compile_ms_per_task": _SETUP_PORTFOLIO,
    "core.seeder.submit_busy_s": _SETUP_PORTFOLIO,
    "core.seeder.optimizations_total": _SETUP_PORTFOLIO,
    "core.seeder.migrations_total": "mu_retained@task_portfolio_guarded",
    "core.seeder.lost_commands_total":
        "failed_op_frac@task_portfolio_guarded",
    "core.bus.messages_total": _GUARDED,
    "core.bus.bytes_total": _GUARDED,
    "core.bus.busy_s": _GUARDED,
    "core.bus.retransmissions_total": _GUARDED,
    "core.bus.dead_letters_total": "failed_op_frac@task_portfolio_guarded",
    "core.bus.chaos_dropped_total": _GUARDED,
    "core.bus.delivered_frac": _GUARDED,
    "core.ft.heartbeats_total": "mu_retained@task_portfolio_guarded",
    "core.ft.busy_s": _GUARDED,
    "core.ft.failovers_total": "mu_retained@task_portfolio_guarded",
    "placement.solves_total": "solve_s@placement_fig7",
    "placement.solve_busy_s": "solve_s@placement_fig7; "
                              "setup_s@placement_churn",
    "placement.placed_frac": "monitoring_utility@placement_fig7",
    "placement.apply_delta_p50_ms": _CHURN,
    "placement.resolve_p90_ms": _CHURN,
    "placement.incremental_used_frac": _CHURN,
    "placement.fallback_full_total": _CHURN,
    "placement.dirty_seeds_mean": _CHURN,
    "placement.validate_violations_total": "failed_op_frac@placement_*",
    "obs.scrapes_total": _GUARDED,
    "obs.scrape_busy_s": _GUARDED,
    "obs.tsdb_samples_total": _GUARDED,
    "obs.alerts_fired_total": "mu_retained@task_portfolio_guarded",
    "obs.trace_events_total": _GUARDED,
    "obs.trace_dropped_total": "failed_op_frac@task_portfolio_guarded",
    "obs.guard_overhead_frac": _GUARDED + "; zero on task_portfolio by "
                                          "construction",
    "obs.trace_overhead_frac": "none (cost of the traced repetition itself)",
    "remediation.decisions_total": "mu_retained@task_portfolio_guarded",
    "remediation.executed_total": "mu_retained@task_portfolio_guarded",
    "remediation.suppressed_total": "mu_retained@task_portfolio_guarded",
    "net.flows_attached_total": "setup_s@fleet_poll, setup_s@task_portfolio",
    "net.workload_start_busy_s": "setup_s@fleet_poll, "
                                 "setup_s@task_portfolio",
    "net.traffic_busy_s": "seed_events_per_s@task_portfolio",
}

#: Layers of the timed-phase share table, in display order.
SHARE_LAYERS = ("sim", "core.soil", "switchsim", "almanac", "core.bus",
                "core.seeder", "core.ft", "obs", "remediation", "net",
                "placement", "other")
