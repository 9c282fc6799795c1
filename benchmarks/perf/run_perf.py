#!/usr/bin/env python
"""CI gate harness: relative gates no test can express as a pass/fail.

Throughput history lives in ``benchmarks/farmbench``; this script exits
non-zero when a gate below fails and writes every measurement to
``BENCH_perf.json`` (see ``--out``):

* ``dispatch_100k`` — fused poll groups vs groups of one
                   (``Soil(batching=False)``) at fleet scale: identical
                   outputs, the fused/vector counters engaged, and at
                   least 2x.
* ``fig6``       — wall-clock of the Fig. 6 seed-scaling experiment
                   (recorded, not gated).
* ``churn``      — warm-started incremental re-placement vs a full
                   re-solve on single-switch deltas (shrink / grow /
                   poll-bump / task-add), gated at ``CHURN_MIN_SPEEDUP``
                   and ``CHURN_MIN_UTILITY_RATIO``.
* ``observability`` — the cost of the instrumentation hooks when tracing
                   is *disabled* (the production default), measured on the
                   compiled dispatch path and gated at
                   ``OBS_OVERHEAD_BOUND``; plus a short fully-traced
                   scenario whose Chrome trace and Prometheus dump become
                   CI artifacts (``--artifacts DIR``).
* ``scarecrow``  — wall-clock of the Fig. 6 ML workload with the
                   Scarecrow TSDB scraper running at a 1 s interval vs
                   not at all, gated at ``SCARECROW_OVERHEAD_BOUND``.
* ``remediation`` — the closed-loop gates: a scripted gray failure must
                   retain at least as much monitoring utility with the
                   remediation engine acting as with detection only, and
                   an attached-but-idle engine must cost no more than
                   ``REMEDIATION_OVERHEAD_BOUND`` wall-clock.
* ``profiler``   — the Surveyor gates: a stopped profiler must cost no
                   more than ``PROFILER_DISABLED_BOUND``, 1-in-32
                   sampling no more than ``PROFILER_SAMPLING_BOUND``,
                   exact-mode attribution must cover the measured wall
                   within 1% (``PROFILER_COVERAGE_MIN``), and the skewed
                   profile run's imbalance shares must sum to 1.0; with
                   ``--artifacts DIR`` the flame-graph HTML, collapsed
                   stacks, and postmortem bundle become CI artifacts.

Run:  PYTHONPATH=src python benchmarks/perf/run_perf.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.almanac import MachineInstance, flatten_machine
from repro.almanac.parser import parse
from repro.eval.experiments import run_fig6_seed_scaling
from repro.sim.engine import Simulator

# Representative seed workload: arithmetic, a user function, list window
# maintenance, conditionals, and an occasional report — roughly what the
# HH / DDoS tasks do per poll event.
BENCH_SOURCE = """
function long weigh(long v) {
  return v * 3 + bias + v / 4;
}

machine Bench {
  place all;
  external long bias;
  time tick = 1000;
  long total;
  long count;
  list window;

  state run {
    when (tick as v) do {
      count = count + 1;
      total = total + weigh(v);
      append(window, v);
      if (size(window) > 16) then {
        remove_at(window, 0);
      }
      // Scan the window like getHH() scans port stats.
      int i = 0;
      long peak = 0;
      while (i < size(window)) {
        long w = get(window, i);
        if (w > peak and w > 2) then { peak = w; }
        i = i + 1;
      }
      if (count - count / 64 * 64 == 0) then {
        send Report { .n = count, .sum = total, .peak = peak } to harvester;
      }
    }
  }
}
"""


# Fleet-scale dispatch workload: an affine counter seed, eligible for the
# soil's fused poll groups and the vector-kernel dispatcher.
DISPATCH_100K_SOURCE = """
machine Dispatch {
  place all;
  poll pollStats = Poll { .ival = 0.01, .what = port ANY };
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


def bench_dispatch_100k(quick: bool) -> dict:
    """Soil dispatch throughput at fleet scale, batched vs scalar.

    Deploys ``seeds_per_switch`` identical seeds on each of
    ``num_switches`` switches (100k seeds / 1k switches at full size) and
    runs five 10 ms poll rounds under both the fused/vectorized data path
    (the default) and the groups-of-one reference grouping
    (``Soil(batching=False)``).  Records total handler events per second
    per arm, the fused-group and vector-kernel engagement counters, and a
    cross-arm digest of final seed states (CI gates on the digest match
    and on the batched path actually engaging).
    """
    from repro.almanac.xmlcodec import encode_program
    from repro.core.comm import ControlBus
    from repro.core.soil import Soil
    from repro.switchsim.chassis import Switch
    from repro.switchsim.stratum import driver_for

    num_switches = 100 if quick else 1000
    seeds_per_switch = 20 if quick else 100
    duration = 0.05  # five poll rounds

    program = parse(DISPATCH_100K_SOURCE)
    xml = encode_program(program)
    allocation = {"vCPU": 0.1, "RAM": 64, "TCAM": 8, "PCIe": 100}

    def run_arm(scalar):
        sim = Simulator()
        bus = ControlBus(sim)
        soils = []
        for s in range(num_switches):
            switch = Switch(sim, s)
            soils.append(Soil(sim, switch, driver_for(switch), bus,
                              batching=not scalar))
        for s, soil in enumerate(soils):
            for i in range(seeds_per_switch):
                soil.deploy(seed_id=f"d{s}_{i}", task_id="bench",
                            program_xml=xml, machine_name="Dispatch",
                            allocation=allocation)
        start = time.perf_counter()
        sim.run(until=duration)
        wall = time.perf_counter() - start
        events = sum(int(s._m_events.value) for s in soils)
        batched = sum(int(s._m_batched_polls.value) for s in soils)
        vectorized = sum(int(s._m_vector_events.value) for s in soils)
        digest = []
        for s in (0, num_switches // 2, num_switches - 1):
            for i in (0, seeds_per_switch - 1):
                mvars = (soils[s].deployments[f"d{s}_{i}"]
                         .instance.snapshot()["machine_vars"])
                digest.append((s, i, mvars["polls"], mvars["acc"]))
        return wall, events, batched, vectorized, digest

    b_wall, b_events, b_batched, b_vector, b_digest = run_arm(scalar=False)
    s_wall, s_events, _s_batched, _s_vector, s_digest = run_arm(scalar=True)
    return {
        "num_switches": num_switches,
        "seeds_per_switch": seeds_per_switch,
        "total_seeds": num_switches * seeds_per_switch,
        "duration_s": duration,
        "batched_wall_s": b_wall,
        "scalar_wall_s": s_wall,
        "batched_events_per_sec": b_events / b_wall,
        "scalar_events_per_sec": s_events / s_wall,
        "speedup": (b_events / b_wall) / (s_events / s_wall),
        "events_per_arm": b_events,
        "events_identical": b_events == s_events,
        "batched_polls_total": b_batched,
        "vectorized_events_total": b_vector,
        "outputs_identical": b_digest == s_digest,
    }


class NullHost:
    """Cheapest possible host: the benchmark must measure the seed
    runtime, not host-side bookkeeping."""

    def now(self):
        return 0.0

    def resources(self):
        return {"vCPU": 1.0, "RAM": 256.0, "TCAM": 8.0, "PCIe": 1000.0}

    def add_tcam_rule(self, rule):
        pass

    def remove_tcam_rule(self, pattern):
        pass

    def get_tcam_rule(self, pattern):
        return None

    def send_to_harvester(self, value):
        pass

    def send_to_machine(self, machine, dst, value):
        pass

    def set_trigger_interval(self, var, interval):
        pass

    def transit_hook(self, old, new):
        pass

    def exec_external(self, command, arg):
        return 0.0

    def log(self, message):
        pass


def _bench_instance(tracer=None):
    program = parse(BENCH_SOURCE)
    compiled = flatten_machine(program, "Bench")
    instance = MachineInstance(compiled, NullHost(), externals={"bias": 2},
                               tracer=tracer)
    instance.start()
    return instance


def bench_fig6(quick: bool) -> dict:
    # task="ml" runs a per-poll while loop inside the machine, so the
    # Almanac runtime dominates the wall-clock; task="hh" seeds have an
    # empty handler body.
    seed_counts = (10, 20) if quick else (10, 20, 40)
    duration = 0.5 if quick else 2.0
    iterations = 10 if quick else 20
    start = time.perf_counter()
    run_fig6_seed_scaling(task="ml", seed_counts=seed_counts,
                          iterations=iterations, duration_s=duration)
    return {
        "task": "ml",
        "seed_counts": list(seed_counts),
        "iterations": iterations,
        "duration_s": duration,
        "wall_s": time.perf_counter() - start,
    }


#: Minimum incremental-vs-full speedup on single-switch churn deltas
#: (the targeted-remediation path's reason to exist).
CHURN_MIN_SPEEDUP = 10.0

#: Minimum incremental utility as a fraction of the from-scratch solve.
CHURN_MIN_UTILITY_RATIO = 0.99


def bench_churn(quick: bool) -> dict:
    """Warm-started incremental re-placement vs full re-solve under churn.

    Always runs at full size (2000 seeds / 300 switches): the 10x gate
    measures how the dirty set scales against the fleet, which a shrunken
    instance cannot show — at 60 switches one dirty switch is already 2%
    of the problem.
    """
    from repro.eval.experiments import run_churn_benchmark

    del quick
    points = run_churn_benchmark(num_seeds=2000, num_switches=300, seed=7)
    scenarios = {
        p.scenario: {
            "full_s": p.full_s,
            "incremental_s": p.incremental_s,
            "speedup": p.speedup,
            "utility_full": p.utility_full,
            "utility_incremental": p.utility_incremental,
            "utility_ratio": p.utility_ratio,
            "dirty_seeds": p.dirty_seeds,
            "dirty_switches": p.dirty_switches,
            "incremental_used": p.incremental_used,
            "feasible": p.feasible,
        } for p in points}
    min_speedup = min(p.speedup for p in points)
    min_ratio = min(p.utility_ratio for p in points)
    return {
        "num_seeds": 2000,
        "num_switches": 300,
        "scenarios": scenarios,
        "min_speedup": min_speedup,
        "min_utility_ratio": min_ratio,
        "speedup_bound": CHURN_MIN_SPEEDUP,
        "utility_ratio_bound": CHURN_MIN_UTILITY_RATIO,
        "speedup_ok": min_speedup >= CHURN_MIN_SPEEDUP,
        "utility_ok": min_ratio >= CHURN_MIN_UTILITY_RATIO,
        "all_incremental": all(p.incremental_used for p in points),
        "all_feasible": all(p.feasible for p in points),
    }


#: Maximum tolerated slowdown of seed dispatch from having a
#: (disabled) tracer attached — the "near-zero-cost when off" claim.
OBS_OVERHEAD_BOUND = 0.03


def _paired_overhead(base_arm, test_arm, bound,
                     rounds: int = 5, attempts: int = 3):
    """Wall-clock overhead of ``test_arm`` relative to ``base_arm``.

    Each round times both arms back-to-back, alternating which goes
    first so warm-up favours neither; one measurement set is the median
    of the per-round wall ratios — robust to the box-speed drift that
    makes independently-taken minima flap by several percent.  A set
    that still lands above ``bound`` is re-measured (up to ``attempts``
    sets, keeping the smallest estimate): a genuine regression fails
    every set, while a co-tenant load burst fails only the set it
    happened to hit.

    Returns ``(overhead, best_walls)`` where ``best_walls`` holds the
    fastest observed wall per arm under keys ``"base"`` and ``"test"``.
    """
    arms = {"base": base_arm, "test": test_arm}
    best = {"base": float("inf"), "test": float("inf")}
    estimate = float("inf")
    for _ in range(attempts):
        ratios = []
        for round_no in range(rounds):
            order = (("base", "test") if round_no % 2 == 0
                     else ("test", "base"))
            walls = {}
            for name in order:
                start = time.perf_counter()
                arms[name]()
                walls[name] = time.perf_counter() - start
                best[name] = min(best[name], walls[name])
            ratios.append(walls["test"] / walls["base"])
        estimate = min(estimate,
                       max(0.0, statistics.median(ratios) - 1.0))
        if estimate <= bound:
            break
    return estimate, best

#: Maximum tolerated wall-clock slowdown of the Fig. 6 ML workload from
#: running the Scarecrow scraper at a 1 s sim-time interval.
SCARECROW_OVERHEAD_BOUND = 0.05


def bench_scarecrow(quick: bool) -> dict:
    """Wall-clock cost of 1 s-interval TSDB scraping on the Fig. 6 ML
    workload, scraping enabled vs disabled (see ``_paired_overhead``
    for how the gate resists runner noise).

    The gate ignores ``quick``: a sub-second arm cannot resolve a 5%
    bound on a noisy runner, so the overhead contract is always
    measured at full size.
    """
    del quick
    seed_counts = (10, 20, 40)
    duration = 5.0
    iterations = 10

    def arm(interval):
        def run():
            run_fig6_seed_scaling(task="ml", seed_counts=seed_counts,
                                  iterations=iterations,
                                  duration_s=duration,
                                  scrape_interval_s=interval)
        return run

    overhead, walls = _paired_overhead(arm(None), arm(1.0),
                                       SCARECROW_OVERHEAD_BOUND)
    return {
        "task": "ml",
        "seed_counts": list(seed_counts),
        "duration_s": duration,
        "scrape_interval_s": 1.0,
        "disabled_wall_s": walls["base"],
        "enabled_wall_s": walls["test"],
        "overhead_fraction": overhead,
        "overhead_bound": SCARECROW_OVERHEAD_BOUND,
        "overhead_ok": overhead <= SCARECROW_OVERHEAD_BOUND,
    }


#: Maximum tolerated wall-clock slowdown from an attached remediation
#: engine that never has to act (healthy fabric, alerts all quiet).
REMEDIATION_OVERHEAD_BOUND = 0.03


def bench_remediation(quick: bool) -> dict:
    """Closed-loop gates on the scripted gray-failure scenario.

    MU gate: the engine acting (drain + restore) must retain at least as
    much delivery-weighted monitoring utility as detection only.
    Overhead gate: the same scenario with the gray failure disarmed
    (loss 0, so no alert ever fires) must cost no more with the engine
    attached than without (see ``_paired_overhead`` for how the gate
    resists runner noise).
    """
    from repro.eval.experiments import run_remediation_mode

    if quick:
        scenario = dict(duration_s=40.0, loss_start_s=8.0,
                        loss_end_s=28.0)
    else:
        scenario = dict(duration_s=80.0, loss_start_s=10.0,
                        loss_end_s=50.0)
    off = run_remediation_mode("off", **scenario)
    active = run_remediation_mode("active", **scenario)

    # Idle-engine overhead on a longer healthy run (same length in
    # quick mode — a sub-second arm swings 10%+ on a busy box, which
    # dwarfs the 3% bound).
    idle = dict(duration_s=720.0,
                loss_start_s=10.0, loss_end_s=50.0, gray_loss=0.0)
    overhead, walls = _paired_overhead(
        lambda: run_remediation_mode("off", **idle),
        lambda: run_remediation_mode("active", **idle),
        REMEDIATION_OVERHEAD_BOUND)
    return {
        "scenario": scenario,
        "victim": active.victim,
        "mu_retained_off": off.mu_retained,
        "mu_retained_active": active.mu_retained,
        "mu_gain": active.mu_retained - off.mu_retained,
        "actions": [(r.action, r.switch, r.outcome)
                    for r in active.records if r.decision == "executed"],
        "mu_ok": active.mu_retained >= off.mu_retained,
        "idle_wall_without_engine_s": walls["base"],
        "idle_wall_with_engine_s": walls["test"],
        "overhead_fraction": overhead,
        "overhead_bound": REMEDIATION_OVERHEAD_BOUND,
        "overhead_ok": overhead <= REMEDIATION_OVERHEAD_BOUND,
    }


def bench_observability(events: int, artifact_dir=None) -> dict:
    """Disabled-instrumentation overhead + a short fully-traced scenario.

    The overhead gate always fires at least 100k events per arm — the 3%
    bound is the contract, and shorter arms cannot resolve it against
    runner noise — so ``--quick`` does not shrink this measurement.
    """
    from repro.core.deployment import FarmDeployment
    from repro.net.topology import spine_leaf
    from repro.obs.exporters import write_chrome_trace, write_prometheus
    from repro.obs.trace import Tracer
    from repro.tasks.heavy_hitter import make_task as make_hh_task

    events = max(events, 100_000)

    def arm(instance):
        fire = instance.fire_trigger_var

        def run():
            for i in range(events):
                fire("tick", i)
        return run

    plain = _bench_instance()
    traced = _bench_instance(tracer=Tracer(enabled=False))
    for instance in (plain, traced):
        fire = instance.fire_trigger_var
        for i in range(min(1000, events)):
            fire("tick", i)
    overhead, obs_walls = _paired_overhead(arm(plain), arm(traced),
                                           OBS_OVERHEAD_BOUND)
    baseline = events / obs_walls["base"]
    instrumented = events / obs_walls["test"]

    # Short instrumented Fig. 6-style scenario: HH seeds under chaos with
    # full tracing on; the exports double as CI artifacts.
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1), trace=True)
    farm.enable_chaos(seed=3).lossy(0.05)
    farm.submit(make_hh_task(threshold=10e6, accuracy_ms=10))
    start = time.perf_counter()
    farm.run(until=0.5)
    scenario_wall = time.perf_counter() - start
    scenario = {
        "wall_s": scenario_wall,
        "trace_events": len(farm.obs.tracer),
        "dropped_events": farm.obs.tracer.dropped,
        "bus_messages": farm.bus.total_messages,
    }
    if artifact_dir is not None:
        artifact_dir = Path(artifact_dir)
        artifact_dir.mkdir(parents=True, exist_ok=True)
        trace_path = artifact_dir / "farm_trace.json"
        metrics_path = artifact_dir / "farm_metrics.prom"
        # write_chrome_trace validates against the trace_event schema
        # before writing: a malformed trace fails the run, not the viewer.
        write_chrome_trace(farm.obs.tracer, str(trace_path),
                           registry=farm.obs.registry)
        write_prometheus(farm.obs.registry, str(metrics_path),
                         tracer=farm.obs.tracer)
        scenario["artifacts"] = [str(trace_path), str(metrics_path)]

    return {
        "events": events,
        "baseline_events_per_sec": baseline,
        "disabled_instrumentation_events_per_sec": instrumented,
        "overhead_fraction": overhead,
        "overhead_bound": OBS_OVERHEAD_BOUND,
        "overhead_ok": overhead <= OBS_OVERHEAD_BOUND,
        "scenario": scenario,
    }


#: Maximum tolerated kernel slowdown from the profiler machinery when no
#: profiler is installed (a stopped profiler must leave no residue).
PROFILER_DISABLED_BOUND = 0.03

#: Maximum tolerated kernel slowdown with 1-in-32 sampling attribution.
PROFILER_SAMPLING_BOUND = 0.10

#: Exact-mode attribution must explain at least this fraction of the
#: measured wall-clock (and never more than 1 + (1 - this)).
PROFILER_COVERAGE_MIN = 0.99


def bench_profiler(events: int, artifact_dir=None) -> dict:
    """Surveyor gates: disabled overhead, sampling overhead, coverage.

    The disabled gate runs on the classic self-rescheduling tick loop
    with cost keys attached — near-empty callbacks are the most
    adversarial per-event budget there is — comparing a never-profiled
    run against one where a profiler was attached then *stopped* before
    the run (stopping must restore the fast path bit-for-bit).  Exact
    mode is gated on coverage instead of overhead, on the same loop:
    the inter-dispatch delta attribution must sum to the measured
    wall-clock within 1%.

    The sampling gate runs on the representative skewed polling fleet
    (``run_profile``, the workload sampling exists for) with no profiler
    vs 1-in-32 sampling — same spirit as ``bench_scarecrow``, which also
    measures against the realistic workload rather than the degenerate
    one.  That run doubles as the imbalance-report gate and, with
    ``--artifacts``, produces the flame-graph HTML / collapsed stacks /
    postmortem bundle artifacts.
    """
    from repro.eval.experiments import run_profile
    from repro.obs.profiler import Profiler

    events = max(events, 100_000)
    keys = [("soil", s, f"seed{s}", "tick") for s in range(8)]

    def build():
        sim = Simulator()
        counter = {"n": 0}

        def tick():
            n = counter["n"] = counter["n"] + 1
            if n < events:
                sim.schedule_at(sim.now + 0.001, tick,
                                cost_key=keys[n & 7])

        sim.schedule_at(0.0, tick, cost_key=keys[0])
        return sim

    def arm_plain():
        build().run()

    def arm_stopped():
        sim = build()
        Profiler(sim, mode="exact").start().stop()
        sim.run()

    # Multi-second fleet arms: a sub-second arm cannot resolve a 10%
    # bound against runner noise (same sizing rationale as the other
    # overhead gates, so --quick does not shrink it).
    fleet = dict(base_seeds=6, duration_s=8.0)

    disabled_overhead, _ = _paired_overhead(
        arm_plain, arm_stopped, PROFILER_DISABLED_BOUND)
    sampling_overhead, _ = _paired_overhead(
        lambda: run_profile(mode="off", **fleet),
        lambda: run_profile(mode="sampling", **fleet),
        PROFILER_SAMPLING_BOUND)

    # Exact-mode attribution coverage (retried: a GC pause between the
    # last dispatch and the perf_counter read shrinks it spuriously).
    coverage = 0.0
    exact_wall = 0.0
    for _ in range(3):
        sim = build()
        profiler = Profiler(sim, mode="exact").start()
        start = time.perf_counter()
        sim.run()
        exact_wall = time.perf_counter() - start
        profiler.stop()
        coverage = profiler.cost_model().coverage(exact_wall)
        if coverage >= PROFILER_COVERAGE_MIN:
            break

    flame_path = collapsed_path = postmortem_path = None
    if artifact_dir is not None:
        artifact_dir = Path(artifact_dir)
        artifact_dir.mkdir(parents=True, exist_ok=True)
        flame_path = str(artifact_dir / "profile.html")
        collapsed_path = str(artifact_dir / "profile.collapsed")
        postmortem_path = str(artifact_dir / "postmortem.json")
    point = run_profile(flamegraph_path=flame_path,
                        collapsed_path=collapsed_path,
                        postmortem_path=postmortem_path)

    return {
        "events": events,
        "disabled_overhead_fraction": disabled_overhead,
        "disabled_overhead_bound": PROFILER_DISABLED_BOUND,
        "disabled_ok": disabled_overhead <= PROFILER_DISABLED_BOUND,
        "sampling_overhead_fraction": sampling_overhead,
        "sampling_overhead_bound": PROFILER_SAMPLING_BOUND,
        "sampling_ok": sampling_overhead <= PROFILER_SAMPLING_BOUND,
        "exact_wall_s": exact_wall,
        "coverage_fraction": coverage,
        "coverage_bound": PROFILER_COVERAGE_MIN,
        "coverage_ok": (PROFILER_COVERAGE_MIN <= coverage
                        <= 2.0 - PROFILER_COVERAGE_MIN),
        "profile_run": {
            "switches": point.switches,
            "seeds": point.seeds,
            "dispatches": point.dispatches,
            "wall_s": point.wall_s,
            "coverage": point.coverage,
            "gini": point.gini,
            "max_mean_skew": point.max_mean_skew,
            "shares_sum": point.shares_sum,
            "top_switches": point.top_switches,
        },
        "imbalance_ok": (abs(point.shares_sum - 1.0) <= 0.01
                         and len(point.top_switches) > 0),
        "artifacts": [p for p in (flame_path, collapsed_path,
                                  postmortem_path) if p],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="output path (default: <repo>/BENCH_perf.json)")
    parser.add_argument("--artifacts", default=None,
                        help="directory for the instrumented-scenario "
                             "Chrome trace and Prometheus dump")
    args = parser.parse_args()

    dispatch_events = 20_000 if args.quick else 100_000
    kernel_events = 20_000 if args.quick else 200_000

    report = {
        "quick": args.quick,
        "python": sys.version.split()[0],
        "dispatch_100k": bench_dispatch_100k(args.quick),
        "fig6": bench_fig6(args.quick),
        "churn": bench_churn(args.quick),
        "observability": bench_observability(dispatch_events,
                                             artifact_dir=args.artifacts),
        "scarecrow": bench_scarecrow(args.quick),
        "remediation": bench_remediation(args.quick),
        "profiler": bench_profiler(kernel_events,
                                   artifact_dir=args.artifacts),
    }

    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parents[2] / "BENCH_perf.json")
    out.write_text(json.dumps(report, indent=2) + "\n")

    d1 = report["dispatch_100k"]
    print(f"dispatch_100k: {d1['total_seeds']:,} seeds / "
          f"{d1['num_switches']} switches — batched "
          f"{d1['batched_events_per_sec']:,.0f} ev/s, scalar "
          f"{d1['scalar_events_per_sec']:,.0f} ev/s ({d1['speedup']:.2f}x), "
          f"{d1['vectorized_events_total']:,} vectorized events, outputs "
          f"identical: {d1['outputs_identical']}")
    print(f"fig6: ml seed scaling in {report['fig6']['wall_s']:.2f}s")
    ch = report["churn"]
    print(f"churn: {ch['num_seeds']} seeds / {ch['num_switches']} switches — "
          f"incremental {ch['min_speedup']:.1f}x+ faster than full "
          f"(bound {ch['speedup_bound']:.0f}x), utility ratio "
          f">= {ch['min_utility_ratio']:.3f} "
          f"(bound {ch['utility_ratio_bound']:.2f})")
    for name, s in ch["scenarios"].items():
        print(f"  {name}: full {s['full_s']:.2f}s, incremental "
              f"{s['incremental_s']:.3f}s ({s['speedup']:.0f}x), "
              f"utility ratio {s['utility_ratio']:.3f}, "
              f"{s['dirty_seeds']} dirty seeds")
    obs = report["observability"]
    print(f"observability: disabled-instrumentation overhead "
          f"{obs['overhead_fraction'] * 100:.2f}% "
          f"(bound {obs['overhead_bound'] * 100:.0f}%), traced scenario "
          f"{obs['scenario']['trace_events']} events in "
          f"{obs['scenario']['wall_s']:.2f}s")
    sc = report["scarecrow"]
    print(f"scarecrow: fig6 ml {sc['disabled_wall_s']:.2f}s unscraped, "
          f"{sc['enabled_wall_s']:.2f}s with 1s scrapes "
          f"({sc['overhead_fraction'] * 100:.2f}% overhead, bound "
          f"{sc['overhead_bound'] * 100:.0f}%)")
    rem = report["remediation"]
    print(f"remediation: MU retained {rem['mu_retained_off']:.0%} off -> "
          f"{rem['mu_retained_active']:.0%} active "
          f"(+{rem['mu_gain'] * 100:.1f} pts), idle-engine overhead "
          f"{rem['overhead_fraction'] * 100:.2f}% (bound "
          f"{rem['overhead_bound'] * 100:.0f}%)")
    pr = report["profiler"]
    print(f"profiler: disabled {pr['disabled_overhead_fraction'] * 100:.2f}% "
          f"(bound {pr['disabled_overhead_bound'] * 100:.0f}%), sampling "
          f"{pr['sampling_overhead_fraction'] * 100:.2f}% "
          f"(bound {pr['sampling_overhead_bound'] * 100:.0f}%), exact "
          f"coverage {pr['coverage_fraction'] * 100:.2f}% of "
          f"{pr['exact_wall_s']:.2f}s wall; imbalance shares sum "
          f"{pr['profile_run']['shares_sum']:.3f}, gini "
          f"{pr['profile_run']['gini']:.3f}")
    print(f"wrote {out}")

    if not d1["outputs_identical"] or not d1["events_identical"]:
        print("FAIL: batched and scalar soil data paths diverged",
              file=sys.stderr)
        return 1
    if d1["batched_polls_total"] <= 0 or d1["vectorized_events_total"] <= 0:
        print("FAIL: batched data path silently fell back to scalar "
              "(no fused polls / vector-kernel events recorded)",
              file=sys.stderr)
        return 1
    # A fused group must do group-level work (the quick fleet, 20 seeds
    # per switch, reads ~5x over groups of one).
    if d1["speedup"] < 2.0:
        print(f"FAIL: fused groups only {d1['speedup']:.2f}x over groups "
              f"of one (bound 2x)", file=sys.stderr)
        return 1
    if not obs["overhead_ok"]:
        print(f"FAIL: disabled-instrumentation overhead "
              f"{obs['overhead_fraction']:.3f} exceeds bound "
              f"{obs['overhead_bound']:.3f}", file=sys.stderr)
        return 1
    if not sc["overhead_ok"]:
        print(f"FAIL: scarecrow scrape overhead "
              f"{sc['overhead_fraction']:.3f} exceeds bound "
              f"{sc['overhead_bound']:.3f}", file=sys.stderr)
        return 1
    if not ch["all_feasible"] or not ch["all_incremental"]:
        print("FAIL: churn scenarios produced infeasible solutions or "
              "silently fell back to the full solver", file=sys.stderr)
        return 1
    if not ch["speedup_ok"]:
        print(f"FAIL: incremental churn speedup {ch['min_speedup']:.1f}x "
              f"below bound {ch['speedup_bound']:.0f}x", file=sys.stderr)
        return 1
    if not ch["utility_ok"]:
        print(f"FAIL: incremental churn utility ratio "
              f"{ch['min_utility_ratio']:.3f} below bound "
              f"{ch['utility_ratio_bound']:.2f}", file=sys.stderr)
        return 1
    if not rem["mu_ok"]:
        print(f"FAIL: remediation retained less MU than detection only "
              f"({rem['mu_retained_active']:.3f} < "
              f"{rem['mu_retained_off']:.3f})", file=sys.stderr)
        return 1
    if not rem["overhead_ok"]:
        print(f"FAIL: idle remediation engine overhead "
              f"{rem['overhead_fraction']:.3f} exceeds bound "
              f"{rem['overhead_bound']:.3f}", file=sys.stderr)
        return 1
    if not pr["disabled_ok"]:
        print(f"FAIL: stopped-profiler overhead "
              f"{pr['disabled_overhead_fraction']:.3f} exceeds bound "
              f"{pr['disabled_overhead_bound']:.3f}", file=sys.stderr)
        return 1
    if not pr["sampling_ok"]:
        print(f"FAIL: sampling-profiler overhead "
              f"{pr['sampling_overhead_fraction']:.3f} exceeds bound "
              f"{pr['sampling_overhead_bound']:.3f}", file=sys.stderr)
        return 1
    if not pr["coverage_ok"]:
        print(f"FAIL: exact-mode attribution covers "
              f"{pr['coverage_fraction']:.3f} of wall, outside "
              f"[{pr['coverage_bound']:.2f}, "
              f"{2.0 - pr['coverage_bound']:.2f}]", file=sys.stderr)
        return 1
    if not pr["imbalance_ok"]:
        print(f"FAIL: imbalance report shares sum "
              f"{pr['profile_run']['shares_sum']:.3f} (want 1.0 +/- 0.01) "
              f"or no hot switches named", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
