#!/usr/bin/env python3
"""farmbench: the repo's performance record, one command.

    python3 benchmarks/farmbench/run.py [--workload W] [--seed N]
        [--reps K | --seconds S] [--traced | --trace 0|1] [--smoke]
        [--out FILE]

Runs every workload (or one), checks its outputs, prints every metric by
name with its unit and writes the results.  Single process, single
thread, closed loop with one client: this script starts one fresh child
interpreter per repetition and waits for it before starting the next.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero if any output check failed.

The model is compared with no hardware reference here, so no error figure
is given: simulated-time metrics are exact properties of the model.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
from catalogue import fmt  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
HISTORY = os.path.join(OUT_DIR, "history.jsonl")
SRC = os.path.join(catalogue.REPO_ROOT, "src")

#: A run must end well inside the driver's 180 s limit: no new repetition
#: starts after this many seconds, and no child may outlive its timeout.
RUN_DEADLINE_S = 110.0
CHILD_TIMEOUT_S = 170.0

SIBLING = {"task_portfolio": "task_portfolio_guarded",
           "task_portfolio_guarded": "task_portfolio"}


class ChildFailed(RuntimeError):
    pass


def out_dir(smoke: bool) -> str:
    """Smoke passes keep their files apart from measurements."""
    return os.path.join(OUT_DIR, "smoke") if smoke else OUT_DIR


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pin] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(workload: str, seed: int, rep: int, traced: bool = False,
              smoke: bool = False, probes: bool = False) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its record."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--rep", str(rep)]
    if traced:
        command += ["--traced", "--trace-dir", out_dir(smoke)]
    if smoke:
        command.append("--smoke")
    if probes:
        command.append("--probes")
    done = subprocess.run(command, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise ChildFailed(f"{workload} rep {rep} exited "
                          f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def enough(measured_s: float, reps: int, seconds: float) -> bool:
    """Time-based stop rule: at least ``seconds`` of timed phase over at
    least two repetitions, and a third (so the median can drop an
    outlier) unless the first two already took 1.5 times the budget."""
    if reps < 2 or measured_s < seconds:
        return False
    return reps >= 3 or measured_s >= 1.5 * seconds


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", catalogue.REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, reps: Optional[int],
            traced: bool, smoke: bool, alone: bool) -> Dict[str, Any]:
    """Repeat ``workload`` in fresh interpreters and aggregate.  ``alone``:
    no other workload is measured in this invocation, so a traced
    portfolio run measures its sibling itself for the guard overhead."""
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    timed_total = 0.0
    while True:
        index = len(plain)
        plain.append(run_child(workload, seed, index, smoke=smoke,
                               probes=traced and index == 0))
        timed_total += plain[-1]["phase_wall_s"]
        if traced:
            spans.append(run_child(workload, seed, index, traced=True,
                                   smoke=smoke))
            timed_total += spans[-1]["phase_wall_s"]
        if reps is not None:
            if len(plain) >= reps:
                break
        elif enough(timed_total, len(plain), seconds):
            break
        elif (time.perf_counter() - started > RUN_DEADLINE_S
              and len(plain) >= 2):
            break
    result = aggregate(workload, seed, smoke, plain, spans)
    if traced:
        result["layers"] = layer_table(plain, spans)
        if alone and workload in SIBLING:
            other = [run_child(SIBLING[workload], seed, index, smoke=smoke)
                     for index in range(len(plain))]
            set_guard_overhead({workload: result,
                                SIBLING[workload]: {"records": other}})
    return result


def set_guard_overhead(results: Dict[str, Dict[str, Any]]) -> None:
    """``obs.guard_overhead_frac``: timed phase of the guarded portfolio
    over the plain one, minus one (medians of untraced repetitions)."""
    timed = {name: median([r["timed_s"] for r in result["records"]
                           if not r["traced"]])
             for name, result in results.items()}
    overhead = timed["task_portfolio_guarded"] / timed["task_portfolio"] - 1
    for result in results.values():
        if "layers" in result:
            result["layers"]["values"]["obs.guard_overhead_frac"] = overhead


def aggregate(workload: str, seed: int, smoke: bool,
              plain: List[Dict[str, Any]], spans: List[Dict[str, Any]]
              ) -> Dict[str, Any]:
    bench = catalogue.load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    named = {}
    for metric in catalogue.named_metrics(bounds):
        if not metric.applies(workload):
            continue
        samples = [metric.read(record) for record in plain]
        named[metric.name] = {
            "unit": metric.unit, "better": metric.better,
            "bound": metric.bound, "median": median(samples),
            "min": min(samples), "max": max(samples),
            "count": len(samples), "samples": samples}
    contract = {m["name"]: {"value": median([r[m["name"]] for r in plain]),
                            "unit": m["unit"]}
                for m in bench["end_to_end"]}

    attempted = sum(r["attempted"] for r in plain + spans)
    failures = [f"rep {r['rep']}{' traced' if r['traced'] else ''}: {f}"
                for r in plain + spans for f in r["failures"]]
    digests = {r["sim_digest"] for r in plain + spans}
    attempted += 1
    if len(digests) != 1:
        failures.append(f"sim_digest differs between repetitions of seed "
                        f"{seed}: {sorted(digests)}")
    digest = plain[0]["sim_digest"]
    if not smoke:
        for line in history_lines():
            other = line.get("workloads", {}).get(workload)
            if not other or line.get("seed") == seed \
                    or other.get("size") != catalogue.SIZES[workload]:
                continue
            attempted += 1
            if other.get("sim_digest") == digest:
                failures.append(
                    f"sim_digest of seed {seed} equals that of seed "
                    f"{line.get('seed')}: the seed does not reach the "
                    f"inputs")
            break
    sizes = catalogue.SMOKE_SIZES if smoke else catalogue.SIZES
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "size": sizes[workload], "work_unit": plain[0]["work_unit"],
        "reps": len(plain), "traced_reps": len(spans),
        "calibration_s": median([r["calibration_s"] for r in plain + spans]),
        "contract": contract, "named": named, "sim_digest": digest,
        "attempted": attempted, "failed": len(failures),
        "failures": failures, "records": plain + spans,
    }


def layer_table(plain: List[Dict[str, Any]], spans: List[Dict[str, Any]]
                ) -> Dict[str, Any]:
    """Per-layer metrics: medians over the traced repetitions, plus the
    ones that need an untraced repetition to compare with."""
    bench = catalogue.load_benchmark()
    names = [m["name"] for m in bench["per_layer"]]
    values = {name: median([r["layers"].get(name, 0.0) for r in spans])
              for name in names}
    values.update(plain[0]["probes"])
    plain_s = median([r["timed_s"] for r in plain])
    traced_s = median([r["timed_s"] for r in spans])
    traced_wall_s = median([r["phase_wall_s"] for r in spans])
    values["sim.kernel_share_est"] = (
        median([r["kernel_events_timed"] for r in plain])
        / values["sim.plain_events_per_s"] / plain_s)
    values["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    shares = {layer: median([r["shares"].get(layer, 0.0) for r in spans])
              for layer in catalogue.SHARE_LAYERS}
    return {
        "values": values, "units": {m["name"]: m["unit"]
                                    for m in bench["per_layer"]},
        "shares_s": shares, "traced_timed_s": traced_wall_s,
        "coverage": median([sum(r["shares"].values()) / r["phase_wall_s"]
                            for r in spans]),
    }


def history_lines() -> List[Dict[str, Any]]:
    if not os.path.exists(HISTORY):
        return []
    with open(HISTORY) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_workload(result: Dict[str, Any]) -> None:
    size = ", ".join(f"{k}={v}" for k, v in result["size"].items())
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"reps={result['reps']}"
          + (f"+{result['traced_reps']} traced"
             if result["traced_reps"] else "")
          + ("  [smoke]" if result["smoke"] else ""))
    print(f"   size: {size}")
    for name, m in result["named"].items():
        bound = (m["bound"] if m["bound"] == catalogue.EXACT
                 else f"{m['bound']:.0%}")
        print(f"   {name:<24}{fmt(m['median']):>14} {m['unit']:<5} "
              f"min {fmt(m['min'])} max {fmt(m['max'])} n={m['count']}  "
              f"({m['better']} is better, bound {bound})")
    work = result["contract"]["work_per_s"]
    print(f"   {'work_per_s':<24}{fmt(work['value']):>14} {work['unit']:<5} "
          f"({result['work_unit']} per host second; the projection "
          f"BENCHMARK.json declares)")
    print(f"   checks: attempted={result['attempted']} "
          f"failed={result['failed']}  sim_digest={result['sim_digest']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    layers = result.get("layers")
    if not layers:
        return
    print(f"   per-layer metrics (traced repetitions; end-to-end numbers "
          f"above come from untraced ones):")
    for name, value in layers["values"].items():
        print(f"     {name:<38}{fmt(value):>14} {layers['units'][name]:<6}"
              f"-> {catalogue.LAYER_MOVES[name]}")
    wall = layers["traced_timed_s"]
    print(f"   timed-phase wall by layer (traced, {wall:.3f} s; spans and "
          f"profiler account for {layers['coverage']:.1%}):")
    for layer, seconds in layers["shares_s"].items():
        if seconds > 0:
            print(f"     {layer:<14}{seconds:>9.3f} s  {seconds / wall:6.1%}")


def write_outputs(results: List[Dict[str, Any]], args: argparse.Namespace,
                  commit: str) -> None:
    os.makedirs(out_dir(args.smoke), exist_ok=True)
    calibration = median([r["calibration_s"] for r in results])
    document = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "commit": commit, "seed": args.seed, "smoke": args.smoke,
        "traced": args.traced, "calibration_s": calibration,
        "workloads": {r["workload"]: r for r in results}}
    path = args.out or os.path.join(out_dir(args.smoke), "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    if args.smoke:
        return  # smoke numbers are not measurements: never in history
    line = {key: document[key] for key in
            ("time", "commit", "seed", "traced", "calibration_s")}
    line["workloads"] = {
        r["workload"]: {
            "size": r["size"], "sim_digest": r["sim_digest"],
            "reps": r["reps"], "failed": r["failed"],
            "metrics": {**{n: m["median"] for n, m in r["named"].items()},
                        "work_per_s": r["contract"]["work_per_s"]["value"]},
            **({"layers": r["layers"]["values"]} if r.get("layers") else {}),
        } for r in results}
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line) + "\n")


def final_line(results: List[Dict[str, Any]], traced: bool,
               single: bool) -> Dict[str, Any]:
    """The driver-facing result: with one workload, exactly the metrics
    BENCHMARK.json declares for this trace mode."""
    def metrics(result: Dict[str, Any]) -> Dict[str, Any]:
        if traced:
            layers = result["layers"]
            return {name: {"value": value, "unit": layers["units"][name]}
                    for name, value in layers["values"].items()}
        return result["contract"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics(results[0]) if single
        else {r["workload"]: metrics(r) for r in results}}


def main() -> int:
    bench = catalogue.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds only the workload generators")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase seconds to measure per workload "
                             "(the driver passes BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--reps", type=int, default=None,
                        help="fixed repetition count instead of --seconds "
                             "(default when neither is given: 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repetitions, report per-layer "
                             "metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (self-test); not a measurement")
    parser.add_argument("--out", default=None,
                        help="results file (default: out/results.json)")
    args = parser.parse_args()
    args.traced = args.traced or bool(args.trace)
    if args.seconds is None and args.reps is None:
        args.reps = 5

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"farmbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    commit = git_commit()
    print(f"farmbench  commit={commit}  seed={args.seed}  "
          f"(model only: no hardware reference, so no error figure)")
    selected = [args.workload] if args.workload else names
    results = []
    for workload in selected:
        try:
            result = measure(workload, args.seed, args.seconds, args.reps,
                             args.traced, args.smoke,
                             alone=len(selected) == 1)
        except (ChildFailed, subprocess.TimeoutExpired) as error:
            print(f"farmbench: {error}", file=sys.stderr)
            return 3
        results.append(result)
    if args.traced and len(selected) > 1:
        set_guard_overhead({r["workload"]: r for r in results
                            if r["workload"] in SIBLING})
    for result in results:
        print_workload(result)
    print(f"calibration_s {median([r['calibration_s'] for r in results]):.4f}"
          f" s  (fixed pure-Python + numpy loop, median over children; "
          f"divide timings by it to compare runners)")
    write_outputs(results, args, commit)
    line = final_line(results, args.traced, single=args.workload is not None)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
