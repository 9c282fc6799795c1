#!/usr/bin/env python3
"""One farmbench repetition, run by ``run.py`` in a fresh interpreter.

Fresh because in-process repeats drift: at the seed commit eight
in-process repeats of the portfolio run climb from 3.6 s to 6.1 s, while
fresh processes stay within 4%.  Prints one JSON record as its last line.
"""

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up
#                                       time includes importing the program

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def calibrate(passes: int = 3) -> float:
    """Host seconds of a fixed pure-Python + numpy loop (fastest of
    ``passes``: the first pass pays warm-up), so that numbers from
    different runners can be normalised."""
    import numpy

    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += (i * i) % 7
        total += len({i: str(i) for i in range(20_000)})
        values = numpy.arange(250_000, dtype=numpy.float64)
        for _ in range(10):
            values = numpy.sqrt(values * 1.0001 + 1.0)
        total += float(values.sum())
        best = min(best, time.perf_counter() - start)
        if total < 0:  # the result is consumed: the loop cannot be elided
            raise AssertionError(total)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probes", action="store_true",
                        help="also run the kernel and compile probes")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    import numpy  # noqa: F401  (imported here so calibration excludes it)
    before, cpu_before = time.perf_counter(), time.process_time()
    calibration_s = calibrate()
    calibrating_s = time.perf_counter() - before
    calibrating_cpu_s = time.process_time() - cpu_before

    import adapter
    import workloads
    from tracing import CHECK, TIMED

    trace = workloads.Trace(args.workload, args.rep) if args.traced else None
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                  trace)
    workload.setup()
    # Like every host second here, set-up is CPU seconds of this process
    # (from its start: interpreter boot and imports included).
    setup_s = time.process_time() - calibrating_cpu_s
    setup_wall_s = time.perf_counter() - _PROCESS_START - calibrating_s

    if trace:
        trace.recorder.phase = TIMED
    start, cpu_start = time.perf_counter(), time.process_time()
    reported = workload.run()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    # Host seconds are CPU seconds of this single-threaded process: the
    # same as wall on a quiet machine, and unmoved when the hypervisor
    # steals the core (episodes of 3x wall were seen while writing this).
    timed_s = cpu_s if reported is None else reported

    if trace:
        trace.recorder.phase = CHECK
    items = workload.check()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "rep": args.rep,
        "traced": args.traced, "smoke": args.smoke,
        "calibration_s": calibration_s, "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "timed_s": timed_s, "phase_wall_s": wall_s, "phase_cpu_s": cpu_s,
        "work": workload.work,
        "work_unit": workload.work_unit,
        "work_per_s": workload.work_per_s(timed_s),
        "kernel_events_timed": workload.kernel_events_timed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.checks.attempted,
        "failures": workload.checks.failures,
        "sim_digest": workloads.digest(items),
        "values": workload.values,
    }
    if trace:
        layers, shares = workloads.layer_metrics(workload)
        record.update(layers=layers, shares=shares,
                      profiled_s=sum(trace.components.values()))
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            trace.recorder.dump(os.path.join(
                args.trace_dir, f"trace_{args.workload}.json"))
    if args.probes:
        record["probes"] = {
            "sim.plain_events_per_s": adapter.kernel_probe(100_000, 0),
            "sim.cancel_heavy_events_per_s": adapter.kernel_probe(30_000, 4),
            "almanac.compile_ms_per_task": adapter.compile_probe(),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
