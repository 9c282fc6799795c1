#!/usr/bin/env python3
"""Profile tour: where a skewed fleet spends its time, switch by switch.

Six switches poll on a Fig. 6-style fleet with a deliberate skew:
switch ``i`` hosts ``3 * i`` seeds, so switch 6 carries six times the
seeds of switch 1.  The Surveyor profiler attributes the wall-clock of
every simulator event to its component, switch, seed and label, and
the run reports what a shard partitioner would balance on: each
switch's share of the attributed cost, its Gini coefficient and the
hottest switch's cost over the fleet mean.

The script writes three files into the directory it runs from:

* ``profile.html`` — self-contained flame graph and load-imbalance
  report (inline SVG, zero external assets; open from ``file://``),
* ``profile.collapsed`` — folded stacks for ``flamegraph.pl`` or
  speedscope,
* ``profile.postmortem.json`` — a flight-recorder postmortem bundle.

The costs are host wall-clock, so the printed numbers vary from run to
run, and on a loaded host even the order of two neighbouring switches
can.  What the skew fixes is the number of events each switch
dispatches (the ``events`` of the postmortem's cost entries).

See docs/observability.md ("Profiling & cost attribution") for the
attribution model.

Run:  python examples/profile_tour.py
"""

from repro.eval import format_latency, format_table, run_profile

FLAMEGRAPH_PATH = "profile.html"
COLLAPSED_PATH = "profile.collapsed"
POSTMORTEM_PATH = "profile.postmortem.json"


def main() -> None:
    point = run_profile(flamegraph_path=FLAMEGRAPH_PATH,
                        collapsed_path=COLLAPSED_PATH,
                        postmortem_path=POSTMORTEM_PATH)

    print("Surveyor — profiled skewed Fig. 6-style fleet")
    print(format_table(
        ["switch", "cost", "share"],
        [(sw, format_latency(ns / 1e9), f"{share * 100:.2f}%")
         for sw, ns, share in point.top_switches]))
    print(f"  {point.seeds} seeds / {point.switches} switches, "
          f"{point.dispatches} dispatches in {point.wall_s:.2f}s wall; "
          f"attribution coverage {point.coverage * 100:.1f}%")
    print(f"  imbalance: shares sum {point.shares_sum:.3f}, gini "
          f"{point.gini:.3f}, max/mean {point.max_mean_skew:.2f}x; "
          f"hottest seed {point.hot_seed}")
    print(f"[export] {FLAMEGRAPH_PATH}, {COLLAPSED_PATH}, "
          f"{POSTMORTEM_PATH}")


if __name__ == "__main__":
    main()
