#!/usr/bin/env python3
"""Render a farmbench results file as the README's baseline tables.

    python3 benchmarks/farmbench/report.py RESULTS.json

Prints markdown: one table of the named end-to-end metrics per workload
and, when the results hold traced repetitions, the timed-phase wall by
layer per workload (the layer budget).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalogue  # noqa: E402


fmt = catalogue.fmt


def main(path: str) -> int:
    with open(path) as handle:
        document = json.load(handle)
    results = document["workloads"]
    print(f"Commit `{document['commit'][:12]}`, seed {document['seed']}, "
          f"calibration_s {document['calibration_s']:.4f}.\n")
    print("| workload | metric | median | min | max | reps | unit |")
    print("|---|---|---:|---:|---:|---:|---|")
    for name, result in results.items():
        for metric, m in result["named"].items():
            print(f"| `{name}` | `{metric}` | {fmt(m['median'])} | "
                  f"{fmt(m['min'])} | {fmt(m['max'])} | {m['count']} | "
                  f"{m['unit']} |")
    traced = {name: r["layers"] for name, r in results.items()
              if r.get("layers")}
    if not traced:
        return 0
    print("\nTimed-phase wall by layer, share of the traced repetition's "
          "wall (`-` = the layer did nothing):\n")
    print("| layer | " + " | ".join(f"`{name}`" for name in traced) + " |")
    print("|---|" + "---:|" * len(traced))
    for layer in catalogue.SHARE_LAYERS:
        cells = []
        for layers in traced.values():
            share = layers["shares_s"].get(layer, 0.0) \
                / layers["traced_timed_s"]
            cells.append(f"{share:.1%}" if share >= 0.0005 else "-")
        print(f"| {layer} | " + " | ".join(cells) + " |")
    rows = (("traced wall (s)", lambda l: fmt(l["traced_timed_s"])),
            ("accounted for", lambda l: f"{l['coverage']:.1%}"),
            ("`sim.kernel_share_est`",
             lambda l: f"{l['values']['sim.kernel_share_est']:.1%}"),
            ("`obs.trace_overhead_frac`",
             lambda l: f"{l['values']['obs.trace_overhead_frac']:+.1%}"))
    for label, cell in rows:
        print(f"| {label} | "
              + " | ".join(cell(layers) for layers in traced.values())
              + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
