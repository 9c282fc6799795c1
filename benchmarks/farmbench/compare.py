#!/usr/bin/env python3
"""Compare two farmbench result sets, one row per (metric, workload).

    python3 benchmarks/farmbench/compare.py BASE NEW

BASE and NEW are results files written by ``run.py --out`` (or
directories of them: their repetitions are pooled in file-name order).
Each row gives both medians with their quartiles, the ratio NEW/BASE with
its base, and a verdict by the pairing rule of the choosing-metrics guide
(section 8):

* ``improved``     - NEW wins at least nine tenths of the pairs (ties
                     count for neither) and the medians differ by more
                     than the distance between BASE's own quartiles;
* ``regressed``    - NEW's median is worse than BASE's by more than the
                     metric's bound;
* ``unresolved``   - the run-to-run spread is wider than the bound and the
                     runs of one side do not all read better (or all
                     worse) than every run of the other;
* ``within bound`` - otherwise.

Metrics with an exact bound (simulated-time quantities) must repeat to
1e-9 relative.  Exits non-zero if any row reads ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

EXACT_REL_TOL = 1e-9

Rows = List[Dict[str, Any]]


def load(path: str) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{workload: {metric: {unit, better, bound, samples}}}`` of one
    result set; repetitions of several files are pooled."""
    files = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".json")] if os.path.isdir(path) else [path])
    pooled: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for name in files:
        with open(name) as handle:
            document = json.load(handle)
        for workload, result in document["workloads"].items():
            metrics = pooled.setdefault(workload, {})
            for metric, entry in result["named"].items():
                slot = metrics.setdefault(
                    metric, {key: entry[key]
                             for key in ("unit", "better", "bound")}
                    | {"samples": []})
                slot["samples"].extend(entry["samples"])
    return pooled


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], new: List[float], better: str,
            bound: Any) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (new - base)
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    scale = abs(base_median) or 1.0
    worse_by = sign * (new_median - base_median) / scale
    if bound == "exact":
        if abs(worse_by) <= EXACT_REL_TOL:
            return "within bound"
        return "regressed" if worse_by > 0 else "improved"
    spread = max((base_q3 - base_q1) / scale,
                 (new_q3 - new_q1) / (abs(new_median) or 1.0))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    if worse_by > bound:
        return ("unresolved" if spread > bound and not all_worse
                else "regressed")
    if (wins >= 0.9 * len(pairs)
            and abs(new_median - base_median) > base_q3 - base_q1):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Rows:
    rows: Rows = []
    for workload in base:
        for metric, entry in base[workload].items():
            other = new.get(workload, {}).get(metric)
            if other is None:
                continue
            b, n = entry["samples"], other["samples"]
            b_q = quartiles(b)
            n_q = quartiles(n)
            rows.append({
                "metric": metric, "workload": workload,
                "unit": entry["unit"], "better": entry["better"],
                "bound": entry["bound"], "base": b_q, "new": n_q,
                "runs": (len(b), len(n)),
                "ratio": n_q[1] / b_q[1] if b_q[1] else float("nan"),
                "verdict": verdict(b, n, entry["better"], entry["bound"])})
    return rows


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[1]), load(argv[2]))
    print(f"{'metric':<24}{'workload':<24}{'base median [q1, q3]':<36}"
          f"{'new median [q1, q3]':<36}{'new/base':<10}{'bound':<7}verdict")
    for row in rows:
        def cell(q: Tuple[float, float, float]) -> str:
            return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}] {row['unit']}"
        bound = (row["bound"] if row["bound"] == "exact"
                 else f"{row['bound']:.0%}")
        print(f"{row['metric']:<24}{row['workload']:<24}"
              f"{cell(row['base']):<36}{cell(row['new']):<36}"
              f"{row['ratio']:<10.4f}{bound:<7}{row['verdict']}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(f"{len(rows)} rows (ratios are new over base, base = {argv[1]}): "
          + ", ".join(f"{count} {name}"
                      for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
