"""Command-line runner for the observability scenarios.

Usage::

    python -m repro.eval scarecrow
    python -m repro.eval dashboard --out dashboard.html
    python -m repro.eval remediation [--out remediation.html]
    python -m repro.eval profile --out profile.html

The paper's tables and figures are printed by their tests instead:
``pytest benchmarks/test_fig4_network_load.py -s --benchmark-disable``
(one ``benchmarks/test_fig*`` / ``test_tab*`` file per artifact) prints
the rows beside the paper's and asserts their shape; programmatic
equivalents are the ``repro.eval.run_*`` drivers.

``scarecrow`` runs the Scarecrow chaos scenario (one switch partitioned
mid-run, alert rules watching) and prints the alert log; ``dashboard``
runs the same scenario and writes it as one self-contained HTML
dashboard (``--out``, default ``dashboard.html`` — no external assets,
opens from file:// or a CI artifact).

``remediation`` runs the closed-loop gray-failure comparison (engine
off / dry-run / active); with ``--out PATH`` the active run's dashboard
— including the remediation decision timeline — is written as HTML.

``profile`` runs a deliberately skewed Fig. 6-style fleet under the
Surveyor profiler and writes the flame-graph HTML (``--out``, default
``profile.html``), plus the collapsed-stack export (``.collapsed``) and
a flight-recorder postmortem bundle (``.postmortem.json``) next to it,
and prints the load-imbalance report (per-switch cost shares,
Gini/max-mean skew — the shard-partitioner inputs).
"""

from __future__ import annotations

import sys

from repro.eval import (
    format_latency,
    format_table,
    run_profile,
    run_remediation_loop,
    run_scarecrow_chaos,
)


def _scarecrow(dashboard_path=None):
    print("Scarecrow — chaos run observed by the telemetry pipeline")
    point = run_scarecrow_chaos(dashboard_path=dashboard_path)
    print(format_table(
        ["sim t", "rule", "state"],
        [(f"{t:.1f}s", rule, state) for t, rule, state in point.alert_log]))
    delay = ("-" if point.firing_delay_s is None
             else f"{point.firing_delay_s:.1f}s after loss start")
    print(f"  mu-degradation fired: {delay}; resolved after recovery: "
          f"{point.resolved}; peak parked seeds: {point.parked_peak:.0f}; "
          f"scrapes: {point.scrapes}")
    return point


def _remediation(dashboard_path=None):
    print("Remediation — closed loop vs dry-run vs detection only")
    cmp = run_remediation_loop(dashboard_path=dashboard_path)
    print(format_table(
        ["mode", "victim", "baseline MU", "effective MU", "retained"],
        [(p.mode, p.victim, f"{p.baseline_mu:.1f}",
          f"{p.effective_mu:.2f}", f"{p.mu_retained * 100:.1f}%")
         for p in (cmp.off, cmp.dry, cmp.active)]))
    print(format_table(
        ["sim t", "action", "switch", "decision", "outcome"],
        [(f"{r.t:.1f}s", r.action, r.switch,
          r.blocked_by and f"{r.decision} ({r.blocked_by})" or r.decision,
          r.outcome or "-") for r in cmp.active.records]))
    print(f"  MU gain over detection-only: {cmp.mu_gain * 100:.1f} pts; "
          f"dry-run decisions identical: {cmp.dry_matches_active}; "
          f"dry-run changed nothing: {cmp.dry_changed_nothing}")
    return cmp


def _profile(out_path=None):
    print("Surveyor — profiled skewed Fig. 6-style fleet")
    stem = out_path[:-5] if (out_path or "").endswith(".html") else out_path
    point = run_profile(
        flamegraph_path=out_path,
        collapsed_path=f"{stem}.collapsed" if stem else None,
        postmortem_path=f"{stem}.postmortem.json" if stem else None)
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
    return point


VERBS = ("dashboard", "remediation", "profile", "scarecrow")

#: Where ``--out`` goes when the verb writes a file but none was given.
_DEFAULT_OUT = {"dashboard": "dashboard.html", "profile": "profile.html"}


def main(argv) -> int:
    args = list(argv[1:])
    out = None
    if "--out" in args:
        index = args.index("--out")
        if index + 1 >= len(args):
            print("--out requires a path", file=sys.stderr)
            return 2
        out = args[index + 1]
        del args[index:index + 2]
    if not args or args[0] in ("--help", "-h"):
        print(__doc__)
        print("verbs:", " | ".join(VERBS))
        return 0
    if len(args) != 1 or args[0] not in VERBS:
        print(f"unknown verb(s): {args}; expected one of {', '.join(VERBS)}",
              file=sys.stderr)
        return 2
    which = args[0]
    out = out or _DEFAULT_OUT.get(which)
    if which == "scarecrow":
        _scarecrow()
    elif which == "dashboard":
        _scarecrow(dashboard_path=out)
        print(f"[dashboard written to {out}]")
    elif which == "profile":
        _profile(out_path=out)
        print(f"[flame graph written to {out}]")
    else:
        _remediation(dashboard_path=out)
        if out is not None:
            print(f"[dashboard written to {out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
