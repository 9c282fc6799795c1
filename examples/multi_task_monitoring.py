#!/usr/bin/env python3
"""Running a monitoring *portfolio*: many tasks side by side.

Deploys five Tab. I tasks on the same fleet, drives mixed traffic with an
embedded attack, and shows the cross-task machinery: shared polling
(aggregation), the placement optimizer keeping every switch within
budget, and each task reporting through its own harvester.

Run:  python examples/multi_task_monitoring.py
"""

from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.net.traffic import (
    HeavyHitterWorkload,
    PortScanWorkload,
    SynFloodWorkload,
)
from repro.tasks import (
    make_entropy_task,
    make_heavy_hitter_task,
    make_port_scan_task,
    make_syn_flood_task,
    make_traffic_change_task,
)


def main() -> None:
    farm = FarmDeployment(topology=spine_leaf(2, 3, 2))
    tasks = [
        make_heavy_hitter_task(threshold=10e6, accuracy_ms=10),
        make_syn_flood_task(syn_threshold=30),
        make_port_scan_task(port_threshold=15),
        make_traffic_change_task(interval_s=0.1),
        make_entropy_task(interval_s=0.02, window_s=0.5),
    ]
    for task in tasks:
        farm.submit(task)
    farm.settle()
    print(f"{len(tasks)} tasks -> {farm.seeder.deployed_seed_count()} seeds "
          f"across {len(farm.topology.switch_ids)} switches")
    print(f"placed tasks: {sorted(farm.seeder.last_solution.placed_tasks)}")

    # Mixed traffic: normal HH churn + a SYN flood + a port scan.
    leaf_a, leaf_b, leaf_c = farm.topology.leaf_ids
    farm.start_workload(
        HeavyHitterWorkload(num_ports=30, hh_ratio=0.1, hh_rate_bps=100e6,
                            churn_interval=2.0, seed=1), leaf_a)
    farm.start_workload(
        SynFloodWorkload(syn_rate_pps=20000, num_sources=64), leaf_b)
    farm.start_workload(
        PortScanWorkload(num_ports_scanned=40), leaf_c)

    t0 = farm.sim.now
    farm.run(until=t0 + 3.0)

    hh, syn, scan, change, entropy = tasks
    print("\nwhat each task saw in 3 seconds of DC time:")
    print(f"  heavy-hitter : {len(hh.harvester.detections)} reports, "
          f"ports {sorted({p for _s, p in hh.harvester.heavy_ports()})}")
    print(f"  syn-flood    : victims {sorted(set(syn.harvester.suspects))}")
    print(f"  port-scan    : scanners {sorted(set(scan.harvester.suspects))}")
    print(f"  traffic-chng : {len(change.harvester.reports)} change alerts")
    if entropy.harvester.entropies:
        print(f"  entropy      : {len(entropy.harvester.entropies)} samples, "
              f"last {entropy.harvester.entropies[-1]:.2f} bits")

    print("\ncross-task efficiency (the [OPT] story):")
    for leaf in farm.topology.leaf_ids:
        soil = farm.soil(leaf)
        hits = int(farm.metrics.value("farm_soil_poll_cache_hits_total",
                                      {"switch": leaf}))
        total = hits + int(farm.metrics.value("farm_soil_polls_total",
                                              {"switch": leaf}))
        if total:
            saved = 100.0 * hits / total
            print(f"  switch {leaf}: {soil.num_seeds} seeds, "
                  f"{total} poll requests, {saved:.0f}% served from the "
                  f"soil's aggregation cache")
        switch = farm.fleet.get(leaf)
        print(f"            CPU {switch.cpu.mean_load_percent():.1f}%, "
              f"PCIe demand {switch.pcie.oversubscription * 100:.0f}% "
              f"of capacity")


if __name__ == "__main__":
    main()
