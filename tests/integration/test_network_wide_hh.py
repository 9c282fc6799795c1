"""Network-wide HH detection — the capability Sonata lacks (SVII).

Two leaves each carry 60% of the threshold toward the same logical port:
no switch-local detector fires, but FARM's harvester merges the seeds'
pre-filtered reports and detects the global aggregate.
"""

import pytest

from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload
from repro.tasks.heavy_hitter import make_network_wide_task, make_task

THRESHOLD = 10e6


def split_elephant_farm():
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    for leaf in farm.topology.leaf_ids:
        workload = HeavyHitterWorkload(
            num_ports=1, hh_ratio=1.0, hh_rate_bps=0.6 * THRESHOLD,
            mouse_rate_bps=1, churn_interval=None, seed=1)
        workload.start(farm.sim, farm.fleet.get(leaf).asic)
    return farm


class TestNetworkWideDetection:
    def test_global_aggregate_detected(self):
        farm = split_elephant_farm()
        task = make_network_wide_task(threshold=THRESHOLD,
                                      report_floor=1e5, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        farm.run(until=farm.sim.now + 1.0)
        harvester = task.harvester
        assert 0 in harvester.global_heavy_ports()
        _time, port, total = harvester.global_detections[0]
        assert port == 0
        assert total >= THRESHOLD

    def test_switch_local_task_misses_split_elephant(self):
        """The plain HH task (switch-local thresholding) cannot see it —
        exactly Sonata's limitation, which FARM escapes via the harvester."""
        farm = split_elephant_farm()
        task = make_task(threshold=THRESHOLD, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        farm.run(until=farm.sim.now + 1.0)
        assert task.harvester.detections == []

    def test_prefiltering_limits_report_volume(self):
        """Seeds only report ports above the floor ([DEC] pre-filtering):
        the control-plane message volume stays tiny."""
        farm = split_elephant_farm()
        task = make_network_wide_task(threshold=THRESHOLD,
                                      report_floor=1e5, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        start_msgs = farm.metrics.value("farm_bus_messages_total")
        farm.run(until=farm.sim.now + 1.0)
        reports = farm.metrics.value("farm_bus_messages_total") - start_msgs
        # 2 active leaves x 100 polls/s x 1 report; the idle spine's seed
        # reports nothing at all.
        assert reports <= 2 * 100 + 10

    def test_aggregate_clears_when_traffic_stops(self):
        farm = split_elephant_farm()
        task = make_network_wide_task(threshold=THRESHOLD,
                                      report_floor=1e3, accuracy_ms=10)
        farm.submit(task)
        farm.settle()
        farm.run(until=farm.sim.now + 0.5)
        assert task.harvester.global_heavy_ports()
        for leaf in farm.topology.leaf_ids:
            for flow in farm.fleet.get(leaf).asic.active_flows():
                flow.set_rate(1e3, at_time=farm.sim.now)
        farm.run(until=farm.sim.now + 0.5)
        assert not task.harvester.global_heavy_ports()
