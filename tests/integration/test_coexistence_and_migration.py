"""Cross-cutting integration: co-deployed tasks, aggregation benefits,
migration under contention, FloodDefender's state machine, the ML task."""

import pytest

from repro.core.comm import SoilCommConfig
from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload, SynFloodWorkload
from repro.tasks import (
    make_entropy_task,
    make_flood_defender_task,
    make_heavy_hitter_task,
    make_hierarchical_hh_task,
    make_ml_task,
    make_syn_flood_task,
    make_traffic_change_task,
)
from repro.tasks.ml_task import register_ml_support


class TestCoexistingTasks:
    def test_multiple_tasks_share_a_switch(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        hh = make_heavy_hitter_task(threshold=5e6, accuracy_ms=10)
        tc = make_traffic_change_task(interval_s=0.05)
        ent = make_entropy_task(interval_s=0.02, window_s=0.2)
        for task in (hh, tc, ent):
            farm.submit(task)
        farm.settle()
        assert farm.seeder.deployed_seed_count() == 6  # 3 tasks x 2 switches
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=20, hh_ratio=0.1,
                                       hh_rate_bps=1e8,
                                       churn_interval=None, seed=4)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert hh.harvester.detections
        assert ent.harvester.entropies

    def test_polling_aggregation_across_tasks(self):
        """SII-B-b: multiple tasks polling the same data are served by one
        ASIC poll — the soil's cache hit counter proves the sharing."""
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        farm.submit(make_heavy_hitter_task(accuracy_ms=10))
        farm.submit(make_traffic_change_task(interval_s=0.01))
        farm.settle()
        farm.run(until=farm.sim.now + 1.0)
        labels = {"switch": farm.topology.leaf_ids[0]}
        assert farm.metrics.value("farm_soil_poll_cache_hits_total",
                                  labels) > 0
        assert farm.metrics.value("farm_soil_polls_total", labels) > 0

    def test_capacity_contention_drops_whole_task(self):
        """C1: when a task's seeds cannot all be placed, none are."""
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        # ML seeds demand vCPU >= 1 and RAM >= 512 each; a 4-core/8GB
        # switch fits at most 4; submit HH first, then 8 ML tasks.
        for soil in farm.seeder.soils.values():
            register_ml_support(soil, iterations_cost=1e-5, dim=10)
        farm.submit(make_heavy_hitter_task())
        for index in range(8):
            farm.submit(make_ml_task(task_id=f"ml-{index}"))
        farm.settle()
        placed = farm.seeder.last_solution.placed_tasks
        assert "heavy-hitter" in placed
        assert len(placed) < 9  # some ML tasks had to be dropped entirely
        # every placed ML task has both seeds deployed (C1)
        for task_id in placed:
            seeds = farm.seeder.tasks[task_id].seeds
            assert all(seed.switch is not None for seed in seeds)


class TestFloodDefenderScenario:
    def test_full_state_cycle(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        task = make_flood_defender_task(miss_threshold=30,
                                        attacker_threshold=10,
                                        calm_windows=2,
                                        interval_s=0.01)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        # SDN-aimed DoS signature: few sources spraying many *new* flows
        # (table misses); a port scan is exactly that shape.
        from repro.net.traffic import PortScanWorkload
        flood = PortScanWorkload(num_ports_scanned=60,
                                 probe_rate_pps=5000)
        farm.start_workload(flood, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert task.harvester.attackers  # mitigation reported attackers
        switch = farm.fleet.get(leaf)
        # attack throttled: drop rules active while attack flows exist
        seeds = farm.seeder.tasks[task.task_id].seeds
        states = {s.current_state for s in seeds if s.switch == leaf}
        assert states <= {"mitigation", "recovery", "normal"}
        # stop the attack; defender must eventually recover
        for flow in flood.flows:
            flow.stop(at_time=farm.sim.now)
        farm.run(until=farm.sim.now + 2.0)
        assert task.harvester.recoveries >= 1
        leaf_states = {s.current_state for s in seeds if s.switch == leaf}
        assert leaf_states == {"normal"}
        assert switch.tcam.used("monitoring") == 0


class TestMlScenario:
    def test_predictions_flow_and_cpu_charged(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        for soil in farm.seeder.soils.values():
            register_ml_support(soil, iterations_cost=0.5e-3, dim=100)
        task = make_ml_task(accuracy_ms=10, iterations=2)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.1,
                                       churn_interval=None, seed=2)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 1.0)
        assert task.harvester.predictions
        # SVR predictions are finite floats from real numpy math.
        assert all(isinstance(v, float) and v == v
                   for _t, _sw, v in task.harvester.predictions)
        switch = farm.fleet.get(leaf)
        assert switch.cpu.mean_load_percent() > 5.0


class TestInheritedHhh:
    def test_inherited_variant_reports_groups(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        task = make_hierarchical_hh_task(threshold=5e6, accuracy_ms=10,
                                         inherited=True)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=20, hh_ratio=0.2,
                                       hh_rate_bps=1e8,
                                       churn_interval=None, seed=6)
        farm.start_workload(workload, leaf)
        farm.run(until=farm.sim.now + 0.5)
        # groups are port/8 buckets, aggregated from individual hitters
        truth_groups = {p // 8 for p in workload.true_heavy_ports()}
        assert truth_groups <= set(task.harvester.hierarchy_hits)
