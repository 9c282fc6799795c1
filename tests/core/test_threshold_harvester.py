"""Harvester-pushed thresholds and seeder poll-demand derivation."""

import pytest

from repro.almanac.poly import RationalFunc
from repro.core.deployment import FarmDeployment
from repro.core.harvester import Harvester
from repro.net.topology import spine_leaf
from repro.net.traffic import HeavyHitterWorkload
from repro.tasks.heavy_hitter import ALMANAC_SOURCE, DEFAULT_HITTER_ACTION
from repro.core.task import TaskDefinition


class ThresholdHarvester(Harvester):
    """Pushes a threshold on attach and on demand (List. 2's ``recv long
    newTh from harvester``)."""

    def __init__(self, machine, threshold):
        super().__init__(f"{machine}-threshold")
        self.machine = machine
        self.threshold = threshold

    def on_attached(self):
        self.send_to_seeds(self.machine, int(self.threshold))

    def update_threshold(self, threshold):
        self.threshold = threshold
        return self.send_to_seeds(self.machine, int(threshold))


def hh_with_threshold_harvester(threshold):
    harvester = ThresholdHarvester("HH", threshold)
    return TaskDefinition.single_machine(
        task_id="hh-th", source=ALMANAC_SOURCE, machine_name="HH",
        externals={"threshold": int(threshold * 10),  # deliberately wrong
                   "accuracy": 10,
                   "hitterAction": dict(DEFAULT_HITTER_ACTION)},
        harvester=harvester), harvester


class TestThresholdHarvester:
    def test_update_overrides_deployment_default(self):
        """The harvester's runtime threshold beats the external default
        (List. 2's dynamic-threshold story)."""
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        task, harvester = hh_with_threshold_harvester(5e6)
        farm.submit(task)
        farm.settle()
        leaf = farm.topology.leaf_ids[0]
        workload = HeavyHitterWorkload(num_ports=10, hh_ratio=0.1,
                                       hh_rate_bps=1e7,  # 10 MB/s heavy
                                       churn_interval=None, seed=1)
        farm.start_workload(workload, leaf)
        # External threshold is 50 MB/s: nothing detected yet.
        farm.run(until=farm.sim.now + 0.3)
        assert len(harvester.reports) == 0
        # Harvester pushes its 5 MB/s threshold: detection begins.
        sent = harvester.update_threshold(5e6)
        assert sent == 2  # both deployed seeds received it
        farm.run(until=farm.sim.now + 0.3)
        assert len(harvester.reports) > 0

    def test_attach_time_push_is_harmless_without_seeds(self):
        # on_attached fires before any seed is deployed; must not raise.
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        task, harvester = hh_with_threshold_harvester(1e6)
        farm.submit(task)
        farm.settle()
        assert harvester.threshold == 1e6


class TestSeederPollDemands:
    def test_poll_demand_matches_analysis(self):
        """The seeder derives PollDemand (inverse interval + subjects) from
        the blueprint; check the HH seed's 10/PCIe interval maps to the
        PCIe/10 inverse with an all-ports subject."""
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        task, _harvester = hh_with_threshold_harvester(1e6)
        farm.submit(task)
        problem = farm.seeder.build_problem()
        seed_spec = problem.all_seeds()[0]
        assert len(seed_spec.poll_demands) == 1
        demand = seed_spec.poll_demands[0]
        num_ports = farm.fleet.get(seed_spec.candidates[0]).asic.num_ports
        assert demand.weight == num_ports
        assert len(demand.subject) == num_ports
        # ival = 10/PCIe -> inverse = PCIe/10
        assert demand.inv_interval.coeffs == {"PCIe": pytest.approx(0.1)}

    def test_only_analysis_errors_pin_the_interval(self, monkeypatch):
        # A non-linear 1/ival raises AlmanacAnalysisError and is pinned to
        # the interval at zero resources; any other exception is a bug
        # and must surface instead of becoming a silently pinned demand.
        def broken(self):
            raise ZeroDivisionError("bug in the interval analysis")

        monkeypatch.setattr(RationalFunc, "inverse_linear", broken)
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        task, _harvester = hh_with_threshold_harvester(1e6)
        with pytest.raises(ZeroDivisionError):
            farm.submit(task)

    def test_alpha_poll_derived_from_counter_size(self):
        from repro.switchsim.chassis import PCIE_UNIT_BPS
        from repro.switchsim.pcie import BYTES_PER_COUNTER
        farm = FarmDeployment(topology=spine_leaf(1, 1, 0))
        task, _h = hh_with_threshold_harvester(1e6)
        farm.submit(task)
        problem = farm.seeder.build_problem()
        for switch in problem.switches:
            assert problem.alpha(switch) == pytest.approx(
                BYTES_PER_COUNTER / PCIE_UNIT_BPS)
