"""Tests for capacity meters."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import CapacityMeter


class TestCapacityMeter:
    def test_demand_tracks_adds_and_removes(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 100.0)
        meter.add_demand(30.0)
        meter.add_demand(20.0)
        assert meter.demand == 50.0
        meter.remove_demand(30.0)
        assert meter.demand == 20.0

    def test_saturation_and_oversubscription(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 100.0)
        meter.add_demand(150.0)
        assert meter.saturated
        assert meter.oversubscription == pytest.approx(1.5)
        assert meter.effective_throughput == 100.0
        assert meter.utilization == 1.0

    def test_mean_utilization_time_weighted(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 100.0)
        meter.add_demand(50.0)
        sim.run(until=10.0)
        # 50% for the full horizon
        assert meter.mean_utilization() == pytest.approx(0.5)

    def test_mean_utilization_with_step_change(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 100.0)
        meter.add_demand(100.0)
        sim.schedule(5.0, meter.remove_demand, 100.0)
        sim.run(until=10.0)
        assert meter.mean_utilization() == pytest.approx(0.5)

    def test_mean_demand_includes_oversubscription(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 100.0)
        meter.add_demand(200.0)
        sim.run(until=10.0)
        assert meter.mean_demand() == pytest.approx(200.0)
        assert meter.mean_utilization() == pytest.approx(1.0)

    def test_negative_demand_rejected(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 10.0)
        with pytest.raises(SimulationError):
            meter.add_demand(-1.0)
        meter.add_demand(5.0)
        with pytest.raises(SimulationError):
            meter.remove_demand(6.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            CapacityMeter(Simulator(), 0.0)

    def test_history_records_changes(self):
        sim = Simulator()
        meter = CapacityMeter(sim, 10.0)
        meter.add_demand(1.0)
        meter.add_demand(2.0)
        history = meter.history()
        assert [s.used for s in history] == [1.0, 3.0]
        assert history[-1].fraction == pytest.approx(0.3)

