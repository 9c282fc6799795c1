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
        assert meter.oversubscription == pytest.approx(1.5)
        assert meter.effective_throughput == 100.0
        assert meter.utilization == 1.0

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
