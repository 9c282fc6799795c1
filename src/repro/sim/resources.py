"""Capacity accounting for the switch emulator's *rate* resources.

:class:`CapacityMeter` covers PCIe polling bandwidth and ASIC fabric
capacity: demand is integrated over time and reported as utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator


@dataclass
class UtilizationSample:
    """A point-in-time utilization observation."""

    time: float
    used: float
    capacity: float

    @property
    def fraction(self) -> float:
        return self.used / self.capacity if self.capacity else 0.0


class CapacityMeter:
    """Tracks instantaneous demand against a fixed rate capacity.

    Demand is a sum of registered *flows* (e.g. each seed's polling rate in
    bytes/s).  Demand beyond capacity is allowed to be *requested* but the
    meter reports saturation — the paper's Fig. 8 shows exactly this: polling
    demand rises past the 8 Mbps PCIe ceiling while the ASIC is unfazed.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._demand = 0.0
        self._history: list[UtilizationSample] = []
        self._last_change = sim.now
        self._busy_integral = 0.0  # integral of min(demand, capacity) dt
        self._demand_integral = 0.0  # integral of raw demand dt

    # -- demand management ------------------------------------------------
    @property
    def demand(self) -> float:
        """Current requested rate (may exceed capacity)."""
        return self._demand

    @property
    def effective_throughput(self) -> float:
        """Current granted rate: demand clipped to capacity."""
        return min(self._demand, self.capacity)

    @property
    def saturated(self) -> bool:
        return self._demand > self.capacity

    @property
    def utilization(self) -> float:
        """Granted rate over capacity, in [0, 1]."""
        return self.effective_throughput / self.capacity

    @property
    def oversubscription(self) -> float:
        """Demand over capacity; > 1 means the resource is congested."""
        return self._demand / self.capacity

    def add_demand(self, rate: float) -> None:
        """Register ``rate`` additional units/s of demand."""
        if rate < 0:
            raise SimulationError(f"demand rate must be non-negative: {rate}")
        self._accumulate()
        self._demand += rate
        self._record()

    def remove_demand(self, rate: float) -> None:
        """Withdraw previously-registered demand."""
        self._accumulate()
        self._demand -= rate
        if self._demand < -1e-9:
            raise SimulationError(
                f"{self.name or 'meter'}: demand went negative ({self._demand})")
        self._demand = max(self._demand, 0.0)
        self._record()

    # -- time accounting ---------------------------------------------------
    def _accumulate(self) -> None:
        dt = self.sim.now - self._last_change
        if dt > 0:
            self._busy_integral += self.effective_throughput * dt
            self._demand_integral += self._demand * dt
        self._last_change = self.sim.now

    def _record(self) -> None:
        self._history.append(
            UtilizationSample(self.sim.now, self._demand, self.capacity))

    def mean_utilization(self, up_to: Optional[float] = None) -> float:
        """Time-averaged granted utilization since construction."""
        self._accumulate()
        horizon = (up_to if up_to is not None else self.sim.now)
        if horizon <= 0:
            return 0.0
        return self._busy_integral / (self.capacity * horizon)

    def mean_demand(self) -> float:
        """Time-averaged raw demand (units/s)."""
        self._accumulate()
        if self.sim.now <= 0:
            return 0.0
        return self._demand_integral / self.sim.now

    def history(self) -> list[UtilizationSample]:
        return list(self._history)

