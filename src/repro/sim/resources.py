"""Capacity accounting for the switch emulator's *rate* resources.

:class:`CapacityMeter` covers PCIe polling bandwidth and ASIC fabric
capacity: registered demand against a fixed rate capacity.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class CapacityMeter:
    """Tracks instantaneous demand against a fixed rate capacity.

    Demand is a sum of registered *flows* (e.g. each seed's polling rate in
    bytes/s).  Demand beyond capacity is allowed to be *requested*; the
    oversubscription is what the paper's Fig. 8 shows — polling demand
    rises past the 8 Mbps PCIe ceiling while the ASIC is unfazed.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._demand = 0.0

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
        self._demand += rate

    def remove_demand(self, rate: float) -> None:
        """Withdraw previously-registered demand."""
        self._demand -= rate
        if self._demand < -1e-9:
            raise SimulationError(
                f"{self.name or 'meter'}: demand went negative ({self._demand})")
        self._demand = max(self._demand, 0.0)
