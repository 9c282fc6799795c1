"""PCIe bus model between the management CPU and the ASIC.

SVI-E-a: "The PCIe bus capacity for polling traffic statistics is limited to
8 Mbps on both tested switches while their ASICs support 100 Gbps (i.e., a
1:12500 ratio)."  Every statistics poll and packet sample crosses this bus,
making it *the* bottleneck that polling aggregation exists to relieve.

The model charges each transfer a size (bytes) and computes its latency from
queueing-theoretic congestion: latency grows as offered load approaches
capacity and transfers stall once the bus saturates.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.errors import SwitchError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.resources import CapacityMeter

#: Paper-measured polling capacity: 8 Mbps = 1e6 bytes/s.
DEFAULT_POLL_CAPACITY_BPS = 1e6

#: Bytes transferred per polled counter (compact batched counter DMA).
#: At 8 B, polling all 54 ports of an AS5712 every 1 ms moves 432 KB/s —
#: inside the 8 Mbps (1 MB/s) budget with headroom, so a single 1 ms-
#: accuracy HH seed works (SVI-C) while dozens of seeds polling distinct
#: subjects still congest the bus (Fig. 8).
BYTES_PER_COUNTER = 8

#: Bytes transferred per sampled packet (truncated header sample).
BYTES_PER_SAMPLE = 256

#: Fixed per-transaction setup latency (doorbell + DMA setup).
TRANSACTION_OVERHEAD_S = 10e-6

class PcieBus:
    """Shared management-path bus with explicit capacity accounting.

    Two views are maintained:

    * **standing demand** — periodic pollers register their steady-state
      byte rate; the meter's oversubscription is what Fig. 8 plots.
    * **per-transfer latency** — individual transactions are charged a
      latency that includes an M/M/1-style congestion factor, so seed
      detection latency degrades gracefully as the bus fills up.
    """

    def __init__(self, sim: Simulator,
                 poll_capacity_bps: float = DEFAULT_POLL_CAPACITY_BPS,
                 name: str = "pcie",
                 registry: Optional[MetricsRegistry] = None,
                 labels: Optional[Mapping[str, Any]] = None) -> None:
        self.sim = sim
        self.name = name
        self.meter = CapacityMeter(sim, poll_capacity_bps,
                                   name=f"{name}.poll")
        self._standing: Dict[str, float] = {}
        self.metrics = registry or MetricsRegistry()
        self._m_bytes = self.metrics.counter(
            "farm_pcie_bytes_total",
            "Bytes moved across the management PCIe bus.", labels=labels)
        self._m_transfers = self.metrics.counter(
            "farm_pcie_transfers_total",
            "Completed PCIe transactions.", labels=labels)
        self._g_demand = self.metrics.gauge(
            "farm_pcie_standing_demand_bps",
            "Registered standing polling demand in bytes/s.", labels=labels)

    # ------------------------------------------------------------------
    # Standing (periodic) demand registration
    # ------------------------------------------------------------------
    def register_poller(self, key: str, rate_bps: float) -> None:
        """Declare a periodic poller consuming ``rate_bps`` bytes/s.

        Re-registering under the same key replaces the old rate (seeds
        adjust their polling periods dynamically).
        """
        if rate_bps < 0:
            raise SwitchError(f"poller rate must be non-negative: {rate_bps}")
        old = self._standing.get(key, 0.0)
        if rate_bps > old:
            self.meter.add_demand(rate_bps - old)
        elif rate_bps < old:
            self.meter.remove_demand(old - rate_bps)
        self._standing[key] = rate_bps
        self._g_demand.set(self.standing_demand_bps)

    def unregister_poller(self, key: str) -> None:
        old = self._standing.pop(key, 0.0)
        if old:
            self.meter.remove_demand(old)
        self._g_demand.set(self.standing_demand_bps)

    @property
    def standing_demand_bps(self) -> float:
        return sum(self._standing.values())

    @property
    def oversubscription(self) -> float:
        """Offered/available; > 1 means the bus cannot keep up (Fig. 8)."""
        return self.meter.oversubscription

    # ------------------------------------------------------------------
    # Individual transfers
    # ------------------------------------------------------------------
    def transfer_latency(self, nbytes: int) -> float:
        """Latency for moving ``nbytes`` across the bus *right now*.

        Base service time is ``nbytes / capacity``; a congestion factor
        ``1 / (1 - rho)`` (capped) models queueing behind standing pollers.
        """
        if nbytes < 0:
            raise SwitchError(f"transfer size must be non-negative: {nbytes}")
        capacity = self.meter.capacity
        service = nbytes / capacity
        rho = min(self.meter.oversubscription, 0.99)
        congestion = 1.0 / (1.0 - rho) if rho < 0.99 else 100.0
        return TRANSACTION_OVERHEAD_S + service * congestion

    def transfer(self, nbytes: int) -> float:
        """Execute a transfer; returns its latency and counts it."""
        latency = self.transfer_latency(nbytes)
        self._m_bytes.inc(nbytes)
        self._m_transfers.inc()
        return latency

    def poll_counters(self, num_counters: int) -> float:
        """Transfer latency for polling ``num_counters`` statistics."""
        return self.transfer(num_counters * BYTES_PER_COUNTER)

    def sample_packets(self, num_samples: int) -> float:
        """Transfer latency for moving ``num_samples`` packet samples up."""
        return self.transfer(num_samples * BYTES_PER_SAMPLE)
