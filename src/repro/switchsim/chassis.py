"""The switch chassis: ASIC + management CPU + PCIe bus + TCAM.

Hardware models mirror the four platforms of SVI-A.  A chassis exposes the
resource inventory the placement optimizer consumes (``ares(n, r)``):
vCPU cores, RAM (MB), monitoring TCAM entries, and PCIe polling capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SwitchError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.switchsim.asic import Asic
from repro.switchsim.cpu import ManagementCpu
from repro.switchsim.pcie import PcieBus
from repro.switchsim.tcam import Tcam

# Canonical resource-type names, used by Almanac's runtime library
# (res().vCPU etc.), the soil's accounting, and the placement model.
R_VCPU = "vCPU"
R_RAM = "RAM"
R_TCAM = "TCAM"
R_PCIE = "PCIe"

RESOURCE_TYPES = (R_VCPU, R_RAM, R_TCAM, R_PCIE)

#: PCIe polling capacity is expressed in KB/s units so that utility
#: expressions like ``10 / res().PCIe`` (List. 2) yield sane intervals.
PCIE_UNIT_BPS = 1000.0


@dataclass(frozen=True)
class SwitchModel:
    """Static hardware description of a switch platform."""

    name: str
    num_ports: int
    cpu_cores: int
    ram_mb: int
    tcam_entries: int
    line_rate_bps: float
    pcie_poll_bps: float = 1e6  # 8 Mbps, SVI-E-a
    os: str = "ONL"

    def available_resources(self) -> Dict[str, float]:
        """The ``ares(n, r)`` vector for this platform."""
        return {
            R_VCPU: float(self.cpu_cores),
            R_RAM: float(self.ram_mb),
            R_TCAM: float(int(self.tcam_entries * 0.25)),  # monitoring share
            R_PCIE: self.pcie_poll_bps / PCIE_UNIT_BPS,
        }


# The four evaluation platforms (SVI-A-a).
APS_BF2556X = SwitchModel(
    name="APS BF2556X-1T", num_ports=56, cpu_cores=8, ram_mb=32768,
    tcam_entries=4096, line_rate_bps=2.5e11, os="ONL")
ACCTON_AS5712 = SwitchModel(
    name="Accton AS5712", num_ports=54, cpu_cores=4, ram_mb=8192,
    tcam_entries=2048, line_rate_bps=1.25e10, os="ONL")
ACCTON_AS7712 = SwitchModel(
    name="Accton AS7712", num_ports=54, cpu_cores=4, ram_mb=16384,
    tcam_entries=2048, line_rate_bps=1.25e10, os="ONL")
ARISTA_7280QRA = SwitchModel(
    name="Arista 7280QRA-C36S", num_ports=36, cpu_cores=4, ram_mb=8192,
    tcam_entries=3072, line_rate_bps=1.25e10, os="EOS")

PLATFORMS = {
    model.name: model
    for model in (APS_BF2556X, ACCTON_AS5712, ACCTON_AS7712, ARISTA_7280QRA)
}


class Switch:
    """A full emulated switch tied to a topology node."""

    def __init__(self, sim: Simulator, switch_id: int,
                 model: SwitchModel = ACCTON_AS5712,
                 name: str = "",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.model = model
        self.name = name or f"{model.name}#{switch_id}"
        # One label set shared by every resource model of this chassis, so
        # a fleet-wide registry can slice per switch.
        self.metrics = registry or MetricsRegistry()
        labels = {"switch": switch_id}
        self.tcam = Tcam(capacity=model.tcam_entries, monitoring_share=0.25,
                         registry=self.metrics, labels=labels)
        self.asic = Asic(sim, num_ports=model.num_ports,
                         line_rate_bps=model.line_rate_bps, tcam=self.tcam,
                         name=f"sw{switch_id}.asic")
        self.pcie = PcieBus(sim, poll_capacity_bps=model.pcie_poll_bps,
                            name=f"sw{switch_id}.pcie",
                            registry=self.metrics, labels=labels)
        self.cpu = ManagementCpu(sim, num_cores=model.cpu_cores,
                                 name=f"sw{switch_id}.cpu",
                                 registry=self.metrics, labels=labels)

    def available_resources(self) -> Dict[str, float]:
        """Total resource inventory (before any seed allocations)."""
        return self.model.available_resources()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.switch_id} {self.model.name}>"


class SwitchFleet:
    """All emulated switches of a deployment, indexed by topology node id."""

    def __init__(self, sim: Simulator,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.metrics = registry or MetricsRegistry()
        self._switches: Dict[int, Switch] = {}

    def add(self, switch_id: int,
            model: SwitchModel = ACCTON_AS5712) -> Switch:
        if switch_id in self._switches:
            raise SwitchError(f"switch {switch_id} already exists")
        switch = Switch(self.sim, switch_id, model, registry=self.metrics)
        self._switches[switch_id] = switch
        return switch

    def get(self, switch_id: int) -> Switch:
        try:
            return self._switches[switch_id]
        except KeyError:
            raise SwitchError(f"unknown switch {switch_id}") from None

    def __contains__(self, switch_id: int) -> bool:
        return switch_id in self._switches

    def __iter__(self):
        return iter(sorted(self._switches.values(),
                           key=lambda sw: sw.switch_id))

    def __len__(self) -> int:
        return len(self._switches)

    @classmethod
    def for_topology(cls, sim: Simulator, topology,
                     model: SwitchModel = ACCTON_AS5712,
                     registry: Optional[MetricsRegistry] = None
                     ) -> "SwitchFleet":
        """One emulated switch per topology switch node."""
        fleet = cls(sim, registry=registry)
        for switch_id in topology.switch_ids:
            fleet.add(switch_id, model)
        return fleet
