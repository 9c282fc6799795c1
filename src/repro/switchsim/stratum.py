"""Driver abstraction between the control plane and the ASIC ([IND]).

FARM implements two drivers (SV-A-a): one for Stratum (ONL switches) and one
for Arista's EOS SDK.  Both expose the same interface; the soil is written
against :class:`SwitchDriver` only, which is what makes FARM deployable
across vendors.  Every operation crosses the PCIe bus and returns
``(result, latency)`` so callers can schedule delivery at the right time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SwitchError
from repro.net.filters import Filter
from repro.net.packet import ProbeBatch
from repro.switchsim.asic import PortStats, RuleStats
from repro.switchsim.chassis import Switch
from repro.switchsim.tcam import TcamRule


class SwitchDriver:
    """Common driver interface (modeled on Stratum's P4Runtime services)."""

    #: Extra software latency added by the driver stack per call.
    CALL_OVERHEAD_S = 20e-6

    def __init__(self, switch: Switch) -> None:
        self.switch = switch
        self.calls = 0

    # ------------------------------------------------------------------
    # Statistics polling
    # ------------------------------------------------------------------
    def read_port_counters(
            self, ports: Optional[Sequence[int]] = None,
    ) -> Tuple[List[PortStats], float]:
        """Poll port counters; returns (stats, PCIe+driver latency).

        ``ports=None`` reads every port in one batched transaction — this
        batching is exactly the aggregation lever the soil exploits.
        """
        self.calls += 1
        if ports is None:
            ports = range(self.switch.asic.num_ports)
        else:
            ports = list(ports)
        # One array pass over the attachment table instead of a per-port
        # scan; bit-identical to the scalar loop (see Asic docstring).
        stats = self.switch.asic.read_port_stats_batch(ports)
        latency = self.switch.pcie.poll_counters(len(stats))
        return stats, latency + self.CALL_OVERHEAD_S

    def read_rule_counters(
            self, rule_ids: Sequence[int]) -> Tuple[List[RuleStats], float]:
        """Poll TCAM rule hit counters."""
        self.calls += 1
        stats = [self.switch.asic.read_rule_stats(rid) for rid in rule_ids]
        latency = self.switch.pcie.poll_counters(len(stats))
        return stats, latency + self.CALL_OVERHEAD_S

    # ------------------------------------------------------------------
    # Packet sampling (probing)
    # ------------------------------------------------------------------
    def sample_packets(self, fil: Filter,
                       max_packets: int = 16) -> Tuple[ProbeBatch, float]:
        """Pull packet samples matching ``fil`` up to the CPU."""
        self.calls += 1
        batch = self.switch.asic.sample_packets(fil, max_packets)
        latency = self.switch.pcie.sample_packets(max(len(batch), 1))
        return batch, latency + self.CALL_OVERHEAD_S

    # ------------------------------------------------------------------
    # Table management (reactions)
    # ------------------------------------------------------------------
    def write_table_entry(self, rule: TcamRule) -> Tuple[int, float]:
        """Install a TCAM rule; returns (rule id, latency)."""
        self.calls += 1
        rule_id = self.switch.tcam.install(rule, now=self.switch.sim.now)
        latency = self.switch.pcie.transfer(128)
        return rule_id, latency + self.CALL_OVERHEAD_S

    def delete_table_entry(self, rule_id: int) -> Tuple[TcamRule, float]:
        """Remove a TCAM rule by id."""
        self.calls += 1
        rule = self.switch.tcam.remove(rule_id)
        latency = self.switch.pcie.transfer(64)
        return rule, latency + self.CALL_OVERHEAD_S

    def get_table_entry(self, fil: Filter) -> Optional[TcamRule]:
        """Look up an installed rule by exact pattern (no bus crossing:
        the driver caches the table shadow like Stratum does)."""
        return self.switch.tcam.find(fil)


class StratumDriver(SwitchDriver):
    """Stratum/P4Runtime driver for ONL platforms (Tofino, Accton)."""

    CALL_OVERHEAD_S = 20e-6

    def __init__(self, switch: Switch) -> None:
        if switch.model.os != "ONL":
            raise SwitchError(
                f"StratumDriver requires an ONL platform, got {switch.model.os}")
        super().__init__(switch)


class EosSdkDriver(SwitchDriver):
    """Arista EOS SDK driver; slightly heavier per-call software stack."""

    CALL_OVERHEAD_S = 35e-6

    def __init__(self, switch: Switch) -> None:
        if switch.model.os != "EOS":
            raise SwitchError(
                f"EosSdkDriver requires an EOS platform, got {switch.model.os}")
        super().__init__(switch)


def driver_for(switch: Switch) -> SwitchDriver:
    """Pick the right driver for a platform, like FARM's deployment does."""
    if switch.model.os == "EOS":
        return EosSdkDriver(switch)
    return StratumDriver(switch)
