"""sFlow [2]: the collection-centric baseline.

Agents sample packets (and export counters) at a fixed period and forward
*everything* to a central collector without local filtering or analysis —
"sFlow uses minimal switch-local processing or triage, performing all
analysis on [the collector]" (SVII).  The collector rebuilds per-port rate
estimates and detects heavy hitters on its own analysis schedule.

Cost structure (what Figs. 4/5 and Tab. 4 measure):

* every probe period, each agent ships one report per port over the
  control network — load grows linearly with ports x probe rate;
* the agent's CPU cost is per-sample and flow-count independent (its CPU
  line in Fig. 5 is flat);
* detection waits for collector analysis, so latency ~ probe period +
  transfer + collector batch interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.comm import ControlBus
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.cpu import estimate_invocation_load
from repro.switchsim.stratum import SwitchDriver

#: Agent CPU cost per exported sample (encapsulate + ship, no analysis).
SFLOW_CPU_PER_SAMPLE_S = 8e-6

#: Wire size of one sFlow sample record (flow sample + counter record).
SFLOW_SAMPLE_BYTES = 128


class SflowAgent:
    """Per-switch sampling agent: polls counters, forwards raw reports."""

    def __init__(self, sim: Simulator, switch: Switch, driver: SwitchDriver,
                 bus: ControlBus, collector_endpoint: str,
                 probe_period_s: float = 0.001,
                 monitored_ports: Optional[List[int]] = None) -> None:
        self.sim = sim
        self.switch = switch
        self.driver = driver
        self.bus = bus
        self.collector_endpoint = collector_endpoint
        self.probe_period_s = probe_period_s
        self.monitored_ports = (list(monitored_ports)
                                if monitored_ports is not None
                                else list(range(switch.asic.num_ports)))
        self.samples_sent = 0
        self._timer = sim.every(probe_period_s, self._export,
                                label=f"sflow@{switch.switch_id}")
        # Flat standing CPU load: per-sample shipping work at the probe
        # rate, one record per monitored port.
        load = estimate_invocation_load(
            len(self.monitored_ports) / probe_period_s,
            SFLOW_CPU_PER_SAMPLE_S)
        switch.cpu.set_standing_load("sflow-agent", load)
        # The samples cross the PCIe path too.
        switch.pcie.register_poller(
            "sflow-agent",
            len(self.monitored_ports) * SFLOW_SAMPLE_BYTES / probe_period_s)

    def _export(self) -> None:
        stats, latency = self.driver.read_port_counters(self.monitored_ports)
        for stat in stats:
            self.samples_sent += 1
            self.bus.send(
                f"sflow/{self.switch.switch_id}", self.collector_endpoint,
                {"switch": self.switch.switch_id, "port": stat.port,
                 "tx_bytes": stat.tx_bytes, "time": stat.time},
                size_bytes=SFLOW_SAMPLE_BYTES,
                extra_latency_s=latency)


@dataclass
class _PortState:
    last_bytes: float = 0.0
    last_time: float = 0.0
    rate_bps: float = 0.0


class SflowCollector:
    """Central collector: rate estimation + threshold detection.

    Analysis runs every ``analysis_interval_s`` over all received samples
    — the logically centralized step that bounds responsiveness.
    """

    def __init__(self, sim: Simulator, bus: ControlBus,
                 hh_threshold_bps: float,
                 analysis_interval_s: float = 0.1,
                 endpoint: str = "sflow-collector",
                 cpu_per_sample_s: float = 2e-6) -> None:
        self.sim = sim
        self.bus = bus
        self.endpoint = endpoint
        self.hh_threshold_bps = hh_threshold_bps
        self.analysis_interval_s = analysis_interval_s
        self.cpu_per_sample_s = cpu_per_sample_s
        self._ports: Dict[Tuple[int, int], _PortState] = {}
        self._pending = 0
        self.samples_received = 0
        self.cpu_seconds = 0.0
        self.detections: List[Tuple[float, int, int]] = []
        self._detected: Set[Tuple[int, int]] = set()
        bus.register(endpoint, self._on_sample)
        sim.every(analysis_interval_s, self._analyze, label="sflow-analysis")

    def _on_sample(self, message) -> None:
        payload = message.payload
        self.samples_received += 1
        self._pending += 1
        key = (payload["switch"], payload["port"])
        state = self._ports.setdefault(key, _PortState())
        dt = payload["time"] - state.last_time
        if dt > 0:
            state.rate_bps = (payload["tx_bytes"] - state.last_bytes) / dt
        state.last_bytes = payload["tx_bytes"]
        state.last_time = payload["time"]

    def _analyze(self) -> None:
        # Centralized analysis cost grows with sample volume.
        self.cpu_seconds += self._pending * self.cpu_per_sample_s
        self._pending = 0
        for key, state in self._ports.items():
            if state.rate_bps >= self.hh_threshold_bps:
                if key not in self._detected:
                    self._detected.add(key)
                    self.detections.append((self.sim.now, key[0], key[1]))
            else:
                self._detected.discard(key)

    def first_detection_time(self) -> Optional[float]:
        return self.detections[0][0] if self.detections else None


class SflowDeployment:
    """Agents on every switch + one collector, ready to measure."""

    def __init__(self, sim: Simulator, switches: List[Tuple[Switch, SwitchDriver]],
                 bus: ControlBus, hh_threshold_bps: float,
                 probe_period_s: float = 0.001,
                 analysis_interval_s: float = 0.1) -> None:
        self.collector = SflowCollector(
            sim, bus, hh_threshold_bps,
            analysis_interval_s=analysis_interval_s)
        self.agents = [
            SflowAgent(sim, switch, driver, bus, self.collector.endpoint,
                       probe_period_s=probe_period_s)
            for switch, driver in switches]
