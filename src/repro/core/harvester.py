"""Harvesters: per-task centralized analyzers (SII-C-a).

A harvester collects what its seeds pre-filter and takes global actions
when seed-local decision making is insufficient.  Subclass and override
:meth:`Harvester.on_seed_report`; use :meth:`send_to_seeds` to push
configuration (thresholds, reaction policies) back down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.comm import BusMessage, ControlBus
from repro.errors import DeploymentError
from repro.sim.engine import Simulator


@dataclass
class SeedReport:
    """One message received from a seed."""

    time: float
    seed_id: str
    switch: int
    value: Any


class Harvester:
    """Base class for task-specific centralized components."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.task_id: Optional[str] = None
        self.sim: Optional[Simulator] = None
        self.bus: Optional[ControlBus] = None
        self._seeder = None
        self.reports: List[SeedReport] = []
        #: Telemetry is fire-and-forget, so a chaotic bus may duplicate
        #: it; reports carry (switch, epoch, rseq) and are deduplicated.
        self._seen_reports: Dict[Tuple[str, int, float], Set[int]] = {}
        # Registry counters are created on attach (that's when the bus —
        # and with it the deployment's registry — becomes known).
        self._m_reports = None
        self._m_duplicates = None
        self.tracer = None

    # ------------------------------------------------------------------
    # Lifecycle (called by the seeder)
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator, bus: ControlBus, task_id: str,
               seeder) -> None:
        if self.task_id is not None:
            raise DeploymentError(
                f"harvester {self.name!r} already attached to "
                f"{self.task_id!r}")
        self.sim = sim
        self.bus = bus
        self.task_id = task_id
        self._seeder = seeder
        labels = {"task": task_id}
        self._m_reports = bus.metrics.counter(
            "farm_harvester_reports_total",
            "Seed reports accepted by the harvester.", labels=labels)
        self._m_duplicates = bus.metrics.counter(
            "farm_harvester_duplicates_total",
            "Duplicated seed reports discarded by (epoch, rseq) dedup.",
            labels=labels)
        self.tracer = bus.tracer
        bus.register(f"harvester/{task_id}", self._on_bus_message)
        self.on_attached()

    def detach(self) -> None:
        if self.bus is not None and self.task_id is not None:
            self.bus.unregister(f"harvester/{self.task_id}")
        self.task_id = None
        self._seeder = None

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _on_bus_message(self, message: BusMessage) -> None:
        payload = message.payload
        if not isinstance(payload, dict) or "value" not in payload:
            return
        rseq = payload.get("rseq")
        if rseq is not None:
            key = (str(payload.get("seed_id", "?")),
                   int(payload.get("switch", -1)),
                   float(payload.get("epoch", 0.0)))
            seen = self._seen_reports.setdefault(key, set())
            if rseq in seen:
                self._m_duplicates.inc()
                return
            seen.add(rseq)
        report = SeedReport(
            time=self.sim.now if self.sim else 0.0,
            seed_id=str(payload.get("seed_id", "?")),
            switch=int(payload.get("switch", -1)),
            value=payload["value"])
        self.reports.append(report)
        if self._m_reports is not None:
            self._m_reports.inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(f"harvest {report.seed_id}", track="harvester",
                           cat="lifecycle",
                           args={"trace_id": report.seed_id,
                                 "switch": report.switch})
        self.on_seed_report(report)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_attached(self) -> None:
        """Called once the harvester is wired to the bus."""

    def on_seed_report(self, report: SeedReport) -> None:
        """Called for every message a seed sends to this harvester."""

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def send_to_seeds(self, machine: str, value: Any,
                      dst: Optional[int] = None) -> int:
        """Send ``value`` to this task's seeds of ``machine``.

        ``dst`` restricts delivery to one switch; returns messages sent.
        """
        if self._seeder is None:
            raise DeploymentError(f"harvester {self.name!r} is not attached")
        return self._seeder.broadcast_to_seeds(
            self.task_id, machine, dst, value,
            source=f"harvester/{self.task_id}")

    def log(self, message: str) -> None:  # pragma: no cover - debug aid
        pass


class RecordingHarvester(Harvester):
    """A harvester that simply records reports (tests, simple tasks)."""

    def __init__(self, name: str = "",
                 callback: Optional[Callable[[SeedReport], None]] = None
                 ) -> None:
        super().__init__(name)
        self.callback = callback

    def on_seed_report(self, report: SeedReport) -> None:
        if self.callback is not None:
            self.callback(report)

    @property
    def values(self) -> List[Any]:
        return [report.value for report in self.reports]


class ThresholdHarvester(Harvester):
    """The HH-style harvester: pushes a threshold on attach and can adapt
    it at runtime (List. 2's ``recv long newTh from harvester``)."""

    def __init__(self, machine: str, threshold: float,
                 name: str = "") -> None:
        super().__init__(name or f"{machine}-threshold")
        self.machine = machine
        self.threshold = threshold

    def on_attached(self) -> None:
        self.send_to_seeds(self.machine, int(self.threshold))

    def update_threshold(self, threshold: float) -> int:
        """Dynamically adjust the detection threshold network-wide;
        returns the number of seeds that received it."""
        self.threshold = threshold
        return self.send_to_seeds(self.machine, int(threshold))
