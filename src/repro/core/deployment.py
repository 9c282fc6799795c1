"""One-call wiring of a complete FARM deployment.

Bundles simulator, topology, SDN controller, emulated switch fleet,
control bus, and seeder — the boilerplate every example, test, and
benchmark would otherwise repeat.
"""

from __future__ import annotations

from typing import Optional

from repro.core.chaos import FaultInjector
from repro.core.comm import ControlBus, SoilCommConfig
from repro.core.reliable import RetryPolicy
from repro.core.seeder import Seeder
from repro.core.soil import Soil
from repro.net.controller import SdnController
from repro.net.topology import Topology, spine_leaf
from repro.net.traffic import Workload
from repro.obs import Observability
from repro.obs.scarecrow import Scarecrow
from repro.obs.tsdb import Retention
from repro.sim.engine import Simulator
from repro.switchsim.chassis import ACCTON_AS5712, SwitchFleet, SwitchModel


class FarmDeployment:
    """A running FARM instance over an emulated data center."""

    def __init__(self, topology: Optional[Topology] = None,
                 switch_model: SwitchModel = ACCTON_AS5712,
                 soil_config: Optional[SoilCommConfig] = None,
                 solver: str = "heuristic",
                 retry_policy: Optional[RetryPolicy] = None,
                 trace: bool = False) -> None:
        self.sim = Simulator()
        # One registry + tracer for the whole deployment: the fleet's
        # resource models, the control bus, and everything hanging off the
        # bus (soils, seeder, harvesters, fault tolerance) share it.
        self.obs = Observability(self.sim, trace=trace)
        self.topology = topology if topology is not None else spine_leaf()
        self.controller = SdnController(self.topology)
        self.fleet = SwitchFleet.for_topology(self.sim, self.topology,
                                              model=switch_model,
                                              registry=self.obs.registry)
        self.bus = ControlBus(self.sim, registry=self.obs.registry,
                              tracer=self.obs.tracer)
        self.seeder = Seeder(self.sim, self.controller, self.fleet, self.bus,
                             soil_config=soil_config, solver=solver,
                             retry_policy=retry_policy)
        self.chaos: Optional[FaultInjector] = None
        self.scarecrow: Optional[Scarecrow] = None
        self.remediation = None

    @property
    def metrics(self):
        """The deployment-wide :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.obs.registry

    @property
    def tracer(self):
        return self.obs.tracer

    # -- convenience ---------------------------------------------------
    def soil(self, switch_id: int) -> Soil:
        return self.seeder.soils[switch_id]

    def enable_chaos(self, seed: int = 0) -> FaultInjector:
        """Attach a (deterministic) fault injector to the control bus."""
        if self.chaos is None:
            self.chaos = FaultInjector(self.sim, seed=seed)
            self.chaos.attach(self.bus)
        return self.chaos

    def enable_scarecrow(self, interval_s: float = 1.0,
                         retention: Optional[Retention] = None) -> Scarecrow:
        """Attach the self-monitoring pipeline: a periodic scraper over
        the deployment registry, feeding the sim-time TSDB and alert
        engine.  Everything the deployment publishes — bus, soils,
        seeder, fault tolerance, per-switch CPU/PCIe/TCAM — becomes
        queryable and dashboard-able.  Idempotent; returns the bundle so
        callers can ``add_rule`` / ``write_dashboard``.
        """
        if self.scarecrow is None:
            self.scarecrow = Scarecrow(self.sim, self.obs.registry,
                                       tracer=self.obs.tracer,
                                       interval_s=interval_s,
                                       retention=retention)
            self.scarecrow.start()
        return self.scarecrow

    def enable_remediation(self, fault_tolerance=None, config=None,
                           dry_run: bool = False):
        """Attach the closed-loop remediation engine to Scarecrow's alert
        lifecycle (enables Scarecrow if needed).  Policies are added by
        the caller; idempotent, returns the engine.
        """
        if self.remediation is None:
            from repro.remediation import RemediationEngine
            scarecrow = self.enable_scarecrow()
            self.remediation = RemediationEngine(
                self.seeder, fault_tolerance=fault_tolerance,
                config=config, dry_run=dry_run)
            self.remediation.attach(scarecrow)
        return self.remediation

    def start_workload(self, workload: Workload, switch_id: int) -> Workload:
        """Attach a workload's flows to one switch's ASIC."""
        workload.start(self.sim, self.fleet.get(switch_id).asic)
        return workload

    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def submit(self, definition, reoptimize: bool = True):
        return self.seeder.submit(definition, reoptimize=reoptimize)

    def settle(self, duration: float = 0.01) -> None:
        """Let deploy commands land (they have control-plane latency)."""
        self.sim.run(until=self.sim.now + duration)
