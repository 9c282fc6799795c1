"""FARM core runtime: seeds, soil, harvester, seeder, communication."""

from repro.core.chaos import FaultInjector, FaultRule, Partition
from repro.core.fault_tolerance import (
    FaultToleranceManager,
    fail_switch,
    recover_switch,
)
from repro.core.deployment import FarmDeployment
from repro.core.reliable import ReliableEndpoint, RetryPolicy
from repro.core.comm import (
    CommScheme,
    ControlBus,
    ExecutionMode,
    SoilCommConfig,
    seed_soil_cpu_cost,
    seed_soil_latency,
)
from repro.core.harvester import Harvester, SeedReport
from repro.core.seeder import ActiveTask, ManagedSeed, Seeder
from repro.core.soil import (
    DEFAULT_EVENT_CPU_S,
    SeedDeployment,
    Soil,
)
from repro.core.task import MachineConfig, TaskDefinition

__all__ = [
    "CommScheme", "ControlBus", "ExecutionMode", "SoilCommConfig",
    "seed_soil_cpu_cost", "seed_soil_latency",
    "Harvester", "SeedReport",
    "ActiveTask", "ManagedSeed", "Seeder",
    "DEFAULT_EVENT_CPU_S", "SeedDeployment", "Soil",
    "MachineConfig", "TaskDefinition",
    "FaultToleranceManager", "fail_switch", "recover_switch",
    "FarmDeployment",
    "FaultInjector", "FaultRule", "Partition",
    "ReliableEndpoint", "RetryPolicy",
]
