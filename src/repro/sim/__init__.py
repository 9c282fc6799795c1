"""Discrete-event simulation kernel for the FARM reproduction."""

from repro.sim.engine import (
    MICROS,
    MILLIS,
    Event,
    PeriodicTimer,
    Simulator,
)
from repro.sim.resources import CapacityMeter

__all__ = [
    "MICROS",
    "MILLIS",
    "Event",
    "PeriodicTimer",
    "Simulator",
    "CapacityMeter",
]
