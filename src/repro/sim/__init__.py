"""Discrete-event simulation kernel for the FARM reproduction."""

from repro.sim.engine import (
    MICROS,
    MILLIS,
    Event,
    PeriodicTimer,
    Simulator,
)

__all__ = [
    "MICROS",
    "MILLIS",
    "Event",
    "PeriodicTimer",
    "Simulator",
]
