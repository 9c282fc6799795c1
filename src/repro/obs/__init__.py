"""Unified observability layer: metrics, tracing, and exporters.

One :class:`Observability` object per deployment bundles the two pillars —
a :class:`~repro.obs.metrics.MetricsRegistry` (always on; counters are one
float add) and a :class:`~repro.obs.trace.Tracer` (off by default; hot
paths guard on ``tracer.enabled`` so disabled tracing costs a branch).
:class:`~repro.core.deployment.FarmDeployment` creates one and threads it
through the control bus, seeder, soils, switches, and solvers; standalone
components fall back to a private registry so instrumentation never needs
a None-check.

Quick tour::

    farm = FarmDeployment(trace=True)
    ... run a scenario ...
    farm.obs.registry.value("farm_bus_messages_total")
    write_chrome_trace(farm.obs.tracer, "farm_trace.json")   # -> Perfetto

See ``docs/observability.md`` for the architecture and metric catalog.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.exporters import (
    parse_prometheus_text,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    freeze_labels,
)
from repro.obs.alerts import (
    FIRING,
    PENDING,
    RESOLVED,
    SCARECROW_TRACK,
    SUPPRESSED,
    AlertEvent,
    AlertManager,
    AlertRule,
    EwmaAnomalyRule,
    ThresholdRule,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.flamegraph import (
    render_flamegraph,
    to_collapsed,
    write_collapsed,
    write_flamegraph,
)
from repro.obs.profiler import (
    CostEntry,
    CostModel,
    FlightRecorder,
    ImbalanceReport,
    Profiler,
    ProfilingBundle,
    gini_coefficient,
)
from repro.obs.query import QueryEngine, Vector, parse_selector
from repro.obs.scarecrow import Scarecrow
from repro.obs.trace import MAX_TRACE_EVENTS, NULL_TRACER, Tracer
from repro.obs.tsdb import (
    SCRAPE_PRIORITY,
    Point,
    Retention,
    Scraper,
    Series,
    TimeSeriesStore,
    merge_points,
)


class Observability:
    """Shared registry + tracer pair for one deployment.

    ``sim`` (anything with a ``.now`` float) keys both pillars on
    simulation time; without it they fall back to a constant-zero clock,
    which is fine for unit tests of isolated components.
    """

    def __init__(self, sim: Optional[Any] = None, trace: bool = False,
                 max_trace_events: int = MAX_TRACE_EVENTS) -> None:
        clock: Optional[Callable[[], float]] = (
            (lambda: sim.now) if sim is not None else None)
        self.sim = sim
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, enabled=trace,
                             max_events=max_trace_events)


__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "CostEntry",
    "CostModel",
    "Counter",
    "EwmaAnomalyRule",
    "FIRING",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "ImbalanceReport",
    "MAX_TRACE_EVENTS",
    "MetricsRegistry",
    "NULL_TRACER",
    "Observability",
    "PENDING",
    "Point",
    "Profiler",
    "ProfilingBundle",
    "QueryEngine",
    "RESOLVED",
    "Retention",
    "SCARECROW_TRACK",
    "SCRAPE_PRIORITY",
    "SUPPRESSED",
    "Scarecrow",
    "Scraper",
    "Series",
    "ThresholdRule",
    "TimeSeriesStore",
    "Tracer",
    "Vector",
    "freeze_labels",
    "gini_coefficient",
    "merge_points",
    "parse_selector",
    "render_dashboard",
    "render_flamegraph",
    "to_collapsed",
    "write_collapsed",
    "write_dashboard",
    "write_flamegraph",
    "parse_prometheus_text",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
]
