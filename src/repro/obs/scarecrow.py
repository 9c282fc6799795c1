"""Scarecrow: the self-monitoring bundle (TSDB + scraper + alerts).

One object wires the whole pipeline::

    scarecrow = Scarecrow(sim, registry, tracer=obs.tracer)
    scarecrow.add_rule(ThresholdRule("parked-seeds",
                                     "farm_ft_parked_seeds",
                                     op=">", threshold=0.0))
    scarecrow.start()          # periodic scrapes on the DES kernel
    sim.run(until=120.0)
    scarecrow.write_dashboard("dashboard.html")

Every scrape (a) samples the registry into the sim-time TSDB and (b)
immediately evaluates the alert rules against the fresh data, so an
alert fires at most one scrape interval after its condition becomes
observable.  The watcher watches itself: scrape counts, sample counts,
and store size are published back into the same registry it scrapes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.obs.alerts import AlertEvent, AlertManager, AlertRule
from repro.obs.dashboard import write_dashboard
from repro.obs.metrics import MetricsRegistry
from repro.obs.query import QueryEngine
from repro.obs.trace import NULL_TRACER, Tracer
from repro.obs.tsdb import Retention, Scraper, TimeSeriesStore


class Scarecrow:
    """Embedded telemetry pipeline for one simulation run."""

    def __init__(self, sim, registry: MetricsRegistry,
                 tracer: Optional[Tracer] = None,
                 interval_s: float = 1.0,
                 retention: Optional[Retention] = None) -> None:
        self.sim = sim
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.store = TimeSeriesStore(retention=retention)
        self.scraper = Scraper(sim, registry, self.store,
                               interval_s=interval_s)
        self.engine = QueryEngine(self.store)
        self.alerts = AlertManager(self.engine, tracer=self.tracer,
                                   clock=lambda: sim.now)
        self.scraper.on_scrape.append(self._after_scrape)
        # Trace truncation is observable data: scrape the tracer's
        # dropped counter into the TSDB so rules can watch it.
        if self.tracer is not NULL_TRACER:
            self.scraper.collectors.append(self._collect_trace_health)

    def _collect_trace_health(self) -> Iterable[Tuple[str, dict, float]]:
        return [("farm_trace_dropped_total", {},
                 float(self.tracer.dropped))]

    def _after_scrape(self, now: float) -> None:
        self.alerts.evaluate(now)

    # -- configuration -----------------------------------------------------
    def add_rule(self, rule: AlertRule) -> AlertRule:
        return self.alerts.add_rule(rule)

    def feed_fault_tolerance(self, manager, label: str = "switch") -> None:
        self.alerts.feed_fault_tolerance(manager, label=label)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Scarecrow":
        self.scraper.start()
        return self

    def scrape_once(self) -> None:
        """One manual scrape + rule evaluation at the current sim time
        (useful to capture final state after ``sim.run`` returns)."""
        self.scraper.scrape_once()

    # -- reading -----------------------------------------------------------
    @property
    def log(self) -> List[AlertEvent]:
        return self.alerts.log

    def events_for(self, rule_name: str) -> List[AlertEvent]:
        return self.alerts.events_for(rule_name)

    def write_dashboard(self, path: str, **kwargs) -> None:
        kwargs.setdefault("tracer", self.tracer)
        write_dashboard(path, self.store, alerts=self.alerts, **kwargs)
