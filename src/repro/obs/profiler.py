"""Surveyor: continuous profiling and cost attribution for the DES kernel.

The simulator instruments everything *except itself*; this module closes
that gap.  A :class:`Profiler` installs into
:meth:`repro.sim.engine.Simulator.set_profiler` and charges the
wall-clock of every dispatched event to a ``(component, switch_id,
seed_id, label)`` **cost key** carried on the event (components pass a
precomputed shared tuple at schedule time, so disabled profiling costs
one kernel branch and nothing else).

Attribution is exact, and its clock-read contract is one
``perf_counter_ns`` call per dispatch, plus an anchor read at the first
dispatch after a start or :meth:`Profiler.reanchor`; a stopped profiler
reads no clock.  Each
event is charged the delta since the previous dispatch finished, so
kernel overhead (heap pops, pushes the callback performed, tombstone
compaction) lands on the event that incurred it and the attributed
total is exactly the last clock read minus the first — the wall-clock
of the profiled run (asserted under a fake clock in
``tests/obs/test_profiler.py``).

Profiling never touches sim-time, event ordering, or seed state: the
simulator's outputs are bit-identical with profiling off and on
(asserted in ``tests/obs/test_profiler.py``).

On top of the raw attribution:

* :class:`CostModel` aggregates per-key costs into per-switch /
  per-seed / per-component totals, top-k hot sets, and an
  :class:`ImbalanceReport` — per-switch cost shares, Gini coefficient,
  and max/mean skew: exactly the numbers a shard partitioner needs (see
  the sharding item in ROADMAP.md).
* :class:`FlightRecorder` keeps a bounded ring of recent trace events
  plus periodic registry snapshots and dumps a postmortem bundle on
  request.
* :class:`ProfilingBundle` wires all of it onto one simulator and its
  :class:`~repro.obs.Observability` (``repro.eval.run_profile`` builds
  one).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Cost key charged to events that carry none (legacy schedulers, ad-hoc
#: callbacks).  The label falls back to the event label at dispatch time.
KERNEL_COMPONENT = "kernel"


class Profiler:
    """Dispatch-level cost attribution for one :class:`Simulator`.

    >>> profiler = Profiler(sim)
    >>> profiler.start()
    >>> sim.run(until=10.0)
    >>> model = profiler.cost_model()
    >>> model.top_switches(3)

    Switch off with :meth:`stop` (which uninstalls from the kernel,
    restoring the plain-dispatch fast path bit-for-bit).  ``mode`` accepts
    only ``"exact"``, the one way Surveyor measures.
    """

    __slots__ = ("sim", "costs", "_last_ns", "_fallback_keys")

    def __init__(self, sim: Any, mode: str = "exact") -> None:
        if mode != "exact":
            raise ValueError(f"unknown profiler mode {mode!r}")
        self.sim = sim
        #: ``{cost_key: [ns, fires]}`` accumulators.
        self.costs: Dict[tuple, List[int]] = {}
        self._last_ns: Optional[int] = None
        self._fallback_keys: Dict[str, tuple] = {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return getattr(self.sim, "_profiler", None) is self

    def start(self) -> "Profiler":
        """Install into the kernel; begins attributing at the next event."""
        self._last_ns = None
        self.sim.set_profiler(self)
        return self

    def stop(self) -> None:
        """Uninstall from the kernel.  Collected costs are kept."""
        if self.enabled:
            self.sim.set_profiler(None)

    def reanchor(self) -> None:
        """Forget the previous dispatch timestamp.

        Call between ``sim.run`` invocations so host-side time spent
        outside the kernel (test setup, report rendering) is not charged
        to the first event of the next run.
        """
        self._last_ns = None

    # -- hot path ----------------------------------------------------------
    def _key_for(self, event: Any) -> tuple:
        key = event.cost_key
        if key is not None:
            return key
        label = event.label
        key = self._fallback_keys.get(label)
        if key is None:
            key = (KERNEL_COMPONENT, None, None, label or "event")
            self._fallback_keys[label] = key
        return key

    def dispatch(self, event: Any) -> None:
        last = self._last_ns
        if last is None:
            last = perf_counter_ns()
        event.callback(*event.args)
        now = perf_counter_ns()
        self._last_ns = now
        entry = self.costs.get(self._key_for(event))
        if entry is None:
            self.costs[self._key_for(event)] = [now - last, 1]
        else:
            entry[0] += now - last
            entry[1] += 1

    # -- reading -----------------------------------------------------------
    @property
    def dispatches(self) -> int:
        """Total dispatches seen while enabled: every one lands in exactly
        one accumulator."""
        return sum(entry[1] for entry in self.costs.values())

    def cost_model(self) -> "CostModel":
        """Freeze the current accumulators into an aggregate view."""
        return CostModel(dict(self.costs), dispatches=self.dispatches)


@dataclass
class CostEntry:
    """One attributed cost key."""

    component: Optional[str]
    switch: Optional[Any]
    seed: Optional[str]
    label: str
    ns: int
    events: int

    @property
    def key(self) -> tuple:
        return (self.component, self.switch, self.seed, self.label)


@dataclass
class ImbalanceReport:
    """Per-switch load skew — the input a shard partitioner balances.

    ``shares`` maps each switch to its fraction of all switch-attributed
    cost (they sum to 1.0 by construction).  ``gini`` is 0 for a
    perfectly balanced fleet and approaches 1 as cost concentrates on
    one switch; ``max_mean_skew`` is the hottest switch's cost over the
    fleet mean (1.0 = balanced).  ``attributed_fraction`` reports how
    much of the total profiled cost carried a switch id at all.
    """

    per_switch_ns: Dict[Any, int] = field(default_factory=dict)
    shares: Dict[Any, float] = field(default_factory=dict)
    gini: float = 0.0
    max_mean_skew: float = 0.0
    attributed_fraction: float = 0.0

    def top(self, k: int = 5) -> List[Tuple[Any, int, float]]:
        """The ``k`` hottest switches as ``(switch, ns, share)``."""
        order = sorted(self.per_switch_ns.items(),
                       key=lambda item: (-item[1], str(item[0])))
        return [(switch, ns, self.shares[switch])
                for switch, ns in order[:k]]

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "per_switch_ns": {str(k): v
                              for k, v in sorted(self.per_switch_ns.items(),
                                                 key=lambda i: str(i[0]))},
            "shares": {str(k): v
                       for k, v in sorted(self.shares.items(),
                                          key=lambda i: str(i[0]))},
            "gini": self.gini,
            "max_mean_skew": self.max_mean_skew,
            "attributed_fraction": self.attributed_fraction,
        }


def gini_coefficient(values: List[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = equal)."""
    n = len(values)
    if n == 0:
        return 0.0
    total = float(sum(values))
    if total <= 0.0:
        return 0.0
    ordered = sorted(values)
    # Standard rank formula: G = (2*sum(i*x_i)/(n*total)) - (n+1)/n.
    weighted = sum(rank * value
                   for rank, value in enumerate(ordered, start=1))
    return max(0.0, 2.0 * weighted / (n * total) - (n + 1) / n)


class CostModel:
    """Aggregated view over a profiler's cost accumulators."""

    def __init__(self, costs: Dict[tuple, List[int]],
                 dispatches: int = 0) -> None:
        self.dispatches = dispatches
        self.entries: List[CostEntry] = [
            CostEntry(component=key[0], switch=key[1], seed=key[2],
                      label=key[3], ns=ns, events=fires)
            for key, (ns, fires) in costs.items()]
        self.entries.sort(key=lambda e: (-e.ns, str(e.key)))

    # -- totals ------------------------------------------------------------
    @property
    def total_ns(self) -> int:
        return sum(entry.ns for entry in self.entries)

    @property
    def total_events(self) -> int:
        return sum(entry.events for entry in self.entries)

    def coverage(self, wall_s: float) -> float:
        """Fraction of a measured wall-clock the attribution explains."""
        if wall_s <= 0.0:
            return 0.0
        return self.total_ns / (wall_s * 1e9)

    def _group(self, field_of: Callable[[CostEntry], Any]
               ) -> Dict[Any, int]:
        out: Dict[Any, int] = {}
        for entry in self.entries:
            group = field_of(entry)
            if group is None:
                continue
            out[group] = out.get(group, 0) + entry.ns
        return out

    def by_switch(self) -> Dict[Any, int]:
        return self._group(lambda e: e.switch)

    def by_seed(self) -> Dict[str, int]:
        return self._group(lambda e: e.seed)

    def by_component(self) -> Dict[str, int]:
        return self._group(lambda e: e.component)

    def _top(self, groups: Dict[Any, int], k: int
             ) -> List[Tuple[Any, int]]:
        return sorted(groups.items(),
                      key=lambda item: (-item[1], str(item[0])))[:k]

    def top_switches(self, k: int = 5) -> List[Tuple[Any, int]]:
        """The ``k`` most expensive switches as ``(switch_id, ns)``."""
        return self._top(self.by_switch(), k)

    def top_seeds(self, k: int = 5) -> List[Tuple[str, int]]:
        """The ``k`` most expensive seeds as ``(seed_id, ns)``."""
        return self._top(self.by_seed(), k)

    # -- imbalance ---------------------------------------------------------
    def imbalance_report(self) -> ImbalanceReport:
        per_switch = self.by_switch()
        switch_total = sum(per_switch.values())
        total = self.total_ns
        if not per_switch or switch_total <= 0:
            return ImbalanceReport()
        shares = {switch: ns / switch_total
                  for switch, ns in per_switch.items()}
        values = [float(ns) for ns in per_switch.values()]
        mean = switch_total / len(values)
        return ImbalanceReport(
            per_switch_ns=dict(per_switch),
            shares=shares,
            gini=gini_coefficient(values),
            max_mean_skew=max(values) / mean if mean > 0 else 0.0,
            attributed_fraction=(switch_total / total) if total else 0.0,
        )

    def to_jsonable(self) -> Dict[str, Any]:
        """JSON-able summary (postmortem bundles, BENCH artifacts)."""
        return {
            "dispatches": self.dispatches,
            "total_ns": self.total_ns,
            "total_events": self.total_events,
            "entries": [
                {"component": e.component,
                 "switch": None if e.switch is None else str(e.switch),
                 "seed": e.seed, "label": e.label,
                 "ns": e.ns, "events": e.events}
                for e in self.entries],
            "imbalance": self.imbalance_report().to_jsonable(),
        }


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

#: Default bound on the ring of recent trace events.
DEFAULT_RING_CAPACITY = 2048

#: Default bound on retained registry snapshots.
DEFAULT_SNAPSHOT_RING = 8


class FlightRecorder:
    """Bounded black box: recent trace events + registry snapshots.

    Taps the tracer's emit path into a ring buffer.  If tracing was off,
    the tracer is switched to **ring-only** mode (events are generated
    and fed to the ring but not buffered in ``tracer.events``), so a
    week-long run keeps a constant memory footprint; an already-enabled
    tracer keeps buffering as before.  :meth:`detach` restores the
    tracer's previous configuration.

    :meth:`dump` freezes the rings plus the current registry snapshot
    into one JSON-able postmortem bundle.
    """

    def __init__(self, sim: Any, tracer: Tracer,
                 registry: Optional[MetricsRegistry] = None,
                 capacity: int = DEFAULT_RING_CAPACITY,
                 snapshots: int = DEFAULT_SNAPSHOT_RING,
                 snapshot_interval_s: Optional[float] = None) -> None:
        self.sim = sim
        self.tracer = tracer
        self.registry = registry
        self.ring: deque = deque(maxlen=capacity)
        self.snapshot_ring: deque = deque(maxlen=snapshots)
        self.dumps: List[Dict[str, Any]] = []
        #: Directory (or file path template) dumps are also written to;
        #: None keeps them in memory only.
        self.dump_path: Optional[str] = None
        self._saved = (tracer.enabled, tracer.buffering, tracer.on_emit)
        tracer.on_emit = self.ring.append
        if not tracer.enabled:
            tracer.enabled = True
            tracer.buffering = False
        self._timer = None
        if snapshot_interval_s is not None and registry is not None:
            self._timer = sim.every(
                snapshot_interval_s, self.snapshot_now,
                label="flight-recorder-snapshot",
                cost_key=("profiler", None, None, "snapshot"))

    def detach(self) -> None:
        """Stop recording and restore the tracer's prior configuration."""
        enabled, buffering, on_emit = self._saved
        self.tracer.enabled = enabled
        self.tracer.buffering = buffering
        self.tracer.on_emit = on_emit
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # -- recording ---------------------------------------------------------
    def snapshot_now(self) -> None:
        """Push the registry's current state onto the snapshot ring."""
        if self.registry is not None:
            self.snapshot_ring.append(
                {"t": self.sim.now, "metrics": self.registry.snapshot()})

    # -- dumping -----------------------------------------------------------
    def dump(self, reason: str = "manual",
             context: Optional[Dict[str, Any]] = None,
             cost_model: Optional[CostModel] = None) -> Dict[str, Any]:
        """Freeze the black box into a postmortem bundle (JSON-able).

        The bundle is appended to :attr:`dumps` and, when
        :attr:`dump_path` is set, written to
        ``<dump_path>/postmortem-<n>.json``.
        """
        self.snapshot_now()
        bundle: Dict[str, Any] = {
            "reason": reason,
            "sim_time": self.sim.now,
            "context": context or {},
            "recent_events": list(self.ring),
            "ring_capacity": self.ring.maxlen,
            "registry_snapshots": list(self.snapshot_ring),
            "trace_dropped": self.tracer.dropped,
        }
        if cost_model is not None:
            bundle["cost"] = cost_model.to_jsonable()
        self.dumps.append(bundle)
        if self.dump_path is not None:
            self.write(f"{self.dump_path}/postmortem-{len(self.dumps)}.json",
                       bundle)
        return bundle

    @staticmethod
    def write(path: str, bundle: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, default=str)


# ---------------------------------------------------------------------------
# Deployment bundle
# ---------------------------------------------------------------------------

class ProfilingBundle:
    """Profiler + flight recorder + counter-track publisher for one
    simulator and its :class:`~repro.obs.Observability`.

    ``counter_interval_s`` arms a sim-time timer that publishes the
    cumulative per-switch attributed cost as a Chrome/Perfetto counter
    track (``ph="C"``) through the deployment tracer, so the profile
    rides along in the exported trace next to the event timeline.
    """

    def __init__(self, sim: Any, obs: Any, flight_recorder: bool = True,
                 counter_interval_s: Optional[float] = None) -> None:
        self.sim = sim
        self.obs = obs
        self.profiler = Profiler(sim).start()
        self.recorder: Optional[FlightRecorder] = None
        if flight_recorder:
            self.recorder = FlightRecorder(sim, obs.tracer,
                                           registry=obs.registry)
        self._counter_timer = None
        if counter_interval_s is not None:
            self._counter_timer = sim.every(
                counter_interval_s, self._emit_counters,
                label="profiler-counters",
                cost_key=("profiler", None, None, "counters"))

    # -- lifecycle ---------------------------------------------------------
    def reanchor(self) -> None:
        self.profiler.reanchor()

    def stop(self) -> None:
        """Uninstall everything; collected data stays readable."""
        self.profiler.stop()
        if self.recorder is not None:
            self.recorder.detach()
        if self._counter_timer is not None:
            self._counter_timer.stop()
            self._counter_timer = None

    # -- reading -----------------------------------------------------------
    def cost_model(self) -> CostModel:
        return self.profiler.cost_model()

    def write_postmortem(self, path: str,
                         reason: str = "manual") -> Dict[str, Any]:
        if self.recorder is None:
            raise ValueError("profiling was enabled without a flight "
                             "recorder; nothing to dump")
        bundle = self.recorder.dump(reason=reason,
                                    cost_model=self.cost_model())
        FlightRecorder.write(path, bundle)
        return bundle

    def _emit_counters(self) -> None:
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        per_switch = self.cost_model().by_switch()
        if not per_switch:
            return
        tracer.counter(
            "profiler_cost_ms", track="profiler",
            values={f"switch/{switch}": ns / 1e6
                    for switch, ns in sorted(per_switch.items(),
                                             key=lambda i: str(i[0]))})
