"""Causal event tracing keyed on simulation time.

A :class:`Tracer` records lightweight span/instant/async events that the
exporters render as Chrome ``trace_event`` JSON (openable in
``chrome://tracing`` / Perfetto).  Trace semantics:

* **tracks** play the role of Chrome *threads*: one per switch
  (``switch/3``), plus ``seeder``, ``bus``, ``kernel`` — so a whole DES run
  reads as a per-switch timeline;
* **spans** (``ph="X"``) cover an interval of sim-time whose duration is
  known when it is recorded (a poll round trip, a seed handler);
* **instants** (``ph="i"``) mark lifecycle moments (deploy, migrate,
  failover);
* **async spans** (``ph="b"``/``"e"`` with an id) stitch causally related
  endpoints together across tracks — a control-bus message is one async
  span from ``send`` to ``deliver``, carrying the trace id (normally the
  seed id) in its args.

Near-zero cost when disabled
----------------------------
Hot paths guard on ``tracer.enabled`` (or on a ``None`` tracer attribute)
before building any event, and every recording method returns at once on
a disabled tracer — no per-event allocation happens unless tracing is
actually on.  That the dispatch loop never
enters the traced path under a disabled tracer is asserted in
``tests/obs/test_trace.py`` (``TestDisabledFastPath``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: Default cap on buffered events; beyond it new events are counted in
#: ``Tracer.dropped`` instead of stored (a runaway trace should not eat
#: the heap of a long chaos run).
MAX_TRACE_EVENTS = 500_000


class Tracer:
    """Buffered recorder of sim-time trace events.

    ``clock`` supplies the timestamp (normally ``lambda: sim.now``);
    events are plain dicts with sim-time ``ts``/``dur`` in **seconds** —
    the Chrome exporter converts to microseconds.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False,
                 max_events: int = MAX_TRACE_EVENTS) -> None:
        self._clock = clock
        self.enabled = enabled
        self.max_events = max_events
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        #: When False, events are generated (and fed to ``on_emit``) but
        #: not buffered — ring-only mode for the flight recorder.
        self.buffering = True
        #: Optional tap called with every emitted event (flight-recorder
        #: ring append); runs before the buffering decision.
        self.on_emit: Optional[Callable[[Dict[str, Any]], None]] = None

    # -- plumbing ----------------------------------------------------------
    def now(self) -> float:
        clock = self._clock
        return clock() if clock is not None else 0.0

    def _emit(self, event: Dict[str, Any]) -> None:
        tap = self.on_emit
        if tap is not None:
            tap(event)
        if not self.buffering:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- recording ---------------------------------------------------------
    def instant(self, name: str, track: str, cat: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration lifecycle moment."""
        if not self.enabled:
            return
        self._emit({"ph": "i", "name": name, "cat": cat, "track": track,
                    "ts": self.now(), "args": args})

    def complete(self, name: str, track: str, start: float, duration: float,
                 cat: str = "span",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span whose duration is already known (e.g. a delivery
        whose latency the cost model computed up front)."""
        if not self.enabled:
            return
        self._emit({"ph": "X", "name": name, "cat": cat, "track": track,
                    "ts": start, "dur": duration, "args": args})

    def async_begin(self, name: str, span_id: str, track: str,
                    cat: str = "async",
                    args: Optional[Dict[str, Any]] = None) -> None:
        """Open one side of a cross-track causal link (bus message)."""
        if not self.enabled:
            return
        self._emit({"ph": "b", "name": name, "cat": cat, "track": track,
                    "ts": self.now(), "id": span_id, "args": args})

    def async_end(self, name: str, span_id: str, track: str,
                  cat: str = "async",
                  args: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        self._emit({"ph": "e", "name": name, "cat": cat, "track": track,
                    "ts": self.now(), "id": span_id, "args": args})

    def counter(self, name: str, track: str,
                values: Dict[str, float]) -> None:
        """Record one sample of a (possibly multi-series) counter track.

        Renders in Perfetto as a stacked counter chart (``ph="C"``); the
        profiler publishes cumulative per-switch cost this way.
        """
        if not self.enabled:
            return
        self._emit({"ph": "C", "name": name, "cat": "counter", "track": track,
                    "ts": self.now(), "args": dict(values)})

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def by_track(self) -> Dict[str, List[Dict[str, Any]]]:
        out: Dict[str, List[Dict[str, Any]]] = {}
        for event in self.events:
            out.setdefault(event["track"], []).append(event)
        return out


#: Module-level disabled tracer: components default their ``tracer``
#: attribute to this instead of ``None`` so call sites never need a
#: None-check *and* an enabled-check — one predictable branch suffices.
NULL_TRACER = Tracer(enabled=False)
