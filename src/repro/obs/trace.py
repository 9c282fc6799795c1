"""Causal event tracing keyed on simulation time.

A :class:`Tracer` records lightweight span/instant/async events that the
exporters render as Chrome ``trace_event`` JSON (openable in
``chrome://tracing`` / Perfetto).  Trace semantics:

* **tracks** play the role of Chrome *threads*: one per switch
  (``switch/3``), plus ``seeder``, ``bus``, ``kernel`` — so a whole DES run
  reads as a per-switch timeline;
* **spans** (``ph="X"``) cover an interval of sim-time whose duration is
  known when it is recorded (a poll's delivery, whose latency the cost
  model computes up front: :meth:`Tracer.poll_span`);
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

Cheap when on
-------------
The tracer keeps one ordered record log.  The two points that make most
of a run's events — a seed handler fire (:meth:`Tracer.seed_fire`) and a
poll span (:meth:`Tracer.poll_span`) — append a record of atoms (the
caller's strings, a float, a bool) straight into it, so a traced run
keeps no per-event container for the cyclic GC to walk.  Every other
recording method appends its event dict as a record of its own, so order
across kinds is kept.  :attr:`Tracer.events` decodes the log into event
dicts when it is read, once, and caches them; ``len(tracer)`` and
``dropped`` never decode.  With an ``on_emit`` tap set or buffering off
(the flight recorder), the hot recorders build the dict at once and
hand it to the tap, so the ring sees the same events as the buffer.
``TestEnabledCost`` asserts the count form.
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
        #: Records not yet decoded, flat: an event dict is one slot, a
        #: hot record is a ``_FIRE``/``_POLL`` tag and five atoms.
        self._log: List[Any] = []
        self._decoded: List[Dict[str, Any]] = []
        self._count = 0
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
        if self.buffering:
            self._record((event,))

    def _record(self, record: tuple) -> None:
        """Buffer one record (an event dict, or a tag and five atoms)
        unless the cap is hit."""
        if self._count >= self.max_events:
            self.dropped += 1
            return
        self._count += 1
        self._log.extend(record)

    # -- recording ---------------------------------------------------------
    def instant(self, name: str, track: str, cat: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration lifecycle moment."""
        if not self.enabled:
            return
        self._emit({"ph": "i", "name": name, "cat": cat, "track": track,
                    "ts": self.now(), "args": args})

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

    def seed_fire(self, seed: str, var: str, handled: bool,
                  state: str) -> None:
        """Record a seed handler dispatch: ``fire var`` on ``seed/ID``."""
        if not self.enabled:
            return
        if self.on_emit is not None or not self.buffering:
            self._emit(_fire_event(seed, var, handled, state, self.now()))
        else:
            self._record((_FIRE, seed, var, handled, state, self.now()))

    def poll_span(self, seed: str, var: str, track: str, start: float,
                  duration: float) -> None:
        """Record a poll delivery: the ``seed.var`` span on ``track``."""
        if not self.enabled:
            return
        if self.on_emit is not None or not self.buffering:
            self._emit(_poll_event(seed, var, track, start, duration))
        else:
            self._record((_POLL, seed, var, track, start, duration))

    # -- reading -----------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, Any]]:
        """Every buffered event as a dict, in recording order.

        Records are decoded on the first read after they were made and
        cached; the list is the tracer's own, so read it, do not mutate.
        """
        log = self._log
        if log:
            decoded = self._decoded
            i, n = 0, len(log)
            while i < n:
                item = log[i]
                if item is _FIRE:
                    decoded.append(_fire_event(*log[i + 1:i + 6]))
                    i += 6
                elif item is _POLL:
                    decoded.append(_poll_event(*log[i + 1:i + 6]))
                    i += 6
                else:
                    decoded.append(item)
                    i += 1
            log.clear()
        return self._decoded

    def __len__(self) -> int:
        return self._count

    def by_track(self) -> Dict[str, List[Dict[str, Any]]]:
        out: Dict[str, List[Dict[str, Any]]] = {}
        for event in self.events:
            out.setdefault(event["track"], []).append(event)
        return out


#: Hot-record tags in ``Tracer._log``; compared by identity, and no event
#: dict is ever one of them.
_FIRE = "fire"
_POLL = "poll"


def _fire_event(seed: str, var: str, handled: bool, state: str,
                ts: float) -> Dict[str, Any]:
    return {"ph": "i", "name": f"fire {var}", "cat": "seed",
            "track": f"seed/{seed}", "ts": ts,
            "args": {"trace_id": seed, "handled": handled, "state": state}}


def _poll_event(seed: str, var: str, track: str, start: float,
                duration: float) -> Dict[str, Any]:
    return {"ph": "X", "name": f"{seed}.{var}", "cat": "poll",
            "track": track, "ts": start, "dur": duration,
            "args": {"trace_id": seed}}


#: Module-level disabled tracer: components default their ``tracer``
#: attribute to this instead of ``None`` so call sites never need a
#: None-check *and* an enabled-check — one predictable branch suffices.
NULL_TRACER = Tracer(enabled=False)
