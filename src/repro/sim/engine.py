"""Discrete-event simulation kernel.

The entire FARM reproduction runs on this kernel: the switch emulator, the
seed/soil/harvester runtime, and every baseline system schedule their work as
events on a shared :class:`Simulator`.

Design notes
------------
* Time is a ``float`` in **seconds**.  Evaluation figures quote milliseconds;
  helpers :data:`MILLIS` and :data:`MICROS` keep call sites readable.
* Events fire in ``(time, priority, sequence)`` order, so two events scheduled
  for the same instant fire in scheduling order unless priorities differ.
  This determinism is load-bearing: tests assert exact orderings.
* Heap entries are plain ``(time, priority, seq, event)`` tuples: the unique
  ``seq`` guarantees comparisons never reach the event object, and tuple
  comparison in C is far cheaper than a dataclass ``__lt__`` in the
  innermost loop.
* Cancellation is O(1) (a tombstone flag); the heap lazily discards dead
  entries on pop and compacts itself when tombstones dominate, so long
  chaos runs with heavy cancellation don't grow the heap unboundedly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: One millisecond, in simulator time units (seconds).
MILLIS = 1e-3
#: One microsecond, in simulator time units (seconds).
MICROS = 1e-6

#: Default priority for scheduled events; lower fires first at equal times.
NORMAL_PRIORITY = 0

#: Tombstone compaction: compact once dead entries exceed an adaptive
#: floor *and* outnumber live entries.  The floor starts at
#: :data:`_COMPACT_MIN_DEAD` and adapts to the live/dead ratio observed at
#: each compaction: a small, cancel-heavy heap doubles its floor so the
#: fixed compaction overhead (list rebuild + heapify) amortizes across
#: more cancels, while a large heap pulls the floor back toward its live
#: size so the dead:live trigger ratio stays ~1 (amortized O(1) per
#: cancel).  :data:`_COMPACT_MAX_DEAD` bounds both the memory held by
#: tombstones and the log-factor they add to heap pushes.
_COMPACT_MIN_DEAD = 64
_COMPACT_MAX_DEAD = 1024


class Event:
    """A scheduled callback.

    Returned by :meth:`Simulator.schedule`; hold onto it to :meth:`cancel`.

    ``cost_key`` is an optional ``(component, switch_id, seed_id, label)``
    tuple the profiler charges this event's wall-clock to (see
    :mod:`repro.obs.profiler`).  Schedulers pass a precomputed shared
    tuple, so carrying it costs one slot, not an allocation per event.
    """

    __slots__ = ("callback", "args", "cancelled", "fired", "label",
                 "cost_key", "_sim")

    def __init__(self, callback: Callable[..., None], args: tuple,
                 label: str = "",
                 cost_key: Optional[tuple] = None) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.label = label
        self.cost_key = cost_key
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op if fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def alive(self) -> bool:
        """True while the event is still pending."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "cancelled" if self.cancelled else "pending"
        return f"<Event {self.label or self.callback!r} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, lambda: out.append(sim.now))
    >>> sim.run()
    >>> out
    [1.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []  # (time, priority, seq, Event)
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        self._live = 0  # live (schedulable) entries in the heap
        self._dead = 0  # cancelled entries not yet popped/compacted
        self._compact_floor = _COMPACT_MIN_DEAD
        #: Number of tombstone compactions performed (diagnostic).
        self.compactions = 0
        # Optional profiler: when set, step() routes every callback
        # through ``profiler.dispatch(event)`` so wall-clock can be
        # attributed to the event's cost key.  Kept as a plain attribute
        # so the disabled cost in step() is one load + branch.
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (diagnostic)."""
        return self._event_count

    def pending(self) -> int:
        """Number of live events still in the queue.  O(1): the count is
        maintained on schedule/cancel/fire instead of scanning the heap."""
        return self._live

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or clear, with None) the dispatch profiler.

        ``profiler.dispatch(event)`` replaces the plain
        ``event.callback(*event.args)`` call in :meth:`step` while
        installed; :class:`repro.obs.profiler.Profiler` uses this to time
        callbacks and charge them to their cost keys.  The profiler must
        invoke the callback exactly once — it wraps dispatch, it does not
        observe it — so sim-time semantics are unchanged.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any,
                 priority: int = NORMAL_PRIORITY, label: str = "",
                 cost_key: Optional[tuple] = None) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative and finite; scheduling into the past
        raises :class:`SimulationError`.
        """
        if delay < 0 or math.isnan(delay) or math.isinf(delay):
            raise SimulationError(f"invalid event delay: {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args,
                                priority=priority, label=label,
                                cost_key=cost_key)

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any, priority: int = NORMAL_PRIORITY,
                    label: str = "",
                    cost_key: Optional[tuple] = None) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when}: simulation time is {self._now}")
        event = Event(callback, args, label=label, cost_key=cost_key)
        event._sim = self
        heapq.heappush(self._heap, (when, priority, next(self._seq), event))
        self._live += 1
        return event

    def _note_cancelled(self) -> None:
        """Bookkeeping for Event.cancel(): update the live count and compact
        the heap when tombstones dominate it (adaptive floor, see above)."""
        self._live -= 1
        self._dead += 1
        if self._dead >= self._compact_floor and self._dead >= self._live:
            self._compact()

    def _compact(self) -> None:
        self._heap = [entry for entry in self._heap
                      if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1
        # Adapt to the live/dead ratio just observed: when the live set is
        # smaller than the floor the heap is cancel-dominated, so double
        # the floor (up to the cap); otherwise track the live size so the
        # next compaction again waits for tombstones to rival it.
        if self._live < self._compact_floor:
            self._compact_floor = min(self._compact_floor * 2,
                                      _COMPACT_MAX_DEAD)
        else:
            self._compact_floor = max(
                _COMPACT_MIN_DEAD, min(self._live, _COMPACT_MAX_DEAD))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            when, _priority, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._dead -= 1
                continue
            self._now = when
            event.fired = True
            self._live -= 1
            self._event_count += 1
            profiler = self._profiler
            if profiler is None:
                event.callback(*event.args)
            else:
                profiler.dispatch(event)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at which execution stopped.  When
        stopping on ``until``, time is advanced to exactly ``until`` (events
        scheduled at later times remain queued).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                if max_events is not None and fired >= max_events:
                    break
                entry = self._heap[0]
                if entry[3].cancelled:
                    heapq.heappop(self._heap)
                    self._dead -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                if not self.step():
                    break
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def every(self, interval: float, callback: Callable[..., None], *args: Any,
              start_after: Optional[float] = None, label: str = "",
              priority: int = NORMAL_PRIORITY,
              cost_key: Optional[tuple] = None) -> "PeriodicTimer":
        """Create a periodic timer firing ``callback`` every ``interval``.

        The first firing happens after ``start_after`` (defaults to one
        interval).  The returned timer supports :meth:`PeriodicTimer.stop` and
        dynamic :meth:`PeriodicTimer.reschedule`.  ``priority`` orders the
        timer against other events at the same instant — observers (e.g. the
        Scarecrow scraper) use a high value so they fire after the state
        they observe has settled.
        """
        timer = PeriodicTimer(self, interval, callback, args, label=label,
                              priority=priority, cost_key=cost_key)
        timer.start(start_after)
        return timer


class PeriodicTimer:
    """Repeatedly fires a callback at a (dynamically adjustable) interval.

    Seeds use this for ``poll``/``time`` trigger variables, whose periods can
    be reassigned at runtime (SIII-A-d: "assignments ... to trigger variables
    (e.g., to modify polling rates)").
    """

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[..., None], args: tuple = (),
                 label: str = "",
                 priority: int = NORMAL_PRIORITY,
                 cost_key: Optional[tuple] = None) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.label = label
        self.priority = priority
        self.cost_key = cost_key
        self._event: Optional[Event] = None
        self._stopped = True
        self.fire_count = 0

    def start(self, start_after: Optional[float] = None) -> None:
        """Arm the timer; first firing after ``start_after`` (default: interval)."""
        self._stopped = False
        delay = self.interval if start_after is None else start_after
        self._event = self.sim.schedule(delay, self._fire, label=self.label,
                                        priority=self.priority,
                                        cost_key=self.cost_key)

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def reschedule(self, interval: float) -> None:
        """Change the period.  Takes effect for the *next* firing."""
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive: {interval}")
        self.interval = interval
        if not self._stopped:
            if self._event is not None:
                self._event.cancel()
            self._event = self.sim.schedule(interval, self._fire, label=self.label,
                                            priority=self.priority,
                                            cost_key=self.cost_key)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        # Schedule the next firing before running the callback so the callback
        # may call reschedule()/stop() and win.
        self._event = self.sim.schedule(self.interval, self._fire, label=self.label,
                                        priority=self.priority,
                                        cost_key=self.cost_key)
        self.callback(*self.args)


def exponential_backoff(base: float, attempt: int, cap: float) -> float:
    """Deterministic capped exponential backoff used by retry loops."""
    return min(cap, base * (2 ** attempt))


def jittered_backoff(base: float, attempt: int, cap: float,
                     rng: Optional[Any] = None,
                     jitter_frac: float = 0.0) -> float:
    """:func:`exponential_backoff` with multiplicative jitter.

    ``rng`` is any object with a ``random()`` method (e.g. a seeded
    ``random.Random``); the kernel itself stays RNG-free — callers that
    want jitter must bring their own deterministic source.  The jitter is
    additive-only (``delay * [1, 1 + jitter_frac)``) so the backoff never
    undershoots its deterministic floor.
    """
    delay = exponential_backoff(base, attempt, cap)
    if rng is not None and jitter_frac > 0.0:
        delay *= 1.0 + jitter_frac * rng.random()
    return delay

