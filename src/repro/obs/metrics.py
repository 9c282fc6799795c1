"""Metrics registry: labeled counters, gauges, and histograms.

Every runtime component of the reproduction (ControlBus, ReliableEndpoint,
Soil, Seeder, Harvester, FaultToleranceManager, the placement solvers and the
switchsim resource models) registers its counters here instead of keeping
ad-hoc integer attributes.  The registry is the single source of truth the
evaluation figures can be recomputed from (Fig. 4 network load from the bus
byte counters, Fig. 5 CPU load from the per-switch work integrals), and the
exporters in :mod:`repro.obs.exporters` render it as Prometheus text or JSON.

Design notes
------------
* **Cheap increments.**  ``Counter.inc`` is one float add plus (when a rate
  window is configured) one ring-bucket add.  Components therefore keep
  their metrics *always on*; only event tracing has an enable switch.
* **Sim-time aware.**  The registry carries a ``clock`` callable (normally
  ``lambda: sim.now``).  Windowed rates and rate buckets are keyed on
  simulation time, not wall time, so a 5-second DES run reports the same
  rates no matter how fast the host executed it.
* **Bounded memory.**  Windowed rates use a fixed ring of time buckets
  (:class:`RateWindow`), not a sample log, so a million-message-per-sim-second
  baseline costs O(buckets), not O(messages).
* **Label keys are frozen** to sorted ``(key, str(value))`` tuples, giving
  deterministic iteration order for exporters and tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

LabelValues = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds-ish scale: latencies, runtimes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0)


def freeze_labels(labels: Optional[Mapping[str, Any]]) -> LabelValues:
    """Normalize a label mapping to a hashable, sorted, stringified key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class RateWindow:
    """Sim-time windowed rate with O(1) memory (ring of time buckets).

    ``record(t, amount)`` adds ``amount`` to the bucket covering ``t``;
    buckets older than ``window_s`` are zeroed lazily as time advances.
    ``rate(now)`` returns amount-per-second over the trailing window.
    """

    __slots__ = ("window_s", "_bucket_s", "_buckets", "_base_index")

    def __init__(self, window_s: float, buckets: int = 20) -> None:
        if window_s <= 0 or buckets <= 0:
            raise ValueError("window and bucket count must be positive")
        self.window_s = window_s
        self._bucket_s = window_s / buckets
        self._buckets = [0.0] * buckets
        self._base_index = 0  # absolute index of the newest occupied bucket

    def _advance(self, t: float) -> int:
        index = int(t / self._bucket_s)
        if index > self._base_index:
            gap = index - self._base_index
            n = len(self._buckets)
            if gap >= n:
                for i in range(n):
                    self._buckets[i] = 0.0
            else:
                for i in range(self._base_index + 1, index + 1):
                    self._buckets[i % n] = 0.0
            self._base_index = index
        return index

    def record(self, t: float, amount: float) -> None:
        index = self._advance(t)
        if index == self._base_index:  # ignore records from the stale past
            self._buckets[index % len(self._buckets)] += amount

    def rate(self, now: float, horizon: Optional[float] = None) -> float:
        """Amount per second over the trailing ``horizon`` (full window by
        default; horizons are clamped to ``[bucket, window]`` — the ring
        cannot see further back than it is long)."""
        self._advance(now)
        n = len(self._buckets)
        if horizon is None:
            return sum(self._buckets) / self.window_s
        k = max(1, min(n, int(round(horizon / self._bucket_s))))
        total = 0.0
        for i in range(self._base_index - k + 1, self._base_index + 1):
            total += self._buckets[i % n]
        return total / (k * self._bucket_s)


class Counter:
    """Monotonically increasing counter (optionally rate-windowed)."""

    __slots__ = ("name", "labels", "_value", "_window", "_clock")

    def __init__(self, name: str, labels: LabelValues = (),
                 clock: Optional[Callable[[], float]] = None,
                 window: Optional[RateWindow] = None) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._clock = clock
        self._window = window

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount
        w = self._window
        if w is not None:
            w.record(self._clock() if self._clock is not None else 0.0, amount)

    def inc_repeated(self, amounts: Sequence[float], repeats: int) -> None:
        """``repeats`` rounds of ``inc(a) for a in amounts`` in one call.

        The value (and the rate window) advance through the identical
        float-add sequence, so a counter mirroring an integral add for add
        keeps its bits when the caller batches its increments.
        """
        value = self._value
        for _ in range(repeats):
            for amount in amounts:
                value += amount
        self._value = value
        w = self._window
        if w is not None:
            t = self._clock() if self._clock is not None else 0.0
            for _ in range(repeats):
                for amount in amounts:
                    w.record(t, amount)

    @property
    def value(self) -> float:
        return self._value

    def rate(self, horizon: Optional[float] = None) -> float:
        """Amount per second over the trailing window (0 if no window)."""
        if self._window is None:
            return 0.0
        now = self._clock() if self._clock is not None else 0.0
        return self._window.rate(now, horizon)


class Gauge:
    """A value that can go up and down (current seeds, parked seeds, ...)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelValues = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def add(self, amount: float) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelValues = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        # bisect_left finds the first bound with value <= bound; past the
        # last bound it lands on the +Inf slot at counts[-1].
        self.counts[bisect_left(self.buckets, value)] += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricFamily:
    """All children (label combinations) of one metric name."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelValues, Any] = {}


class MetricsRegistry:
    """Process-wide (well, deployment-wide) metric store.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the metric's kind and help text; later calls with the same name
    and labels return the same object, so independently constructed
    components can share one registry without coordination.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self._families: Dict[str, MetricFamily] = {}

    # -- get-or-create -----------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}")
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, Any]] = None,
                window_s: Optional[float] = None) -> Counter:
        family = self._family(name, "counter", help_text)
        key = freeze_labels(labels)
        child = family.children.get(key)
        if child is None:
            window = RateWindow(window_s) if window_s is not None else None
            child = Counter(name, key, clock=self.clock, window=window)
            family.children[key] = child
        return child

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        family = self._family(name, "gauge", help_text)
        key = freeze_labels(labels)
        child = family.children.get(key)
        if child is None:
            child = Gauge(name, key)
            family.children[key] = child
        return child

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, Any]] = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        family = self._family(name, "histogram", help_text)
        key = freeze_labels(labels)
        child = family.children.get(key)
        if child is None:
            child = Histogram(name, key, buckets=buckets)
            family.children[key] = child
        return child

    # -- reading -----------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str,
            labels: Optional[Mapping[str, Any]] = None) -> Optional[Any]:
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(freeze_labels(labels))

    def value(self, name: str,
              labels: Optional[Mapping[str, Any]] = None,
              default: float = 0.0) -> float:
        """Current value of a counter/gauge child (``default`` if absent)."""
        child = self.get(name, labels)
        if child is None:
            return default
        return child.value

    def sum_values(self, name: str,
                   match: Optional[Mapping[str, Any]] = None) -> float:
        """Sum a family's children whose labels include every ``match`` item.

        ``sum_values("farm_cpu_work_seconds_total", {"switch": "3"})`` adds
        up just switch 3; with no ``match`` it aggregates the whole family.
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        wanted = freeze_labels(match)
        total = 0.0
        for key, child in family.children.items():
            if all(item in key for item in wanted):
                total += child.value
        return total

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able dump: ``{name: {kind, help, series: [...]}}``."""
        out: Dict[str, Dict[str, Any]] = {}
        for family in self.families():
            series = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                    entry["buckets"] = {
                        str(b): c for b, c in
                        zip(child.buckets, child.cumulative_counts())}
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "series": series}
        return out
