"""Embedded sim-time time-series store (the Scarecrow's memory).

The exporters in :mod:`repro.obs.exporters` can only dump the *current*
state of the metrics registry; nothing inside the framework could answer
"what was the PCIe byte rate on sw7 between t=40 and t=60" without
re-running the experiment.  This module adds that memory: a small TSDB
keyed on **simulation time**, fed by a :class:`Scraper` task registered
on the DES kernel, and bounded by staged downsampling instead of
unbounded sample logs.

Storage model
-------------
Every series holds three stages of fixed-size sample chunks:

* **raw** — ``(t, value)`` pairs exactly as scraped;
* **mid** — raw compacted ``factor``:1 (default 10x) into aggregate
  :class:`Point` rows carrying ``min/max/mean/last`` + ``count``;
* **coarse** — mid compacted another ``factor``:1 (100x overall).

Compaction is lossless for the min/max envelope: a one-sample spike
survives both stages in the ``max`` column (and therefore in the
dashboard's min/max band), which is the property chaos forensics need —
"did anything spike while I wasn't looking" must stay answerable after
retention has eaten the raw samples.  Each stage has its own retention
horizon; samples older than the last horizon are dropped for good.

The scraper walks a :class:`~repro.obs.metrics.MetricsRegistry` on a
fixed sim-interval (histograms contribute their ``_sum``/``_count``
series), runs at a low kernel priority so a scrape at time *t* observes
every update that happened at *t*, and meta-monitors itself into the
same registry (``scarecrow_scrapes_total`` etc.) — the farm watches the
scarecrow watching the farm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Tuple,
)

from repro.obs.metrics import LabelValues, MetricsRegistry, freeze_labels

#: Kernel priority for scrape ticks: strictly after every normal-priority
#: event scheduled for the same instant, so a scrape at time t sees the
#: complete state of t (``NORMAL_PRIORITY`` is 0; lower fires first).
SCRAPE_PRIORITY = 100


class Point(NamedTuple):
    """One stored sample, raw or aggregated.

    Raw samples have ``vmin == vmax == mean == last``, ``count == 1`` and
    ``t_last == t``; aggregated points summarize ``count`` original
    samples starting at ``t`` (the timestamp of the first sample in the
    block), and ``t_last`` is when ``last`` (the block's final sample)
    was taken.  Charts draw at ``t``; queries place a point at ``t_last``.
    """

    t: float
    vmin: float
    vmax: float
    mean: float
    last: float
    count: int
    t_last: float

    @classmethod
    def raw(cls, t: float, value: float) -> "Point":
        return cls(t, value, value, value, value, 1, t)


def merge_points(points: Iterable[Point]) -> Point:
    """Aggregate a non-empty block of points into one (count-weighted)."""
    block = list(points)
    if not block:
        raise ValueError("cannot merge an empty block")
    total = sum(p.count for p in block)
    mean = sum(p.mean * p.count for p in block) / total
    return Point(
        t=block[0].t,
        vmin=min(p.vmin for p in block),
        vmax=max(p.vmax for p in block),
        mean=mean,
        last=block[-1].last,
        count=total,
        t_last=block[-1].t_last,
    )


@dataclass(frozen=True)
class Retention:
    """Staged retention horizons, all in sim-seconds.

    Raw samples older than ``raw_s`` compact ``factor``:1 into mid
    points; mid points older than ``mid_s`` compact again into coarse
    points; coarse points older than ``coarse_s`` are dropped.  The
    defaults keep one minute of raw, ten minutes at 10x, and roughly
    100 minutes at 100x — plenty for the longest chaos scenarios in the
    repo while bounding every series to O(hundreds) of rows.
    """

    raw_s: float = 60.0
    mid_s: float = 600.0
    coarse_s: float = 6000.0
    factor: int = 10

    def __post_init__(self) -> None:
        if self.factor < 2:
            raise ValueError("downsampling factor must be at least 2")
        if not 0 < self.raw_s <= self.mid_s <= self.coarse_s:
            raise ValueError(
                "retention horizons must satisfy 0 < raw <= mid <= coarse")


class Series:
    """One named + labeled time series with staged downsampling."""

    __slots__ = ("name", "labels", "retention", "raw", "mid", "coarse")

    def __init__(self, name: str, labels: LabelValues = (),
                 retention: Optional[Retention] = None) -> None:
        self.name = name
        self.labels = labels
        self.retention = retention or Retention()
        self.raw: List[Point] = []
        self.mid: List[Point] = []
        self.coarse: List[Point] = []

    def append(self, t: float, value: float) -> None:
        """Append a sample; out-of-order timestamps are ignored (the
        scraper is the only writer and time only moves forward)."""
        if self.raw and t < self.raw[-1].t:
            return
        self.raw.append(Point.raw(t, float(value)))
        self.compact(t)

    # -- compaction --------------------------------------------------------
    def _compact_stage(self, src: List[Point], dst: List[Point],
                       horizon: float, now: float) -> None:
        factor = self.retention.factor
        # Compact whole blocks of `factor` points whose entire span has
        # aged past the horizon; partial blocks wait, so block boundaries
        # are deterministic regardless of scrape cadence.
        while len(src) > factor and now - src[factor - 1].t > horizon:
            dst.append(merge_points(src[:factor]))
            del src[:factor]

    def compact(self, now: float) -> None:
        r = self.retention
        self._compact_stage(self.raw, self.mid, r.raw_s, now)
        self._compact_stage(self.mid, self.coarse, r.mid_s, now)
        while self.coarse and now - self.coarse[0].t > r.coarse_s:
            self.coarse.pop(0)

    # -- reading -----------------------------------------------------------
    def points(self, t0: float = float("-inf"),
               t1: float = float("inf")) -> List[Point]:
        """All stored points with ``t0 <= t <= t1``, oldest first (coarse,
        then mid, then raw — the stages never overlap in time)."""
        out: List[Point] = []
        for stage in (self.coarse, self.mid, self.raw):
            for point in stage:
                if t0 <= point.t <= t1:
                    out.append(point)
        return out

    def latest(self) -> Optional[Point]:
        for stage in (self.raw, self.mid, self.coarse):
            if stage:
                return stage[-1]
        return None

    def __len__(self) -> int:
        return len(self.raw) + len(self.mid) + len(self.coarse)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Series {self.name}{dict(self.labels)} "
                f"raw={len(self.raw)} mid={len(self.mid)} "
                f"coarse={len(self.coarse)}>")


class TimeSeriesStore:
    """All series of one deployment, keyed on ``(name, labels)``."""

    def __init__(self, retention: Optional[Retention] = None) -> None:
        self.retention = retention or Retention()
        self._series: Dict[Tuple[str, LabelValues], Series] = {}
        self._by_name: Dict[str, List[Series]] = {}

    def series(self, name: str,
               labels: Optional[Mapping[str, Any]] = None) -> Series:
        """Get-or-create the series for ``name`` + ``labels``."""
        key = (name, freeze_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = Series(name, key[1], retention=self.retention)
            self._series[key] = series
            self._by_name.setdefault(name, []).append(series)
        return series

    def append(self, name: str, labels: Optional[Mapping[str, Any]],
               t: float, value: float) -> None:
        self.series(name, labels).append(t, value)

    # -- lookup ------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._by_name)

    def select(self, name: str,
               match: Optional[Mapping[str, Any]] = None) -> List[Series]:
        """Series of family ``name`` whose labels include every ``match``
        item (label-selector semantics, same as ``sum_values``)."""
        wanted = freeze_labels(match)
        return [s for s in self._by_name.get(name, ())
                if all(item in s.labels for item in wanted)]

    def total_points(self) -> int:
        return sum(len(s) for s in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self):
        return iter(self._series.values())


#: A collector returns extra samples for one scrape:
#: ``(name, labels-or-None, value)`` triples.
Collector = Callable[[], Iterable[Tuple[str, Optional[Mapping[str, Any]],
                                        float]]]


class Scraper:
    """Periodic registry → store pump, scheduled on the DES kernel.

    One scrape walks every metric family: counters and gauges store
    their value; histograms store ``<name>_sum`` and ``<name>_count``
    (quantiles are a query-time concern).  Extra :data:`Collector`
    callables can contribute derived samples (e.g. a fleet-wide deployed
    seed count) without registering fake metrics.
    """

    def __init__(self, sim: Any, registry: MetricsRegistry,
                 store: TimeSeriesStore, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError("scrape interval must be positive")
        self.sim = sim
        self.registry = registry
        self.store = store
        self.interval_s = interval_s
        self.collectors: List[Collector] = []
        self.on_scrape: List[Callable[[float], None]] = []
        self._timer: Optional[Any] = None
        # Self-monitoring: the scarecrow's own vitals live in the same
        # registry it scrapes, so they show up in the next scrape.
        self._m_scrapes = registry.counter(
            "scarecrow_scrapes_total", "Completed scrape passes.")
        self._m_samples = registry.counter(
            "scarecrow_samples_total", "Samples written to the TSDB.")
        self._g_series = registry.gauge(
            "scarecrow_series", "Series currently stored in the TSDB.")
        self._g_points = registry.gauge(
            "scarecrow_points", "Points currently stored across stages.")

    def start(self, first_at: Optional[float] = None) -> "Scraper":
        """Arm the periodic scrape (first pass after one interval by
        default); returns self for chaining."""
        if self._timer is None:
            self._timer = self.sim.every(
                self.interval_s, self.scrape_once, start_after=first_at,
                priority=SCRAPE_PRIORITY, label="scarecrow-scrape",
                cost_key=("scarecrow", None, None, "scrape"))
        return self

    def scrape_once(self) -> int:
        """One scrape pass; returns the number of samples written."""
        now = self.sim.now
        store = self.store
        written = 0
        for family in self.registry.families():
            if family.kind == "histogram":
                for key, child in family.children.items():
                    store.series(family.name + "_sum",
                                 dict(key)).append(now, child.sum)
                    store.series(family.name + "_count",
                                 dict(key)).append(now, child.count)
                    written += 2
            else:
                for key, child in family.children.items():
                    store.series(family.name, dict(key)).append(
                        now, child.value)
                    written += 1
        for collector in self.collectors:
            for name, labels, value in collector():
                store.append(name, labels, now, value)
                written += 1
        self._m_scrapes.inc()
        self._m_samples.inc(written)
        self._g_series.set(len(store))
        self._g_points.set(store.total_points())
        for hook in self.on_scrape:
            hook(now)
        return written
