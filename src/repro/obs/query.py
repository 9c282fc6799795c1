"""Query engine over the sim-time TSDB (PromQL's useful tenth).

Everything an alert rule or a dashboard panel needs, nothing more:

* **label-selector lookup** — ``parse_selector('farm_pcie_bytes_total'
  '{switch="7"}')`` and :meth:`QueryEngine.series`;
* **range queries** — :meth:`QueryEngine.range_query` returns stored
  :class:`~repro.obs.tsdb.Point` rows (raw and downsampled alike);
* **over-time functions** — ``rate`` / ``delta`` / ``avg_over_time`` /
  ``min_over_time`` / ``max_over_time`` over a trailing ``window_s``;
* **instant vectors** — an instant query evaluates to a :data:`Vector`
  (``{frozen labels: value}``); :meth:`QueryEngine.sum` collapses one.

All timestamps are sim-seconds; ``at``/``t1`` default to the newest
sample so alert rules can just ask "now".
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import LabelValues
from repro.obs.tsdb import Point, Series, TimeSeriesStore

#: An instant query result: one value per matched label set.
Vector = Dict[LabelValues, float]


def parse_selector(selector: str) -> Tuple[str, Dict[str, str]]:
    """Split ``'name{k="v",k2="v2"}'`` into ``(name, {k: v, ...})``.

    A bare ``'name'`` selects the whole family.  Values may be quoted
    (with ``\\"`` and ``\\\\`` escapes) or bare; spaces inside quoted
    values are preserved.
    """
    selector = selector.strip()
    if "{" not in selector:
        return selector, {}
    name, _, rest = selector.partition("{")
    if not rest.endswith("}"):
        raise ValueError(f"unterminated label selector: {selector!r}")
    body = rest[:-1]
    labels: Dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq].strip()
        i = eq + 1
        if i < n and body[i] == '"':
            i += 1
            chars: List[str] = []
            while i < n and body[i] != '"':
                if body[i] == "\\" and i + 1 < n:
                    i += 1
                chars.append(body[i])
                i += 1
            if i >= n:
                raise ValueError(f"unterminated quote in {selector!r}")
            i += 1  # closing quote
            value = "".join(chars)
        else:
            end = body.find(",", i)
            end = n if end == -1 else end
            value = body[i:end].strip()
            i = end
        labels[key] = value
        while i < n and body[i] in ", ":
            i += 1
    return name.strip(), labels


def _resolve(selector: Union[str, Tuple[str, Optional[Mapping[str, Any]]]],
             match: Optional[Mapping[str, Any]]) -> Tuple[str, Optional[Mapping[str, Any]]]:
    if match is not None and not isinstance(match, Mapping):
        # The usual slip: a window passed positionally lands here.
        raise TypeError(f"match must be a label mapping, not "
                        f"{type(match).__name__} (pass a window as "
                        f"window_s=)")
    if isinstance(selector, str) and (match is None and "{" in selector):
        return parse_selector(selector)
    return selector, match


class QueryEngine:
    """Read-side API over one :class:`~repro.obs.tsdb.TimeSeriesStore`."""

    def __init__(self, store: TimeSeriesStore) -> None:
        self.store = store

    # -- lookup ------------------------------------------------------------
    def series(self, selector: str,
               match: Optional[Mapping[str, Any]] = None) -> List[Series]:
        """All series matching ``selector`` (string form or name +
        ``match`` mapping)."""
        name, match = _resolve(selector, match)
        return self.store.select(name, match)

    def latest_time(self) -> float:
        """Timestamp of the newest sample anywhere in the store (0.0 when
        empty) — the default "now" for instant queries."""
        latest = 0.0
        for series in self.store:
            point = series.latest()
            if point is not None and point.t > latest:
                latest = point.t
        return latest

    # -- range queries -----------------------------------------------------
    def range_query(self, selector: str,
                    match: Optional[Mapping[str, Any]] = None,
                    t0: float = float("-inf"),
                    t1: float = float("inf")) -> Dict[LabelValues, List[Point]]:
        """Stored points per matching series inside ``[t0, t1]``."""
        return {series.labels: series.points(t0, t1)
                for series in self.series(selector, match)}

    # -- instant vector ----------------------------------------------------
    def instant(self, selector: str,
                match: Optional[Mapping[str, Any]] = None,
                at: Optional[float] = None) -> Vector:
        """Last value at or before ``at`` per matching series."""
        out: Vector = {}
        for series in self.series(selector, match):
            if at is None:
                point = series.latest()
            else:
                point = None
                for candidate in series.points(t1=at):
                    point = candidate
            if point is not None:
                out[series.labels] = point.last
        return out

    # -- over-time functions ----------------------------------------------
    def _windows(self, selector, match, window_s, at
                 ) -> Dict[LabelValues, List[Point]]:
        if at is None:
            at = self.latest_time()
        t0 = at - window_s if window_s is not None else float("-inf")
        return {labels: points
                for labels, points in self.range_query(
                    selector, match, t0, at).items()
                if points}

    def rate(self, selector: str,
             match: Optional[Mapping[str, Any]] = None,
             window_s: Optional[float] = None,
             at: Optional[float] = None) -> Vector:
        """Per-second increase of a counter over the trailing window.

        Uses first/last sample in the window; a counter that resets
        (value decreases) clamps to 0 rather than reporting a negative
        rate.
        """
        out: Vector = {}
        for labels, points in self._windows(selector, match, window_s,
                                            at).items():
            if len(points) < 2:
                out[labels] = 0.0
                continue
            first, last = points[0], points[-1]
            span = last.t - first.t
            if span <= 0:
                out[labels] = 0.0
            else:
                out[labels] = max(0.0, (last.last - first.last) / span)
        return out

    def delta(self, selector: str,
              match: Optional[Mapping[str, Any]] = None,
              window_s: Optional[float] = None,
              at: Optional[float] = None) -> Vector:
        """Last-minus-first over the window (gauges may go negative)."""
        out: Vector = {}
        for labels, points in self._windows(selector, match, window_s,
                                            at).items():
            out[labels] = points[-1].last - points[0].last
        return out

    def avg_over_time(self, selector: str,
                      match: Optional[Mapping[str, Any]] = None,
                      window_s: Optional[float] = None,
                      at: Optional[float] = None) -> Vector:
        """Count-weighted mean over the window (downsampling-exact)."""
        out: Vector = {}
        for labels, points in self._windows(selector, match, window_s,
                                            at).items():
            total = sum(p.count for p in points)
            out[labels] = sum(p.mean * p.count for p in points) / total
        return out

    def min_over_time(self, selector: str,
                      match: Optional[Mapping[str, Any]] = None,
                      window_s: Optional[float] = None,
                      at: Optional[float] = None) -> Vector:
        return {labels: min(p.vmin for p in points)
                for labels, points in self._windows(selector, match,
                                                    window_s, at).items()}

    def max_over_time(self, selector: str,
                      match: Optional[Mapping[str, Any]] = None,
                      window_s: Optional[float] = None,
                      at: Optional[float] = None) -> Vector:
        return {labels: max(p.vmax for p in points)
                for labels, points in self._windows(selector, match,
                                                    window_s, at).items()}

    # -- aggregation -------------------------------------------------------
    @staticmethod
    def sum(vector: Vector) -> float:
        """Collapse an instant vector to a scalar total."""
        return float(sum(vector.values()))
