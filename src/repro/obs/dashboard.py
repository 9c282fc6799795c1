"""Self-contained offline HTML dashboard for the Scarecrow TSDB.

``render_dashboard`` turns a :class:`~repro.obs.tsdb.TimeSeriesStore`
(and optionally an :class:`~repro.obs.alerts.AlertManager`) into one
HTML file with **zero external assets** — no scripts, stylesheets,
fonts, or images are fetched; every chart is inline SVG — so the file
opens identically from a CI artifact tarball, an air-gapped lab host,
or ``file://``.

Rendering rules (kept deliberately boring):

* one chart per metric family, one 2px polyline per labeled series
  (capped at :data:`MAX_SERIES_PER_CHART`; the overflow is folded into a
  "+N more" note, never extra hues);
* the min/max envelope of downsampled points is drawn as a ~10%-opacity
  wash behind the mean line, so a compacted spike stays visible even
  after both downsampling stages have eaten the raw samples;
* series colors come from a fixed 8-slot colorblind-validated palette,
  assigned in label order and never cycled; identity is also carried by
  the per-chart legend table (series / last / min / max), so color is
  never the only channel;
* the alert timeline renders pending (amber) and firing (red) intervals
  per rule on a shared time axis, using status colors reserved for
  status;
* light and dark render from the same markup via
  ``prefers-color-scheme`` custom properties.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.alerts import FIRING, PENDING, RESOLVED, SUPPRESSED, AlertManager
from repro.obs.tsdb import Point, Series, TimeSeriesStore

#: Fixed categorical slots (validated light + dark; assigned in order).
PALETTE_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
PALETTE_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

#: Status colors (reserved for alert state, never series identity).
STATUS = {"pending": "#fab219", "firing": "#d03b3b", "good": "#0ca30c"}

MAX_SERIES_PER_CHART = 8

_CHART_W, _CHART_H = 640, 120
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 46, 76, 8, 18


def _fmt(value: float) -> str:
    """Compact human number: 1234 -> 1.23K, 0.000012 -> 1.2e-05."""
    if value != value:  # NaN
        return "nan"
    for suffix, scale in (("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(value) >= scale:
            return f"{value / scale:.3g}{suffix}"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if 0 < abs(value) < 1e-3:
        return f"{value:.2g}"
    return f"{value:.4g}"


def _series_label(series: Series) -> str:
    if not series.labels:
        return series.name
    return ",".join(f"{k}={v}" for k, v in series.labels)


def _x(t: float, t0: float, t1: float) -> float:
    span = (t1 - t0) or 1.0
    return _PAD_L + (t - t0) / span * (_CHART_W - _PAD_L - _PAD_R)


def _y(v: float, y0: float, y1: float) -> float:
    span = (y1 - y0) or 1.0
    return _PAD_T + (1.0 - (v - y0) / span) * (_CHART_H - _PAD_T - _PAD_B)


def _chart_svg(family: str, members: Sequence[Series],
               t0: float, t1: float) -> str:
    """One inline-SVG chart: min/max wash + mean line per series."""
    shown = list(members[:MAX_SERIES_PER_CHART])
    points_by_series: List[Tuple[Series, List[Point]]] = [
        (s, s.points(t0, t1)) for s in shown]
    points_by_series = [(s, pts) for s, pts in points_by_series if pts]
    if not points_by_series:
        return ""
    ymin = min(p.vmin for _, pts in points_by_series for p in pts)
    ymax = max(p.vmax for _, pts in points_by_series for p in pts)
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    parts: List[str] = [
        f'<svg viewBox="0 0 {_CHART_W} {_CHART_H}" role="img" '
        f'aria-label="{html.escape(family)}" '
        f'preserveAspectRatio="xMidYMid meet">']
    # Recessive hairline grid at ymin / ymax, ticks in text tokens.
    for v in (ymin, ymax):
        gy = _y(v, ymin, ymax)
        parts.append(f'<line x1="{_PAD_L}" y1="{gy:.1f}" '
                     f'x2="{_CHART_W - _PAD_R}" y2="{gy:.1f}" '
                     f'class="grid"/>')
        parts.append(f'<text x="{_PAD_L - 4}" y="{gy + 3:.1f}" '
                     f'class="tick" text-anchor="end">'
                     f'{html.escape(_fmt(v))}</text>')
    parts.append(f'<text x="{_PAD_L}" y="{_CHART_H - 4}" class="tick">'
                 f't={_fmt(t0)}s</text>')
    parts.append(f'<text x="{_CHART_W - _PAD_R}" y="{_CHART_H - 4}" '
                 f'class="tick" text-anchor="end">t={_fmt(t1)}s</text>')
    for index, (series, pts) in enumerate(points_by_series):
        color = f"var(--s{index + 1})"
        has_band = any(p.vmin != p.vmax for p in pts)
        if has_band and len(pts) > 1:
            upper = " ".join(f"{_x(p.t, t0, t1):.1f},"
                             f"{_y(p.vmax, ymin, ymax):.1f}" for p in pts)
            lower = " ".join(
                f"{_x(p.t, t0, t1):.1f},{_y(p.vmin, ymin, ymax):.1f}"
                for p in reversed(pts))
            parts.append(f'<polygon points="{upper} {lower}" '
                         f'fill="{color}" opacity="0.10" stroke="none"/>')
        line = " ".join(f"{_x(p.t, t0, t1):.1f},"
                        f"{_y(p.mean, ymin, ymax):.1f}" for p in pts)
        label = html.escape(_series_label(series))
        if len(pts) == 1:
            line = line + " " + line
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     f'stroke-linejoin="round" stroke-linecap="round">'
                     f'<title>{label}</title></polyline>')
        last = pts[-1]
        lx, ly = _x(last.t, t0, t1), _y(last.last, ymin, ymax)
        parts.append(f'<circle cx="{lx:.1f}" cy="{ly:.1f}" r="4" '
                     f'fill="{color}" stroke="var(--surface)" '
                     f'stroke-width="2"><title>{label}: '
                     f'{html.escape(_fmt(last.last))}</title></circle>')
        # Direct end-label for the first few series only (selective).
        if index < 3:
            parts.append(f'<text x="{lx + 7:.1f}" y="{ly + 3:.1f}" '
                         f'class="val">{html.escape(_fmt(last.last))}'
                         f'</text>')
    parts.append("</svg>")
    return "".join(parts)


def _legend_table(members: Sequence[Series], t0: float,
                  t1: float) -> str:
    """Per-chart series table: swatch, labels, last/min/max.

    This is the chart's identity + relief channel: even a reader who
    cannot distinguish the hues (or printed the page) gets every series
    and its envelope as text.
    """
    rows: List[str] = []
    for index, series in enumerate(members[:MAX_SERIES_PER_CHART]):
        pts = series.points(t0, t1)
        if not pts:
            continue
        last = pts[-1].last
        vmin = min(p.vmin for p in pts)
        vmax = max(p.vmax for p in pts)
        rows.append(
            f'<tr><td><span class="swatch" '
            f'style="background:var(--s{index + 1})"></span>'
            f'{html.escape(_series_label(series))}</td>'
            f'<td>{html.escape(_fmt(last))}</td>'
            f'<td>{html.escape(_fmt(vmin))}</td>'
            f'<td>{html.escape(_fmt(vmax))}</td></tr>')
    overflow = len(members) - MAX_SERIES_PER_CHART
    note = (f'<div class="note">+{overflow} more series not drawn</div>'
            if overflow > 0 else "")
    return (f'<table class="legend"><thead><tr><th>series</th>'
            f'<th>last</th><th>min</th><th>max</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>{note}')


def _alert_intervals(alerts: AlertManager, t1: float
                     ) -> List[Tuple[str, str, float, float, str]]:
    """Flatten the lifecycle log into drawable intervals.

    Returns ``(rule, labels-text, start, end, state)`` with state in
    {pending, firing}; open intervals extend to ``t1``.
    """
    open_state: Dict[Tuple[str, Any], Tuple[str, float]] = {}
    intervals: List[Tuple[str, str, float, float, str]] = []

    def close(key, until: float) -> None:
        state, since = open_state.pop(key)
        intervals.append((key[0], key[1], since, until, state))

    for event in alerts.log:
        key = (event.rule, ",".join(f"{k}={v}" for k, v in event.labels))
        if event.state == PENDING:
            open_state[key] = (PENDING, event.t)
        elif event.state == FIRING:
            if key in open_state:
                close(key, event.t)
            open_state[key] = (FIRING, event.t)
        elif event.state in (RESOLVED, SUPPRESSED):
            if key in open_state:
                close(key, event.t)
    for key in list(open_state):
        close(key, t1)
    return intervals


def _alert_timeline(alerts: AlertManager, t0: float, t1: float) -> str:
    intervals = _alert_intervals(alerts, t1)
    lanes: List[str] = []
    seen: List[str] = []
    for rule, labels, _, _, _ in intervals:
        lane = f"{rule} {labels}".strip()
        if lane not in seen:
            seen.append(lane)
        _ = rule
    if not seen:
        return '<p class="note">No alerts entered pending or firing.</p>'
    lane_h, gap = 22, 6
    height = _PAD_T + len(seen) * (lane_h + gap) + 16
    parts = [f'<svg viewBox="0 0 {_CHART_W} {height}" role="img" '
             f'aria-label="alert timeline">']
    parts.append(f'<text x="{_PAD_L}" y="{height - 4}" class="tick">'
                 f't={_fmt(t0)}s</text>')
    parts.append(f'<text x="{_CHART_W - _PAD_R}" y="{height - 4}" '
                 f'class="tick" text-anchor="end">t={_fmt(t1)}s</text>')
    for lane_index, lane in enumerate(seen):
        y = _PAD_T + lane_index * (lane_h + gap)
        parts.append(f'<line x1="{_PAD_L}" y1="{y + lane_h / 2:.1f}" '
                     f'x2="{_CHART_W - _PAD_R}" '
                     f'y2="{y + lane_h / 2:.1f}" class="grid"/>')
        for rule, labels, start, end, state in intervals:
            if f"{rule} {labels}".strip() != lane:
                continue
            x0 = _x(max(start, t0), t0, t1)
            x1 = _x(min(end, t1), t0, t1)
            color = STATUS[FIRING] if state == FIRING \
                else STATUS[PENDING]
            parts.append(
                f'<rect x="{x0:.1f}" y="{y}" '
                f'width="{max(x1 - x0, 2.0):.1f}" height="{lane_h}" '
                f'rx="4" fill="{color}"><title>'
                f'{html.escape(lane)}: {state} '
                f'[{_fmt(start)}s – {_fmt(end)}s]</title></rect>')
    parts.append("</svg>")
    lane_rows = "".join(
        f'<tr><td>{html.escape(lane)}</td>'
        f'<td>{html.escape(", ".join(f"{state} {_fmt(start)}–{_fmt(end)}s" for rule, labels, start, end, state in intervals if f"{rule} {labels}".strip() == lane))}'
        f'</td></tr>'
        for lane in seen)
    return ("".join(parts)
            + f'<table class="legend"><thead><tr><th>alert</th>'
              f'<th>intervals</th></tr></thead>'
              f'<tbody>{lane_rows}</tbody></table>')


#: Annotation marker colors by kind (remediation timeline).
ANNOTATION_COLORS = {"decision": "#2a78d6", "outcome": "#0ca30c",
                     "blocked": "#9a9890"}


def _annotation_timeline(annotations: Sequence[Tuple[float, str, str]],
                         t0: float, t1: float) -> str:
    """One lane of (t, label, kind) markers — the remediation track.

    Decisions are diamonds, outcomes dots, blocked requests hollow
    circles; identity is carried redundantly by the table below, so the
    shapes/colors are relief, not the only channel.
    """
    visible = [(t, label, kind) for t, label, kind in annotations
               if t0 <= t <= t1]
    if not visible:
        return ('<p class="note">No remediation decisions in the '
                'window.</p>')
    height = _PAD_T + 34
    mid = _PAD_T + 12
    parts = [f'<svg viewBox="0 0 {_CHART_W} {height}" role="img" '
             f'aria-label="remediation timeline">']
    parts.append(f'<line x1="{_PAD_L}" y1="{mid}" '
                 f'x2="{_CHART_W - _PAD_R}" y2="{mid}" class="grid"/>')
    parts.append(f'<text x="{_PAD_L}" y="{height - 4}" class="tick">'
                 f't={_fmt(t0)}s</text>')
    parts.append(f'<text x="{_CHART_W - _PAD_R}" y="{height - 4}" '
                 f'class="tick" text-anchor="end">t={_fmt(t1)}s</text>')
    for t, label, kind in visible:
        x = _x(t, t0, t1)
        color = ANNOTATION_COLORS.get(kind, ANNOTATION_COLORS["decision"])
        tip = f'<title>{html.escape(label)} @ {_fmt(t)}s</title>'
        if kind == "decision":
            parts.append(
                f'<path d="M {x:.1f} {mid - 6} L {x + 6:.1f} {mid} '
                f'L {x:.1f} {mid + 6} L {x - 6:.1f} {mid} Z" '
                f'fill="{color}">{tip}</path>')
        elif kind == "blocked":
            parts.append(f'<circle cx="{x:.1f}" cy="{mid}" r="5" '
                         f'fill="none" stroke="{color}" '
                         f'stroke-width="2">{tip}</circle>')
        else:
            parts.append(f'<circle cx="{x:.1f}" cy="{mid}" r="4" '
                         f'fill="{color}">{tip}</circle>')
    parts.append("</svg>")
    rows = "".join(
        f'<tr><td>{_fmt(t)}s</td><td>{html.escape(kind)}</td>'
        f'<td>{html.escape(label)}</td></tr>'
        for t, label, kind in visible)
    return ("".join(parts)
            + f'<table class="legend"><thead><tr><th>t</th><th>kind</th>'
              f'<th>event</th></tr></thead><tbody>{rows}</tbody></table>')


_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font: 14px/1.45 system-ui, sans-serif;
  background: var(--surface); color: var(--text);
  --surface: #fcfcfb; --text: #0b0b0b; --text-2: #52514e;
  --hairline: #e4e3df; --card: #ffffff;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  body {
    --surface: #1a1a19; --text: #ffffff; --text-2: #c3c2b7;
    --hairline: #33332f; --card: #222221;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 24px 0 8px; }
.sub { color: var(--text-2); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--card); border: 1px solid var(--hairline);
  border-radius: 8px; padding: 10px 14px; min-width: 110px;
}
.tile .label { color: var(--text-2); font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; }
.chart {
  background: var(--card); border: 1px solid var(--hairline);
  border-radius: 8px; padding: 12px 14px; margin: 0 0 14px;
  max-width: 720px;
}
.chart h3 { font-size: 13px; margin: 0 0 2px; }
.chart .help { color: var(--text-2); font-size: 12px; margin: 0 0 6px; }
svg { width: 100%; height: auto; display: block; }
svg .grid { stroke: var(--hairline); stroke-width: 1; }
svg .tick { fill: var(--text-2); font-size: 10px; }
svg .val { fill: var(--text); font-size: 10px; }
table.legend {
  border-collapse: collapse; font-size: 12px; margin-top: 6px;
  font-variant-numeric: tabular-nums;
}
table.legend th {
  text-align: left; color: var(--text-2); font-weight: 500;
  padding: 2px 14px 2px 0;
}
table.legend td { padding: 2px 14px 2px 0; }
.swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 6px; vertical-align: baseline;
}
.note { color: var(--text-2); font-size: 12px; margin-top: 4px; }
.banner {
  background: color-mix(in srgb, #d03b3b 12%, var(--card));
  border: 1px solid #d03b3b; border-radius: 8px;
  padding: 10px 14px; margin: 12px 0; max-width: 720px;
}
"""


def render_dashboard(store: TimeSeriesStore,
                     alerts: Optional[AlertManager] = None,
                     title: str = "Scarecrow dashboard",
                     subtitle: str = "",
                     annotations: Optional[
                         Sequence[Tuple[float, str, str]]] = None,
                     tracer: Optional[Any] = None) -> str:
    """Render the whole store to one HTML page.

    ``annotations`` is an optional sequence of ``(t, label, kind)``
    markers (kind in {decision, outcome, blocked}) rendered as a
    "Remediation" lane under the alert timeline — usually
    ``RemediationLog.annotations()``.  Pass the deployment ``tracer`` to
    surface trace truncation: a warning banner appears when its bounded
    buffer dropped events (``Tracer.dropped`` nonzero).
    """
    names = store.names()
    all_points = [p for name in names for s in store.select(name)
                  for p in s.points()]
    t0 = min((p.t for p in all_points), default=0.0)
    t1 = max((p.t for p in all_points), default=1.0)
    if t1 <= t0:
        t1 = t0 + 1.0

    firing = len(alerts.firing()) if alerts is not None else 0
    fired_total = (sum(1 for e in alerts.log if e.state == FIRING)
                   if alerts is not None else 0)
    resolved_total = (sum(1 for e in alerts.log if e.state == RESOLVED)
                      if alerts is not None else 0)
    tiles = [
        ("time range", f"{_fmt(t1 - t0)}s"),
        ("series", _fmt(len(store))),
        ("points stored", _fmt(store.total_points())),
        ("alerts firing", _fmt(firing)),
        ("fired / resolved", f"{fired_total} / {resolved_total}"),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}</div></div>'
        for label, value in tiles)

    charts: List[str] = []
    for name in names:
        members = sorted(store.select(name), key=lambda s: s.labels)
        svg = _chart_svg(name, members, t0, t1)
        if not svg:
            continue
        charts.append(
            f'<div class="chart"><h3>{html.escape(name)}</h3>'
            f'{svg}{_legend_table(members, t0, t1)}</div>')

    alert_html = (_alert_timeline(alerts, t0, t1)
                  if alerts is not None else
                  '<p class="note">No alert manager attached.</p>')
    subtitle_html = (f'<p class="sub">{html.escape(subtitle)}</p>'
                     if subtitle else "")
    remediation_html = (
        f"<h2>Remediation</h2>{_annotation_timeline(annotations, t0, t1)}"
        if annotations is not None else "")
    dropped = getattr(tracer, "dropped", 0) if tracer is not None else 0
    banner_html = (
        f'<div class="banner">⚠ Trace truncated: {dropped} event'
        f'{"s" if dropped != 1 else ""} dropped after the buffer cap '
        f"({getattr(tracer, 'max_events', 0)}) was reached — the "
        f"exported trace and any trace-derived panels undercount."
        f"</div>" if dropped else "")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>{subtitle_html}{banner_html}"
        f'<div class="tiles">{tile_html}</div>'
        f"<h2>Alerts</h2>{alert_html}"
        f"{remediation_html}"
        f"<h2>Metrics ({len(charts)} families)</h2>"
        f'{"".join(charts)}'
        "</body></html>\n")


def write_dashboard(path: str, store: TimeSeriesStore,
                    alerts: Optional[AlertManager] = None,
                    **kwargs: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(store, alerts=alerts, **kwargs))
