"""Flame-graph rendering for profiler cost models.

Two outputs from one :class:`~repro.obs.profiler.CostModel`:

* :func:`to_collapsed` — Brendan Gregg's folded-stack text format
  (``frame;frame;frame <ns>`` per line), consumable by the standard
  ``flamegraph.pl`` toolchain or speedscope;
* :func:`render_flamegraph` / :func:`write_flamegraph` — a
  self-contained HTML flame graph + load-imbalance report on the
  dashboard's page (:func:`repro.obs.dashboard.render_page`, one
  stylesheet): inline SVG only, fixed 8-slot palette, every number
  duplicated into legend tables so color and hover are never the only
  channel.

The "stack" of a DES event is its attribution path, not a call stack:
``component → switch/N → seed → label`` (missing levels are skipped).
Width is attributed nanoseconds; rows too narrow to draw are folded
into a per-parent ``(+N more)`` tail rect rather than silently dropped.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.dashboard import render_page
from repro.obs.profiler import CostModel, ImbalanceReport

#: Minimum rect width (px at the 1000-unit viewBox scale) worth drawing;
#: narrower frames are folded into a "+N more" tail.
MIN_FRAME_PX = 1.5

_FRAME_H = 22
_GRAPH_W = 1000
_TEXT_PX = 11


class _Node:
    __slots__ = ("name", "value", "events", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.events = 0
        self.children: Dict[str, "_Node"] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node

    def sorted_children(self) -> List["_Node"]:
        return sorted(self.children.values(),
                      key=lambda n: (-n.value, n.name))


def _frames(entry: Any) -> List[str]:
    """Attribution path of one cost entry, root-first."""
    frames = [entry.component or "kernel"]
    if entry.switch is not None:
        frames.append(f"switch/{entry.switch}")
    if entry.seed is not None:
        frames.append(str(entry.seed))
    if entry.label and entry.label != frames[-1]:
        frames.append(entry.label)
    return frames


def _build_tree(model: CostModel) -> _Node:
    root = _Node("all")
    for entry in model.entries:
        root.value += entry.ns
        root.events += entry.events
        node = root
        for frame in _frames(entry):
            node = node.child(frame)
            node.value += entry.ns
            node.events += entry.events
    return root


def to_collapsed(model: CostModel) -> str:
    """Folded-stack text: one ``frame;frame <ns>`` line per cost key.

    Lines are sorted hottest-first; values are attributed nanoseconds.
    """
    lines = sorted(
        ((";".join(_frames(entry)), entry.ns) for entry in model.entries),
        key=lambda item: (-item[1], item[0]))
    return "".join(f"{stack} {ns}\n" for stack, ns in lines)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3g}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3g}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3g}µs"
    return f"{ns:.0f}ns"


def _depth(node: _Node) -> int:
    if not node.children:
        return 1
    return 1 + max(_depth(child) for child in node.children.values())


def _render_frames(node: _Node, total: int, x: float, depth: int,
                   slot: int, parts: List[str]) -> None:
    """Emit one row of child rects under ``node`` (recursive)."""
    y = depth * (_FRAME_H + 2)
    cursor = x
    folded = 0
    folded_ns = 0
    for index, child in enumerate(node.sorted_children()):
        width = child.value / total * _GRAPH_W
        child_slot = (index % 8) + 1 if depth == 1 else slot
        if width < MIN_FRAME_PX:
            folded += 1
            folded_ns += child.value
            continue
        pct = child.value / total * 100.0
        label = html.escape(child.name)
        parts.append(
            f'<g><rect x="{cursor:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_FRAME_H}" rx="2" class="frame" '
            f'fill="var(--s{child_slot})">'
            f'<title>{label}: {_fmt_ns(child.value)} ({pct:.1f}%), '
            f'{child.events} events</title></rect>')
        # Only draw text that fits (~0.55 * font px per character).
        max_chars = int(width / (_TEXT_PX * 0.55)) - 1
        if max_chars >= 2:
            text = child.name
            if len(text) > max_chars:
                text = text[:max_chars - 1] + "…"
            parts.append(
                f'<text x="{cursor + 4:.2f}" y="{y + _FRAME_H - 7}" '
                f'class="frame-label">{html.escape(text)}</text>')
        parts.append("</g>")
        _render_frames(child, total, cursor, depth + 1, child_slot, parts)
        cursor += width
    if folded:
        width = max(folded_ns / total * _GRAPH_W, 0.75)
        parts.append(
            f'<rect x="{cursor:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_FRAME_H}" rx="2" class="frame folded">'
            f'<title>+{folded} more frames: {_fmt_ns(folded_ns)}'
            f'</title></rect>')


def _flame_svg(root: _Node) -> str:
    if root.value <= 0:
        return '<p class="note">No attributed cost recorded.</p>'
    depth = _depth(root)
    height = depth * (_FRAME_H + 2)
    parts = [f'<svg viewBox="0 0 {_GRAPH_W} {height}" role="img" '
             f'aria-label="flame graph" '
             f'preserveAspectRatio="xMidYMid meet">']
    parts.append(
        f'<rect x="0" y="0" width="{_GRAPH_W}" height="{_FRAME_H}" '
        f'rx="2" class="frame root">'
        f'<title>all: {_fmt_ns(root.value)} (100%), '
        f'{root.events} events</title></rect>')
    parts.append(f'<text x="4" y="{_FRAME_H - 7}" class="frame-label root">'
                 f'all · {_fmt_ns(root.value)} · {root.events} events'
                 f'</text>')
    _render_frames(root, root.value, 0.0, 1, 1, parts)
    parts.append("</svg>")
    return "".join(parts)


def _hot_table(title: str, rows: List[Tuple[str, int]],
               total: int) -> str:
    if not rows or total <= 0:
        return ""
    body = "".join(
        f"<tr><td>{html.escape(name)}</td>"
        f"<td>{_fmt_ns(ns)}</td>"
        f"<td>{ns / total * 100.0:.1f}%</td></tr>"
        for name, ns in rows)
    return (f"<h2>{html.escape(title)}</h2>"
            f'<table class="legend"><thead><tr><th>name</th>'
            f"<th>cost</th><th>share</th></tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _imbalance_html(report: ImbalanceReport, k: int) -> str:
    """Per-switch share bars + skew stats — the shard-partitioner view.

    Shares are fractions of *switch-attributed* cost and sum to 1.0
    across the whole fleet (the table shows the top ``k``).
    """
    if not report.per_switch_ns:
        return ('<h2>Load imbalance</h2><p class="note">No cost was '
                "attributed to any switch.</p>")
    rows = []
    for switch, ns, share in report.top(k):
        bar = max(share * 100.0, 0.5)
        rows.append(
            f"<tr><td>switch/{html.escape(str(switch))}</td>"
            f"<td>{_fmt_ns(ns)}</td>"
            f"<td>{share * 100.0:.2f}%</td>"
            f'<td><div class="bar" style="width:{bar:.1f}%"></div></td>'
            f"</tr>")
    hidden = len(report.per_switch_ns) - k
    note = (f'<div class="note">+{hidden} cooler switches not listed '
            f"(shares still sum to 1.0 fleet-wide)</div>"
            if hidden > 0 else "")
    return (
        "<h2>Load imbalance</h2>"
        f'<p class="sub">Gini {report.gini:.3f} · max/mean skew '
        f"{report.max_mean_skew:.2f}× · "
        f"{report.attributed_fraction * 100.0:.1f}% of profiled cost "
        f"carried a switch id. Shares are each switch's fraction of all "
        f"switch-attributed cost — the balance target for a shard "
        f"partitioner (see the sharding item in ROADMAP.md).</p>"
        f'<table class="legend imbalance"><thead><tr><th>switch</th>'
        f"<th>cost</th><th>share</th><th></th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>{note}")


def render_flamegraph(model: CostModel,
                      title: str = "Surveyor profile",
                      subtitle: str = "",
                      top_k: int = 10,
                      report: Optional[ImbalanceReport] = None) -> str:
    """Render a cost model to one self-contained HTML page.

    The page carries the flame graph (attribution hierarchy
    component → switch → seed → label, width = attributed time), a
    top-k hot switch/seed/label breakdown, and the load-imbalance
    report (pass ``report`` to reuse one already computed).
    """
    root = _build_tree(model)
    if report is None:
        report = model.imbalance_report()
    tiles = [
        ("attributed", _fmt_ns(model.total_ns)),
        ("events", f"{model.total_events}"),
        ("cost keys", f"{len(model.entries)}"),
        ("gini", f"{report.gini:.3f}"),
        ("max/mean", f"{report.max_mean_skew:.2f}×"),
    ]
    total = model.total_ns
    hot = "".join((
        _hot_table("Hot switches",
                   [(f"switch/{s}", ns)
                    for s, ns in model.top_switches(top_k)], total),
        _hot_table("Hot seeds", model.top_seeds(top_k), total),
        _hot_table("Hot components",
                   sorted(model.by_component().items(),
                          key=lambda i: (-i[1], str(i[0])))[:top_k],
                   total),
    ))
    return render_page(
        title, subtitle, tiles,
        f"<h2>Flame graph</h2>"
        f'<p class="sub">Hover a frame for exact cost. Hierarchy is the '
        f"attribution path component → switch → seed → label; width is "
        f"attributed wall-clock.</p>"
        f'<div class="graph">{_flame_svg(root)}</div>'
        f"{_imbalance_html(report, top_k)}"
        f"{hot}")


def write_flamegraph(path: str, model: CostModel, **kwargs: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_flamegraph(model, **kwargs))


def write_collapsed(path: str, model: CostModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_collapsed(model))
