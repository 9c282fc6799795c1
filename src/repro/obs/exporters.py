"""Exporters: Prometheus text and Chrome trace_event JSON.

Two output formats, one per consumer:

* :func:`to_prometheus_text` — the Prometheus exposition format (scrape-able,
  diff-able in CI artifacts);
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON array format,
  keyed on **sim-time** (1 sim-microsecond = 1 trace-microsecond) so a DES
  run opens in ``chrome://tracing`` or https://ui.perfetto.dev as a
  per-switch timeline.  Each tracer *track* becomes a named thread.

:func:`validate_chrome_trace` is a self-check used by tests and the perf
harness: it enforces the subset of the trace_event schema we emit, so a
malformed trace fails CI instead of silently rendering empty.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Fixed pid for the whole simulated deployment (one "process").
TRACE_PID = 1

#: Valid phase codes for the events we emit (plus metadata).
_VALID_PHASES = {"X", "i", "b", "e", "M", "C"}


# ---------------------------------------------------------------------------
# Prometheus text
# ---------------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_labels(labels: Any, extra: Optional[Dict[str, str]] = None) -> str:
    items = list(labels) + sorted((extra or {}).items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    # Integral values print as integers: "2" not "2.0", so exact counters
    # round-trip exactly and diffs stay readable.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus_text(registry: MetricsRegistry,
                       tracer: Optional[Tracer] = None) -> str:
    """Render the registry in the Prometheus exposition format.

    Pass the deployment ``tracer`` to append ``farm_trace_dropped_total``
    — events the bounded trace buffer refused — so truncated traces are
    visible in scraped metrics, not just in the trace file itself.
    """
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind == "histogram":
                cumulative = child.cumulative_counts()
                for bound, count in zip(child.buckets, cumulative[:-1]):
                    labels = _format_labels(key, {"le": _format_value(bound)})
                    lines.append(f"{family.name}_bucket{labels} {count}")
                labels = _format_labels(key, {"le": "+Inf"})
                lines.append(f"{family.name}_bucket{labels} {child.count}")
                lines.append(f"{family.name}_sum{_format_labels(key)} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{_format_labels(key)} "
                             f"{child.count}")
            else:
                lines.append(f"{family.name}{_format_labels(key)} "
                             f"{_format_value(child.value)}")
    if tracer is not None:
        lines.append("# HELP farm_trace_dropped_total Trace events "
                     "dropped after the buffer cap was reached.")
        lines.append("# TYPE farm_trace_dropped_total counter")
        lines.append(f"farm_trace_dropped_total {tracer.dropped}")
    return "\n".join(lines) + "\n"


def _end_of_label_block(line: str, start: int) -> int:
    """Index just past the ``}`` closing the label block opened at
    ``start`` (which must point at ``{``), honoring quotes and
    backslash escapes so a ``}`` inside a label value doesn't end the
    block early."""
    i, n = start + 1, len(line)
    in_quote = False
    while i < n:
        ch = line[i]
        if in_quote:
            if ch == "\\":
                i += 1  # skip the escaped character
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        elif ch == "}":
            return i + 1
        i += 1
    raise ValueError(f"unterminated label block: {line!r}")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Minimal exposition-format parser (round-trip testing aid).

    Returns ``{"name{k=\"v\",...}": value}`` with labels in the order they
    appear on the line.  The label block is scanned quote-aware, so label
    values containing spaces (or escaped quotes/backslashes) keep the key
    intact instead of being split at the last space on the line.  Handles
    the subset :func:`to_prometheus_text` emits; not a general scraper.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        brace = line.find("{")
        if brace != -1:
            end = _end_of_label_block(line, brace)
            name_part, value_part = line[:end], line[end:].strip()
        else:
            name_part, _, value_part = line.rpartition(" ")
            name_part = name_part.rstrip()
        if not name_part or not value_part:
            raise ValueError(f"malformed exposition line: {line!r}")
        value = float(value_part)
        out[name_part] = value
    return out


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus_text(registry))


# ---------------------------------------------------------------------------
# Chrome trace_event JSON
# ---------------------------------------------------------------------------

def _track_sort_key(track: str) -> tuple:
    # switch/N tracks sort numerically; control tracks first.
    head, _, tail = track.partition("/")
    try:
        return (1, head, int(tail))
    except ValueError:
        return (0, track, 0)


def to_chrome_trace(tracer: Tracer,
                    registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """Convert buffered events to the Chrome ``trace_event`` JSON format.

    Sim-time seconds become trace microseconds.  Every distinct track gets
    a stable tid plus a ``thread_name`` metadata record, so Perfetto shows
    named per-switch rows.  When ``registry`` is given, its snapshot rides
    along under ``otherData`` (visible in the trace viewer's metadata).
    """
    tids: Dict[str, int] = {}
    for track in sorted({e["track"] for e in tracer.events},
                        key=_track_sort_key):
        tids[track] = len(tids) + 1

    events: List[Dict[str, Any]] = []
    for track, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": TRACE_PID,
                       "tid": tid, "args": {"name": track}})
    for event in tracer.events:
        record: Dict[str, Any] = {
            "ph": event["ph"], "name": event["name"],
            "cat": event.get("cat") or "event",
            "pid": TRACE_PID, "tid": tids[event["track"]],
            "ts": event["ts"] * 1e6,
        }
        if event["ph"] == "X":
            record["dur"] = event.get("dur", 0.0) * 1e6
        if event["ph"] == "i":
            record["s"] = "t"  # instant scope: thread
        if "id" in event:
            record["id"] = event["id"]
        args = event.get("args")
        if args:
            record["args"] = dict(args)
        events.append(record)

    doc: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    other: Dict[str, Any] = {"clock": "sim-time", "dropped_events": tracer.dropped}
    if registry is not None:
        other["metrics"] = registry.snapshot()
    doc["otherData"] = other
    return doc


def validate_chrome_trace(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace we emit.

    Checks the trace_event structural rules: a ``traceEvents`` list whose
    records carry ``name``/``ph``/``pid``/``tid``, numeric non-negative
    ``ts`` (except metadata), ``dur`` on complete events, and ``id`` on
    async begin/end pairs.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace document must have a traceEvents list")
    open_async: Dict[Any, int] = {}
    for i, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"traceEvents[{i}]: unsupported phase {ph!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"traceEvents[{i}]: missing string name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"traceEvents[{i}]: missing integer pid")
        if not isinstance(event.get("tid"), (int, str)):
            raise ValueError(f"traceEvents[{i}]: missing tid")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"traceEvents[{i}]: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}]: complete event "
                                 f"needs non-negative dur, got {dur!r}")
        if ph == "C":
            args = event.get("args")
            if (not isinstance(args, dict) or not args
                    or not all(isinstance(v, (int, float))
                               for v in args.values())):
                raise ValueError(f"traceEvents[{i}]: counter event needs "
                                 f"a dict of numeric series, got {args!r}")
        if ph in ("b", "e"):
            if not isinstance(event.get("cat"), str):
                raise ValueError(f"traceEvents[{i}]: async event needs cat")
            if "id" not in event:
                raise ValueError(f"traceEvents[{i}]: async event needs id")
            key = (event["cat"], event["id"])
            open_async[key] = open_async.get(key, 0) + (1 if ph == "b" else -1)
    # Unmatched ends mean a begin was lost (or emitted out of order).
    for key, depth in open_async.items():
        if depth < 0:
            raise ValueError(f"async end without begin for {key!r}")


def write_chrome_trace(tracer: Tracer, path: str,
                       registry: Optional[MetricsRegistry] = None) -> None:
    doc = to_chrome_trace(tracer, registry=registry)
    validate_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
