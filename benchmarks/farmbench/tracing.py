"""In-memory span recorder for farmbench's traced repetitions.

A span is one call across a layer boundary: name, start, end, the span
that caused it (its parent) and the phase of the repetition it ran in.
Spans are recorded from the benchmark's own files (wrappers installed by
``adapter.install_tracing``), stay in memory for the whole repetition and
are written out once at the end.  A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

#: Index of each field inside a recorded span (spans are plain lists so
#: the wrapper's hot path allocates one object per call).
NAME, START_NS, END_NS, PARENT, PHASE = range(5)

SETUP, TIMED, CHECK = "setup", "timed", "check"


class SpanRecorder:
    """Records nested spans of one repetition."""

    def __init__(self, workload: str, rep: int) -> None:
        self.workload = workload
        self.rep = rep
        self.phase = SETUP
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), 0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END_NS] = clock()
                stack.pop()

        return traced

    # -- reading -----------------------------------------------------------
    def self_times_ns(self) -> List[int]:
        """Per-span self time: duration minus direct children."""
        own = [s[END_NS] - s[START_NS] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END_NS] - span[START_NS]
        return own

    def totals(self, phase: Optional[str] = None
               ) -> Dict[str, Dict[str, float]]:
        """``{name: {count, total_s, self_s, top_s}}``, optionally for one
        phase.  ``top_s`` counts only spans with no parent span, i.e. the
        time the *caller outside every wrapper* spent waiting for them."""
        own = self.self_times_ns()
        out: Dict[str, Dict[str, float]] = {}
        for span, self_ns in zip(self.spans, own):
            if phase is not None and span[PHASE] != phase:
                continue
            row = out.setdefault(span[NAME], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0, "top_s": 0.0})
            duration = (span[END_NS] - span[START_NS]) / 1e9
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += self_ns / 1e9
            if span[PARENT] < 0:
                row["top_s"] += duration
        return out

    def dump(self, path: str) -> None:
        """Write every span (times in ns since the first span)."""
        base = self.spans[0][START_NS] if self.spans else 0
        with open(path, "w") as handle:
            json.dump({
                "workload": self.workload, "rep": self.rep,
                "fields": ["name", "start_ns", "end_ns", "parent", "phase"],
                "spans": [[s[NAME], s[START_NS] - base, s[END_NS] - base,
                           s[PARENT], s[PHASE]] for s in self.spans],
            }, handle)

