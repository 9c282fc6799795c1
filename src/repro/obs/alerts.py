"""SLO / alert rule engine over the Scarecrow TSDB.

Mirrors the paper's thesis at the meta level: instead of shipping a raw
telemetry firehose somewhere else to notice that monitoring degraded,
evaluation happens *next to the data* — rules run against the embedded
:class:`~repro.obs.query.QueryEngine` right after every scrape, in
sim-time, inside the same DES run they observe.

Two rule families:

* :class:`ThresholdRule` — a reduced query (``instant`` / ``rate`` /
  ``avg`` / ``min`` / ``max`` / ``delta`` over a window, optionally
  summed across series) compared against a fixed bound, with a separate
  ``clear_threshold`` for hysteresis;
* :class:`EwmaAnomalyRule` — an exponentially weighted mean/variance
  baseline per series; the rule breaches when the z-score of the latest
  reduction exceeds ``z_threshold``.  The baseline freezes while the
  rule is breached, so a long incident cannot teach the detector that
  broken is normal.

Lifecycle (per rule × label set): ``inactive → pending`` when the
condition first holds, ``pending → firing`` once it has held for
``for_s`` (flap suppression), ``firing → resolved → inactive`` when the
clear condition holds.  Every transition is appended to
:attr:`AlertManager.log` and recorded as an instant on the
``scarecrow`` tracer track, so alert history rides along in the Chrome
trace next to the events that caused it.

Firing alerts can optionally be fed to the
:class:`~repro.core.fault_tolerance.FaultToleranceManager` as suspicion
evidence (:meth:`AlertManager.feed_fault_tolerance`): an alert whose
labels carry a ``switch`` marks that switch *suspected* — evidence, not
a verdict; only missed heartbeats confirm failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import LabelValues
from repro.obs.query import QueryEngine, Vector, parse_selector
from repro.obs.trace import NULL_TRACER, Tracer

#: Tracer track that carries alert lifecycle instants.
SCARECROW_TRACK = "scarecrow"

#: Lifecycle states (``resolved`` is a transition event, not a resting
#: state — a resolved alert is inactive again).
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"
SUPPRESSED = "suppressed"  # a pending that flapped away before for_s

_REDUCERS = ("instant", "rate", "avg", "min", "max", "delta")


@dataclass
class AlertEvent:
    """One lifecycle transition, as recorded in the alert log."""

    t: float
    rule: str
    labels: LabelValues
    state: str  # pending | firing | resolved | suppressed
    value: float
    severity: str = "warning"


class AlertRule:
    """Base class: evaluate to a vector, decide breach/clear per value."""

    def __init__(self, name: str, severity: str = "warning",
                 for_s: float = 0.0, description: str = "") -> None:
        if for_s < 0:
            raise ValueError("for_s must be non-negative")
        self.name = name
        self.severity = severity
        self.for_s = for_s
        self.description = description

    def evaluate(self, engine: QueryEngine, now: float) -> Vector:
        raise NotImplementedError

    def is_breach(self, labels: LabelValues, value: float) -> bool:
        raise NotImplementedError

    def is_clear(self, labels: LabelValues, value: float) -> bool:
        """Hysteresis hook; defaults to "not breached"."""
        return not self.is_breach(labels, value)


def _reduce(engine: QueryEngine, reducer: str, name: str,
            match: Optional[Mapping[str, Any]], window_s: Optional[float],
            now: float) -> Vector:
    if reducer == "instant":
        return engine.instant(name, match, at=now)
    if reducer == "rate":
        return engine.rate(name, match, window_s=window_s, at=now)
    if reducer == "avg":
        return engine.avg_over_time(name, match, window_s=window_s, at=now)
    if reducer == "min":
        return engine.min_over_time(name, match, window_s=window_s, at=now)
    if reducer == "max":
        return engine.max_over_time(name, match, window_s=window_s, at=now)
    if reducer == "delta":
        return engine.delta(name, match, window_s=window_s, at=now)
    raise ValueError(f"unknown reducer {reducer!r} (want one of "
                     f"{_REDUCERS})")


class ThresholdRule(AlertRule):
    """``reducer(selector) OP threshold``, with optional hysteresis.

    ``op`` is ``">"`` (breach above) or ``"<"`` (breach below).  The
    alert resolves only once the value crosses ``clear_threshold``
    (defaults to ``threshold`` — no hysteresis band).  ``aggregate=
    "sum"`` collapses the matched series to one unlabeled value first,
    for fleet-wide SLOs.  ``expr`` overrides the selector entirely with
    a callable ``(engine, now) -> Vector`` escape hatch.
    """

    def __init__(self, name: str, selector: str = "",
                 op: str = ">", threshold: float = 0.0,
                 clear_threshold: Optional[float] = None,
                 reducer: str = "instant",
                 window_s: Optional[float] = None,
                 aggregate: Optional[str] = None,
                 expr: Optional[Callable[[QueryEngine, float], Vector]] = None,
                 severity: str = "warning", for_s: float = 0.0,
                 description: str = "") -> None:
        super().__init__(name, severity=severity, for_s=for_s,
                         description=description)
        if op not in (">", "<"):
            raise ValueError(f"op must be '>' or '<': {op!r}")
        if aggregate not in (None, "sum"):
            raise ValueError(f"unsupported aggregate {aggregate!r}")
        if expr is None and not selector:
            raise ValueError("a selector or an expr callable is required")
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        if clear_threshold is not None:
            widens = (clear_threshold <= threshold if op == ">"
                      else clear_threshold >= threshold)
            if not widens:
                raise ValueError(
                    "clear_threshold must be on the clear side of "
                    "threshold (hysteresis widens, never narrows)")
        self.metric, self.match = (parse_selector(selector) if selector
                                   else ("", {}))
        self.op = op
        self.threshold = threshold
        self.clear_threshold = (threshold if clear_threshold is None
                                else clear_threshold)
        self.reducer = reducer
        self.window_s = window_s
        self.aggregate = aggregate
        self.expr = expr

    def evaluate(self, engine: QueryEngine, now: float) -> Vector:
        if self.expr is not None:
            vector = self.expr(engine, now)
        else:
            vector = _reduce(engine, self.reducer, self.metric, self.match,
                             self.window_s, now)
        if self.aggregate == "sum" and vector:
            return {(): QueryEngine.sum(vector)}
        return vector

    def is_breach(self, labels: LabelValues, value: float) -> bool:
        return value > self.threshold if self.op == ">" \
            else value < self.threshold

    def is_clear(self, labels: LabelValues, value: float) -> bool:
        return value <= self.clear_threshold if self.op == ">" \
            else value >= self.clear_threshold


@dataclass
class _EwmaState:
    mean: float = 0.0
    var: float = 0.0
    samples: int = 0
    breached: bool = False


class EwmaAnomalyRule(AlertRule):
    """EWMA z-score anomaly detector per series.

    Maintains ``mean``/``var`` with decay ``alpha`` per scrape; the rule
    breaches when ``|value - mean| / std > z_threshold`` (one-sided via
    ``direction="above"``/``"below"``), and clears once the z-score is
    back inside ``clear_z`` (default ``z_threshold / 2`` — hysteresis).
    The first ``min_samples`` reductions only warm the baseline.  While
    breached, the baseline is frozen so incidents don't get absorbed.
    ``min_std`` floors the denominator — a perfectly flat baseline must
    not turn a one-sample wiggle into an infinite z-score.
    """

    def __init__(self, name: str, selector: str,
                 reducer: str = "rate", window_s: Optional[float] = None,
                 alpha: float = 0.3, z_threshold: float = 4.0,
                 clear_z: Optional[float] = None, min_samples: int = 5,
                 min_std: float = 1e-3, direction: str = "both",
                 severity: str = "warning", for_s: float = 0.0,
                 description: str = "") -> None:
        super().__init__(name, severity=severity, for_s=for_s,
                         description=description)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1]: {alpha}")
        if direction not in ("above", "below", "both"):
            raise ValueError(f"bad direction {direction!r}")
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        if window_s is not None and window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        self.metric, self.match = parse_selector(selector)
        self.reducer = reducer
        self.window_s = window_s
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.clear_z = z_threshold / 2.0 if clear_z is None else clear_z
        self.min_samples = min_samples
        self.min_std = min_std
        self.direction = direction
        self._state: Dict[LabelValues, _EwmaState] = {}
        self._z: Dict[LabelValues, float] = {}

    def _signed_z(self, state: _EwmaState, value: float) -> float:
        std = max(math.sqrt(max(state.var, 0.0)), self.min_std)
        z = (value - state.mean) / std
        if self.direction == "above":
            return max(z, 0.0)
        if self.direction == "below":
            return max(-z, 0.0)
        return abs(z)

    def evaluate(self, engine: QueryEngine, now: float) -> Vector:
        vector = _reduce(engine, self.reducer, self.metric, self.match,
                         self.window_s, now)
        for labels, value in vector.items():
            state = self._state.setdefault(labels, _EwmaState())
            if state.samples < self.min_samples:
                # Warm-up: learn the baseline, never breach.
                self._z[labels] = 0.0
            else:
                self._z[labels] = self._signed_z(state, value)
            z = self._z[labels]
            state.breached = (z > self.clear_z if state.breached
                              else z > self.z_threshold)
            if not state.breached:
                alpha = self.alpha
                diff = value - state.mean
                state.mean += alpha * diff
                state.var = (1 - alpha) * (state.var + alpha * diff * diff)
                state.samples += 1
        return vector

    def is_breach(self, labels: LabelValues, value: float) -> bool:
        state = self._state.get(labels)
        return bool(state and state.breached
                    and self._z.get(labels, 0.0) > self.z_threshold)

    def is_clear(self, labels: LabelValues, value: float) -> bool:
        state = self._state.get(labels)
        return not state or not state.breached


@dataclass
class ActiveAlert:
    """Current state of one (rule, labels) pair."""

    rule: AlertRule
    labels: LabelValues
    state: str  # pending | firing
    since: float  # when the condition started holding
    fired_at: Optional[float] = None
    value: float = 0.0


class AlertManager:
    """Evaluates rules after each scrape and tracks alert lifecycles."""

    def __init__(self, engine: QueryEngine,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self.rules: List[AlertRule] = []
        self.active: Dict[Tuple[str, LabelValues], ActiveAlert] = {}
        self.log: List[AlertEvent] = []
        self.on_firing: List[Callable[[AlertEvent], None]] = []
        #: Structured lifecycle subscribers: called once per transition
        #: (pending/firing/resolved/suppressed alike), after the whole
        #: evaluation pass settles — a subscriber that reacts by mutating
        #: the deployment (e.g. the remediation engine) never races the
        #: rule loop.
        self.on_transition: List[Callable[[AlertEvent], None]] = []
        self.evaluations = 0

    def add_rule(self, rule: AlertRule) -> AlertRule:
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError(f"duplicate alert rule {rule.name!r}")
        self.rules.append(rule)
        return rule

    # -- lifecycle ---------------------------------------------------------
    def _record(self, now: float, rule: AlertRule, labels: LabelValues,
                state: str, value: float) -> AlertEvent:
        event = AlertEvent(t=now, rule=rule.name, labels=labels,
                           state=state, value=value,
                           severity=rule.severity)
        self.log.append(event)
        tracer = self.tracer
        if tracer.enabled:
            suffix = f" {dict(labels)}" if labels else ""
            tracer.instant(f"{state}: {rule.name}{suffix}",
                           track=SCARECROW_TRACK, cat="alert",
                           args={"rule": rule.name, "state": state,
                                 "value": value,
                                 "severity": rule.severity})
        return event

    def evaluate(self, now: Optional[float] = None) -> List[AlertEvent]:
        """Run every rule once; returns the transitions that happened."""
        if now is None:
            now = self._clock() if self._clock is not None \
                else self.engine.latest_time()
        self.evaluations += 1
        transitions: List[AlertEvent] = []
        for rule in self.rules:
            vector = rule.evaluate(self.engine, now)
            for labels, value in vector.items():
                key = (rule.name, labels)
                active = self.active.get(key)
                if active is None:
                    if rule.is_breach(labels, value):
                        active = ActiveAlert(rule, labels, PENDING, now,
                                             value=value)
                        self.active[key] = active
                        transitions.append(self._record(
                            now, rule, labels, PENDING, value))
                        # A zero hold promotes immediately.
                        if rule.for_s == 0.0:
                            self._promote(active, now, value, transitions)
                    continue
                active.value = value
                if active.state == PENDING:
                    if rule.is_clear(labels, value):
                        # Condition let go before the hold expired: a
                        # flap.  Logged (so timelines can close the
                        # pending interval) but never promoted.
                        del self.active[key]
                        transitions.append(self._record(
                            now, rule, labels, SUPPRESSED, value))
                    elif now - active.since >= rule.for_s:
                        self._promote(active, now, value, transitions)
                elif active.state == FIRING:
                    if rule.is_clear(labels, value):
                        del self.active[key]
                        transitions.append(self._record(
                            now, rule, labels, RESOLVED, value))
        for event in transitions:
            for hook in self.on_transition:
                hook(event)
        return transitions

    def _promote(self, active: ActiveAlert, now: float, value: float,
                 transitions: List[AlertEvent]) -> None:
        active.state = FIRING
        active.fired_at = now
        event = self._record(now, active.rule, active.labels, FIRING, value)
        transitions.append(event)
        for hook in self.on_firing:
            hook(event)

    # -- reading -----------------------------------------------------------
    def firing(self) -> List[ActiveAlert]:
        return [a for a in self.active.values() if a.state == FIRING]

    def events_for(self, rule_name: str) -> List[AlertEvent]:
        return [e for e in self.log if e.rule == rule_name]

    # -- integration -------------------------------------------------------
    def feed_fault_tolerance(self, manager: Any,
                             label: str = "switch") -> None:
        """Feed firing alerts to a FaultToleranceManager as suspicion
        evidence: any firing alert carrying a ``label`` (default
        ``switch``) label marks that switch suspected.  Evidence only —
        confirmation still requires missed heartbeats, so a noisy alert
        rule cannot fail over a healthy switch.
        """
        def hook(event: AlertEvent) -> None:
            labels = dict(event.labels)
            if label in labels:
                try:
                    switch_id = int(labels[label])
                except ValueError:
                    return
                manager.external_suspicion(
                    switch_id, source=f"scarecrow:{event.rule}")

        self.on_firing.append(hook)
