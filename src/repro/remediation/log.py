"""The remediation decision history: every intervention, causally linked.

Each engine decision — executed, dry-run, or blocked by a guardrail —
appends one :class:`RemediationRecord` carrying the full alert → decision
→ action → outcome chain.  The log is exported through the obs registry
(decision/outcome counters, an active-interventions gauge) and through
the tracer on a dedicated ``remediation`` track, so the dashboard
timeline shows an alert firing, the policy deciding, the action running,
and its outcome as one causally linked async span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Decision verdicts a record can carry.
DECISION_EXECUTED = "executed"
DECISION_DRY_RUN = "dry-run"
DECISION_BLOCKED = "blocked"


@dataclass
class RemediationRecord:
    """One remediation decision and (if executed) its outcome."""

    seq: int
    t: float
    action: str            # drain / restore / quarantine / escalate / ...
    switch: Optional[int]
    policy: str            # class name of the deciding policy
    rule: str              # alert rule that triggered the decision
    labels: Dict[str, str] = field(default_factory=dict)
    alert_state: str = ""  # lifecycle state that triggered (firing/...)
    alert_t: float = 0.0   # when the alert transitioned
    decision: str = DECISION_EXECUTED
    blocked_by: str = ""   # guardrail name when decision == blocked
    outcome: str = ""      # e.g. "drained 2 seeds", "no-op", an error
    detail: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> Tuple[str, Optional[int], str, str]:
        """Identity for dry-run parity checks: what was decided, not when.

        Timestamps are excluded on purpose — an *acting* engine perturbs
        the chaos RNG stream and the bus schedule, so sim-times drift
        between an active and a dry run even though the decisions match.
        """
        decision = (DECISION_EXECUTED if self.decision == DECISION_DRY_RUN
                    else self.decision)
        return (self.action, self.switch, self.rule, decision)


class RemediationLog:
    """Append-only decision history with obs-registry/tracer export."""

    TRACK = "remediation"

    def __init__(self, registry: Any = None, tracer: Any = None) -> None:
        self.records: List[RemediationRecord] = []
        self._seq = 0
        self.registry = registry
        self.tracer = tracer
        self._g_active = None
        if registry is not None:
            self._g_active = registry.gauge(
                "farm_remediation_active_interventions",
                "Interventions currently open (acted, not yet restored).")

    # ------------------------------------------------------------------
    def record(self, t: float, action: str, switch: Optional[int],
               policy: str, rule: str, labels: Dict[str, str],
               alert_state: str, alert_t: float, decision: str,
               blocked_by: str = "",
               detail: Optional[Dict[str, Any]] = None
               ) -> RemediationRecord:
        """Append one decision; outcome is attached later via
        :meth:`finish` once the action has run."""
        rec = RemediationRecord(
            seq=self._seq, t=t, action=action, switch=switch,
            policy=policy, rule=rule, labels=dict(labels),
            alert_state=alert_state, alert_t=alert_t,
            decision=decision, blocked_by=blocked_by,
            detail=dict(detail or {}))
        self._seq += 1
        self.records.append(rec)
        if self.registry is not None:
            self.registry.counter(
                "farm_remediation_decisions_total",
                "Remediation decisions by action and verdict.",
                labels={"action": action, "decision": decision}).inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            name = f"{action} sw{switch}" if switch is not None else action
            args = {"rule": rule, "policy": policy,
                    "alert_state": alert_state, "alert_t": alert_t,
                    "decision": decision}
            if blocked_by:
                args["blocked_by"] = blocked_by
            if decision == DECISION_EXECUTED:
                # Async span: begin at the decision, end at the outcome —
                # the dashboard/Perfetto view stitches them causally.
                tracer.async_begin(name, f"rem-{rec.seq}",
                                   track=self.TRACK, cat="remediation",
                                   args=args)
            else:
                tracer.instant(f"{name} [{decision}]", track=self.TRACK,
                               cat="remediation", args=args)
        return rec

    def finish(self, rec: RemediationRecord, outcome: str,
               **detail: Any) -> None:
        """Attach the action's outcome and close its trace span."""
        rec.outcome = outcome
        if detail:
            rec.detail.update(detail)
        if self.registry is not None:
            self.registry.counter(
                "farm_remediation_outcomes_total",
                "Completed remediation actions by action and outcome.",
                labels={"action": rec.action, "outcome": outcome}).inc()
        tracer = self.tracer
        if tracer is not None and tracer.enabled \
                and rec.decision == DECISION_EXECUTED:
            name = (f"{rec.action} sw{rec.switch}"
                    if rec.switch is not None else rec.action)
            tracer.async_end(name, f"rem-{rec.seq}", track=self.TRACK,
                             cat="remediation",
                             args={"outcome": outcome, **rec.detail})

    def set_active(self, count: int) -> None:
        if self._g_active is not None:
            self._g_active.set(count)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def decided(self) -> List[RemediationRecord]:
        """Records where the policy *would* act: executed or dry-run
        (blocked records are guardrail refusals, not decisions to act)."""
        return [r for r in self.records
                if r.decision in (DECISION_EXECUTED, DECISION_DRY_RUN)]

    def decision_keys(self) -> List[Tuple[str, Optional[int], str, str]]:
        """Normalized decision identities, for dry-run parity checks."""
        return [r.key() for r in self.decided()]

    def annotations(self) -> List[Tuple[float, str, str]]:
        """(t, label, kind) tuples for the dashboard timeline."""
        out: List[Tuple[float, str, str]] = []
        for r in self.records:
            where = f" sw{r.switch}" if r.switch is not None else ""
            if r.decision == DECISION_BLOCKED:
                out.append((r.t, f"{r.action}{where} ⊘ {r.blocked_by}",
                            "blocked"))
            elif r.decision == DECISION_DRY_RUN:
                out.append((r.t, f"{r.action}{where} (dry)", "decision"))
            else:
                out.append((r.t, f"{r.action}{where}", "decision"))
                if r.outcome:
                    out.append((r.t, f"{r.action}{where}: {r.outcome}",
                                "outcome"))
        return out
