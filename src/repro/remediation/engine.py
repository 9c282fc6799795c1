"""The remediation engine: subscribes to alerts, executes guarded actions.

Wiring::

    engine = RemediationEngine(seeder, fault_tolerance=ft)
    engine.add_policy(DrainPolicy("heartbeat-degraded"))
    engine.attach(scarecrow)          # or an AlertManager directly

Every alert lifecycle transition flows through every policy; each
resulting :class:`ActionRequest` passes the guardrails and is then
executed — or, in **dry-run** mode, recorded but not executed (the
guardrails still commit, so the decision stream is identical to an
active engine's).  The engine executes the three actions the shipped
policies emit: ``drain`` (``Seeder.drain``: cordon the switch and
re-place only its seeds), ``restore`` (uncordon, then a global
re-solve) and ``escalate`` (a forced failover).  Each decision and
outcome lands in the :class:`RemediationLog` and on the tracer's
``remediation`` track.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs.alerts import AlertEvent
from repro.remediation.guardrails import GuardrailConfig, Guardrails
from repro.remediation.log import (
    DECISION_BLOCKED,
    DECISION_DRY_RUN,
    DECISION_EXECUTED,
    RemediationLog,
)
from repro.remediation.policies import ActionRequest, Policy


class RemediationEngine:
    """Detect → decide → act, with every act behind a guardrail."""

    def __init__(self, seeder: Any,
                 fault_tolerance: Any = None,
                 config: Optional[GuardrailConfig] = None,
                 dry_run: bool = False,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.seeder = seeder
        self.fault_tolerance = fault_tolerance
        self.dry_run = dry_run
        self._clock = clock or (lambda: seeder.sim.now)
        self.guardrails = Guardrails(config=config)
        self.policies: List[Policy] = []
        self.log = RemediationLog(registry=seeder.metrics,
                                  tracer=seeder.tracer)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_policy(self, policy: Policy) -> Policy:
        self.policies.append(policy)
        return policy

    def attach(self, source: Any) -> "RemediationEngine":
        """Subscribe to a Scarecrow bundle or a bare AlertManager."""
        alerts = getattr(source, "alerts", source)
        if not hasattr(alerts, "on_transition"):
            raise TypeError(
                f"cannot attach to {type(source).__name__}: no "
                f"on_transition hook (need an AlertManager)")
        alerts.on_transition.append(self._on_alert_event)
        return self

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _on_alert_event(self, event: AlertEvent) -> None:
        for policy in self.policies:
            for request in policy.actions_for(event):
                self._process(request)

    def _process(self, request: ActionRequest) -> None:
        now = self._clock()
        labels = dict(request.labels)
        blocked_by = self.guardrails.check(request.action, request.switch,
                                           now)
        if blocked_by is not None:
            self.log.record(
                now, request.action, request.switch, request.policy,
                request.rule, labels, request.alert_state,
                request.alert_t, DECISION_BLOCKED, blocked_by=blocked_by)
            return
        # Guardrails commit in dry-run too: the whole point of dry-run is
        # producing the decision stream an active engine would, and that
        # stream depends on cooldown/budget/flap state evolving.
        self.guardrails.commit(request.action, request.switch, now)
        self.log.set_active(self.guardrails.active_count())
        if self.dry_run:
            self.log.record(
                now, request.action, request.switch, request.policy,
                request.rule, labels, request.alert_state,
                request.alert_t, DECISION_DRY_RUN)
            return
        rec = self.log.record(
            now, request.action, request.switch, request.policy,
            request.rule, labels, request.alert_state,
            request.alert_t, DECISION_EXECUTED)
        outcome, detail = self._execute(request)
        self.log.finish(rec, outcome, **detail)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _execute(self, request: ActionRequest):
        action = request.action
        switch = request.switch
        if action == "drain":
            return self._do_drain(switch)
        if action == "restore":
            return self._do_restore(switch)
        if action == "escalate":
            return self._do_escalate(switch, request.rule)
        return "unknown-action", {}

    def _seeds_on(self, switch: Optional[int]) -> int:
        soil = self.seeder.soils.get(switch)
        return soil.num_seeds if soil is not None else 0

    def _do_drain(self, switch: Optional[int]):
        before = self._seeds_on(switch)
        solution = self.seeder.drain(switch)
        if solution is None:
            return "no-op", {"reason": "already cordoned or unknown"}
        return f"drained {before} seeds", {
            "seeds_before": before,
            "incremental": bool(solution.info.get("incremental")),
            "dirty_seeds": solution.info.get("dirty_seeds", 0)}

    def _do_restore(self, switch: Optional[int]):
        if not self.seeder.uncordon(switch):
            return "no-op", {"reason": "not cordoned"}
        # Global re-place: the returned capacity changes the optimum
        # everywhere, not just on the restored switch.
        self.seeder.reoptimize()
        return "uncordoned", {}

    def _do_escalate(self, switch: Optional[int], rule: str):
        ft = self.fault_tolerance
        if ft is None:
            return "no-op", {"reason": "no fault-tolerance manager"}
        if not ft.escalate_failure(switch,
                                   source=f"remediation:{rule}"):
            return "no-op", {"reason": "already failed"}
        return "failed over", {}
