"""Closed-loop remediation: detect → decide → act with guardrails.

The :class:`RemediationEngine` subscribes to Scarecrow alert lifecycle
transitions and turns them into guarded actions against the live
deployment — drain (cordon, then re-place only that switch's seeds),
restore, and escalate-to-failover — closing the loop FARM's management
half calls for: the monitoring fabric *drives* operational decisions
instead of merely describing damage.
"""

from repro.remediation.engine import RemediationEngine
from repro.remediation.guardrails import GuardrailConfig, Guardrails
from repro.remediation.log import RemediationLog, RemediationRecord
from repro.remediation.policies import (
    ActionRequest,
    DrainPolicy,
    EscalatePolicy,
    Policy,
)

__all__ = [
    "ActionRequest",
    "DrainPolicy",
    "EscalatePolicy",
    "GuardrailConfig",
    "Guardrails",
    "Policy",
    "RemediationEngine",
    "RemediationLog",
    "RemediationRecord",
]
