"""Reliable delivery over the (possibly unreliable) control bus.

The raw :class:`repro.core.comm.ControlBus` models a RabbitMQ-style broker;
with a :class:`repro.core.chaos.FaultInjector` attached it loses,
duplicates, delays, and partitions messages.  Control-plane *commands*
(deploy/migrate/undeploy) and their completion reports cannot tolerate
that, so both the seeder and every soil speak through a
:class:`ReliableEndpoint`:

* every data message carries a per-sender **sequence number** and is
  acknowledged by the receiver;
* unacked messages are **retransmitted** with capped exponential backoff
  plus deterministic jitter (seeded per endpoint, so runs replay exactly);
* the receiver **deduplicates** by ``(sender, seq)`` and re-acks
  duplicates (the original ack may itself have been lost);
* after ``max_attempts`` transmissions the message is **dead-lettered**
  to the caller's callback instead of retrying forever.

At-least-once transmission plus receiver-side dedup yields effectively
exactly-once *processing* — the delivery guarantee the seeder's
reconciliation logic is written against.  Messages without the envelope
pass through untouched, so an endpoint upgraded to reliable delivery
keeps accepting legacy fire-and-forget traffic (heartbeats, telemetry).
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Set

from repro.core.comm import BusMessage, ControlBus, estimate_size_bytes
from repro.errors import CommError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Event, Simulator, jittered_backoff

#: Wire size of an ack and of the per-message envelope bookkeeping.
ACK_SIZE_BYTES = 64
ENVELOPE_OVERHEAD_BYTES = 32

#: Callback invoked when a message exhausts its attempts:
#: ``on_dead(dst, payload, attempts)``.
DeadLetterCallback = Callable[[str, Any, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retransmission loop.

    ``timeout_s`` is the first-attempt ack deadline; subsequent attempts
    back off exponentially up to ``backoff_cap_s``, each stretched by up
    to ``jitter_frac`` (multiplicative) to avoid retry synchronization.
    """

    timeout_s: float = 5e-3
    backoff_cap_s: float = 0.2
    max_attempts: int = 10
    jitter_frac: float = 0.2

    def __post_init__(self) -> None:
        if self.timeout_s <= 0 or self.backoff_cap_s <= 0:
            raise CommError("retry timeouts must be positive")
        if self.max_attempts < 1:
            raise CommError(
                f"max_attempts must be at least 1: {self.max_attempts}")
        if self.jitter_frac < 0:
            raise CommError(
                f"jitter_frac must be non-negative: {self.jitter_frac}")


@dataclass
class _Pending:
    seq: int
    dst: str
    payload: Any
    size_bytes: int
    attempts: int = 0
    timer: Optional[Event] = None
    on_dead: Optional[DeadLetterCallback] = None


class ReliableEndpoint:
    """One named bus endpoint with ack/retry/dedup semantics.

    ``handler(message)`` receives the delivered :class:`BusMessage` with
    ``payload`` already unwrapped to the sender's original payload.
    ``alive`` gates both directions: while it returns False the endpoint
    neither processes nor acks incoming traffic (a powered-off or
    partitioned switch is silent, not polite).
    """

    def __init__(self, bus: ControlBus, sim: Simulator, name: str,
                 handler: Callable[[BusMessage], None],
                 policy: Optional[RetryPolicy] = None,
                 alive: Optional[Callable[[], bool]] = None,
                 rng: Optional[random.Random] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.bus = bus
        self.sim = sim
        self.name = name
        self.handler = handler
        self.policy = policy or RetryPolicy()
        self.alive = alive or (lambda: True)
        # Seeded from the endpoint name: deterministic across runs, yet
        # de-synchronized between endpoints.
        self.rng = rng or random.Random(zlib.crc32(name.encode("utf-8")))
        self._seq = itertools.count(1)
        # Shared profiler attribution key for this endpoint's timeouts.
        self._timeout_cost_key = ("reliable", None, None, name)
        self._pending: Dict[int, _Pending] = {}
        self._seen: Dict[str, Set[int]] = {}
        # Retry/dedup counters live on the deployment's metrics registry
        # (the bus's by default), labeled per endpoint.
        metrics = registry if registry is not None else bus.metrics
        labels = {"endpoint": name}
        self._m_acked = metrics.counter(
            "farm_reliable_acked_total",
            "Data messages acknowledged by the receiver.", labels=labels)
        self._m_retransmissions = metrics.counter(
            "farm_reliable_retransmissions_total",
            "Retransmissions after ack timeouts.", labels=labels)
        self._m_dead_letters = metrics.counter(
            "farm_reliable_dead_letters_total",
            "Messages abandoned after max_attempts.", labels=labels)
        self._m_duplicates = metrics.counter(
            "farm_reliable_duplicates_total",
            "Received duplicates discarded by (sender, seq) dedup.",
            labels=labels)
        self.tracer = bus.tracer
        bus.register(name, self._on_message)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: Any,
             size_bytes: Optional[int] = None,
             on_dead: Optional[DeadLetterCallback] = None,
             extra_latency_s: float = 0.0) -> Optional[int]:
        """Send ``payload`` reliably to ``dst``; returns the sequence
        number, or None when this endpoint is not alive."""
        if not self.alive():
            return None
        seq = next(self._seq)
        size = size_bytes if size_bytes is not None \
            else estimate_size_bytes(payload)
        pending = _Pending(seq=seq, dst=dst, payload=payload,
                           size_bytes=size, on_dead=on_dead)
        self._pending[seq] = pending
        self._transmit(pending, extra_latency_s)
        return seq

    def _transmit(self, pending: _Pending,
                  extra_latency_s: float = 0.0) -> None:
        pending.attempts += 1
        envelope = {"__rel__": "data", "src": self.name,
                    "seq": pending.seq, "payload": pending.payload}
        # "drop" because the destination may be mid-reconnect: the retry
        # loop, not the send, decides when to give up.
        self.bus.send(self.name, pending.dst, envelope,
                      size_bytes=pending.size_bytes + ENVELOPE_OVERHEAD_BYTES,
                      extra_latency_s=extra_latency_s, on_unknown="drop")
        deadline = extra_latency_s + jittered_backoff(
            self.policy.timeout_s, pending.attempts - 1,
            self.policy.backoff_cap_s, self.rng, self.policy.jitter_frac)
        pending.timer = self.sim.schedule(
            deadline, self._on_timeout, pending.seq,
            label=f"rel-timeout {self.name}#{pending.seq}",
            cost_key=self._timeout_cost_key)

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.get(seq)
        if pending is None:
            return  # acked in the meantime
        if pending.attempts >= self.policy.max_attempts:
            del self._pending[seq]
            self._m_dead_letters.inc()
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant(f"dead-letter {self.name}->{pending.dst}",
                               track="bus", cat="reliable",
                               args={"seq": pending.seq,
                                     "attempts": pending.attempts})
            if pending.on_dead is not None:
                pending.on_dead(pending.dst, pending.payload,
                                pending.attempts)
            return
        if not self.alive():
            # The endpoint itself died mid-retry; its queue dies with it.
            del self._pending[seq]
            return
        self._m_retransmissions.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(f"retransmit {self.name}->{pending.dst}",
                           track="bus", cat="reliable",
                           args={"seq": pending.seq,
                                 "attempt": pending.attempts + 1})
        self._transmit(pending)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_message(self, message: BusMessage) -> None:
        if not self.alive():
            return
        payload = message.payload
        if isinstance(payload, dict) and "__rel__" in payload:
            kind = payload["__rel__"]
            if kind == "ack":
                pending = self._pending.pop(payload["seq"], None)
                if pending is not None:
                    if pending.timer is not None:
                        pending.timer.cancel()
                    self._m_acked.inc()
                return
            if kind == "data":
                src = payload["src"]
                seq = payload["seq"]
                # Always (re-)ack — the previous ack may have been lost.
                self.bus.send(self.name, src,
                              {"__rel__": "ack", "src": self.name,
                               "seq": seq},
                              size_bytes=ACK_SIZE_BYTES, on_unknown="drop")
                seen = self._seen.setdefault(src, set())
                if seq in seen:
                    self._m_duplicates.inc()
                    return
                seen.add(seq)
                # A duplicating bus delivers the *same* record twice;
                # unwrap into a copy so the envelope stays intact for
                # (and is deduplicated on) the other delivery.
                self.handler(replace(message, payload=payload["payload"]))
                return
        # Legacy fire-and-forget traffic addressed to this endpoint.
        self.handler(message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> int:
        """Abandon every in-flight message (power-off); returns how many."""
        abandoned = len(self._pending)
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        return abandoned
