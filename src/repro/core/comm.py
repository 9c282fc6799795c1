"""Communication services and their cost models (SV, SVI-E).

Three communication paths exist in FARM:

* **seed <-> soil** — on-switch.  Two schemes are implemented, matching
  SV-A-b: gRPC (latency grows linearly with the number of deployed seeds,
  Fig. 10) and a shared-memory buffer usable when seeds run as threads of
  the soil process (near-constant latency).  The original system measured
  this; here the models encode the measured *shapes* with first-principles
  parameters (per-message marshalling cost x queued messages for gRPC).
* **soil/seed <-> seeder/harvester** — off-switch control traffic via a
  RabbitMQ-like :class:`ControlBus` with in-DC delivery latency.
* **seed <-> seed** — routed through the soils' communication services
  over the same bus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import CommError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator


class ExecutionMode(Enum):
    """How seeds execute on the switch (SV-A-b)."""

    THREAD = "thread"    # seeds are threads of the soil process
    PROCESS = "process"  # seeds are isolated processes


class CommScheme(Enum):
    """Seed <-> soil communication scheme."""

    SHARED_BUFFER = "shared_buffer"
    GRPC = "grpc"


@dataclass(frozen=True)
class SoilCommConfig:
    """Execution + communication configuration of one soil."""

    execution_mode: ExecutionMode = ExecutionMode.THREAD
    comm_scheme: CommScheme = CommScheme.SHARED_BUFFER
    aggregation: bool = True  # soil-side polling aggregation

    def __post_init__(self) -> None:
        if (self.comm_scheme is CommScheme.SHARED_BUFFER
                and self.execution_mode is ExecutionMode.PROCESS):
            raise CommError(
                "the shared buffer requires seeds to run as threads of the "
                "soil (SV-A-b)")


# Model parameters (calibrated to reproduce the Fig. 9/10 shapes).
GRPC_BASE_LATENCY_S = 60e-6        # one marshal/unmarshal round
GRPC_PER_SEED_LATENCY_S = 14e-6    # queueing behind other seeds' channels
SHARED_BUFFER_LATENCY_S = 2e-6     # one cache-coherent ring-buffer hop
GRPC_CPU_PER_MSG_S = 25e-6         # protobuf encode/decode CPU
SHARED_BUFFER_CPU_PER_MSG_S = 1e-6


def seed_soil_latency(config: SoilCommConfig, num_seeds: int) -> float:
    """One-way seed<->soil message latency given the deployment size."""
    if num_seeds < 0:
        raise CommError(f"negative seed count: {num_seeds}")
    if config.comm_scheme is CommScheme.GRPC:
        return GRPC_BASE_LATENCY_S + GRPC_PER_SEED_LATENCY_S * num_seeds
    return SHARED_BUFFER_LATENCY_S


def seed_soil_cpu_cost(config: SoilCommConfig) -> Tuple[float, int]:
    """(cpu-seconds, context switches) charged per seed<->soil message."""
    if config.comm_scheme is CommScheme.GRPC:
        cpu = GRPC_CPU_PER_MSG_S
    else:
        cpu = SHARED_BUFFER_CPU_PER_MSG_S
    switches = 2 if config.execution_mode is ExecutionMode.PROCESS else 0
    return cpu, switches


# ---------------------------------------------------------------------------
# Control bus (RabbitMQ substitute)
# ---------------------------------------------------------------------------

#: Broker hop + in-DC network latency for one control message.
BUS_BASE_LATENCY_S = 250e-6
#: Serialization cost per KB of payload.
BUS_PER_KB_LATENCY_S = 8e-6


@dataclass
class BusMessage:
    """One control-plane message, as sent and (once it arrives) delivered."""

    msg_id: int
    src: str
    dst: str
    payload: Any
    size_bytes: int
    sent_at: float
    delivered_at: float
    #: True when the bus (or an attached fault injector) discarded the
    #: message instead of scheduling delivery.
    dropped: bool = False


#: Unknown-destination policies for :meth:`ControlBus.send`.
UNKNOWN_DST_POLICIES = ("raise", "drop")


def _trace_args(message: "BusMessage") -> Dict[str, Any]:
    """Trace-event args for a bus message, carrying the causal trace id
    (the seed id, when the payload names one) across tracks.  Only called
    when tracing is enabled; never mutates the payload — injecting ids
    in-band would change ``estimate_size_bytes`` and thus latencies."""
    args: Dict[str, Any] = {"msg_id": message.msg_id,
                            "size_bytes": message.size_bytes}
    payload = message.payload
    if isinstance(payload, dict):
        inner = payload.get("payload") if payload.get("__rel__") == "data" \
            else payload
        if isinstance(inner, dict):
            seed_id = inner.get("seed_id")
            if seed_id is not None:
                args["trace_id"] = seed_id
            cmd = inner.get("cmd") or inner.get("event")
            if cmd is not None:
                args["kind"] = cmd
    return args


class ControlBus:
    """Topic-less named-endpoint message bus with delivery latency.

    Endpoints register a handler; :meth:`send` schedules delivery on the
    simulator.  Deliveries are counted, not retained: the registry's
    ``farm_bus_messages_total`` / ``farm_bus_bytes_total`` are the network
    load Fig. 4 accounts.
    """

    def __init__(self, sim: Simulator,
                 base_latency_s: float = BUS_BASE_LATENCY_S,
                 unknown_dst: str = "raise",
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if unknown_dst not in UNKNOWN_DST_POLICIES:
            raise CommError(f"unknown-destination policy must be one of "
                            f"{UNKNOWN_DST_POLICIES}, got {unknown_dst!r}")
        self.sim = sim
        self.base_latency_s = base_latency_s
        # Shared profiler attribution key for every delivery event.
        self._deliver_cost_key = ("bus", None, None, "deliver")
        #: What :meth:`send` does when the destination is not registered:
        #: ``"raise"`` (strict, the historic behavior) or ``"drop"`` (count
        #: the message as undeliverable and move on — required for retry
        #: loops that race an endpoint's re-registration).
        self.unknown_dst_policy = unknown_dst
        self._handlers: Dict[str, Callable[[BusMessage], None]] = {}
        self._ids = itertools.count(1)
        #: Shared deployment registry, or a private one for standalone use.
        #: Components downstream of the bus (reliable endpoints, soils,
        #: the seeder) default to this registry, so wiring one registry
        #: into the bus observes the whole control plane.
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._m_messages = self.metrics.counter(
            "farm_bus_messages_total",
            "Control-plane messages delivered to a handler.")
        self._m_bytes = self.metrics.counter(
            "farm_bus_bytes_total",
            "Control-plane bytes delivered (Fig. 4 network load).")
        self._m_undeliverable = self.metrics.counter(
            "farm_bus_undeliverable_total",
            "Messages discarded: destination not registered.")
        self._m_chaos_dropped = self.metrics.counter(
            "farm_bus_chaos_dropped_total",
            "Messages discarded by the attached fault injector.")
        #: Optional :class:`repro.core.chaos.FaultInjector`; when set,
        #: every send consults it for loss/duplication/delay/partitions.
        self.fault_injector: Optional[Any] = None

    def register(self, endpoint: str,
                 handler: Callable[[BusMessage], None]) -> None:
        if endpoint in self._handlers:
            raise CommError(f"endpoint {endpoint!r} already registered")
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: str) -> None:
        self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: str) -> bool:
        return endpoint in self._handlers

    def send(self, src: str, dst: str, payload: Any,
             size_bytes: int = 256,
             extra_latency_s: float = 0.0,
             on_unknown: Optional[str] = None) -> BusMessage:
        """Queue a message; returns the (not yet delivered) record.

        ``on_unknown`` overrides :attr:`unknown_dst_policy` for this call
        (retry layers pass ``"drop"`` so a destination mid-reconnect does
        not abort the retry loop).
        """
        policy = on_unknown if on_unknown is not None \
            else self.unknown_dst_policy
        if policy not in UNKNOWN_DST_POLICIES:
            raise CommError(f"unknown-destination policy must be one of "
                            f"{UNKNOWN_DST_POLICIES}, got {policy!r}")
        latency = (self.base_latency_s + extra_latency_s
                   + BUS_PER_KB_LATENCY_S * (size_bytes / 1024.0))
        message = BusMessage(
            msg_id=next(self._ids), src=src, dst=dst, payload=payload,
            size_bytes=size_bytes, sent_at=self.sim.now,
            delivered_at=self.sim.now + latency)
        tracer = self.tracer
        if dst not in self._handlers:
            if policy == "raise":
                raise CommError(f"unknown bus endpoint {dst!r}")
            self._m_undeliverable.inc()
            message.dropped = True
            if tracer.enabled:
                tracer.instant(f"undeliverable {src}->{dst}", track="bus",
                               cat="bus", args=_trace_args(message))
            return message
        deliveries = [0.0]
        if self.fault_injector is not None:
            deliveries = self.fault_injector.plan(src, dst)
            if not deliveries:
                self._m_chaos_dropped.inc()
                message.dropped = True
                if tracer.enabled:
                    tracer.instant(f"chaos-drop {src}->{dst}", track="bus",
                                   cat="bus", args=_trace_args(message))
                return message
        if tracer.enabled:
            tracer.async_begin(f"{src}->{dst}", span_id=f"msg{message.msg_id}",
                               track="bus", cat="bus",
                               args=_trace_args(message))
        for extra_delay in deliveries:
            self.sim.schedule(latency + extra_delay, self._on_arrival, message,
                              label=f"bus {src}->{dst}",
                              cost_key=self._deliver_cost_key)
        return message

    def _on_arrival(self, message: BusMessage) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            # endpoint vanished (seed undeployed mid-flight)
            self._m_undeliverable.inc()
            return
        message.delivered_at = self.sim.now
        self._m_bytes.inc(message.size_bytes)
        self._m_messages.inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.async_end(f"{message.src}->{message.dst}",
                             span_id=f"msg{message.msg_id}",
                             track="bus", cat="bus")
        handler(message)


def estimate_size_bytes(payload: Any) -> int:
    """Rough wire size of a control message payload."""
    if payload is None:
        return 64
    if isinstance(payload, bool):
        return 65
    if isinstance(payload, (int, float)):
        return 72
    if isinstance(payload, str):
        return 64 + len(payload)
    if isinstance(payload, (list, tuple)):
        return 64 + sum(estimate_size_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return 64 + sum(
            estimate_size_bytes(k) + estimate_size_bytes(v)
            for k, v in payload.items())
    return 256
