"""Packets, flow keys, and rate-based flows.

Simulating a 100 Gbps ASIC packet-by-packet is infeasible in Python, and the
paper's evaluation never needs it: what matters is *counters* (bytes/packets
per port, per TCAM rule) and occasional *samples*.  We therefore model
traffic as :class:`Flow` objects with piecewise-constant rates; counters are
integrals of those rates, and a probe's samples come back as one
:class:`ProbeBatch` of header columns; a :class:`Packet` per sample is
built only for a consumer that needs the objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import FarmError

# IP protocol numbers used throughout the task library.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}

# TCP flag bits (subset used by the monitoring tasks).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


@dataclass(frozen=True)
class FlowKey:
    """Canonical 5-tuple identifying a flow."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int

    def __str__(self) -> str:
        from repro.net.addresses import format_ip
        name = PROTO_NAMES.get(self.proto, str(self.proto))
        return (f"{format_ip(self.src_ip)}:{self.src_port} -> "
                f"{format_ip(self.dst_ip)}:{self.dst_port}/{name}")


class Packet:
    """A single (sampled or probed) packet: a value, compared by fields.

    :meth:`ProbeBatch.packets` builds one per sample, so this is a plain
    slotted class rather than a frozen dataclass (a third of the
    construction cost).
    """

    __slots__ = ("key", "size", "tcp_flags", "ttl", "timestamp")

    DEFAULT_TTL = 64

    def __init__(self, key: FlowKey, size: int = 1000, tcp_flags: int = 0,
                 ttl: int = DEFAULT_TTL, timestamp: float = 0.0) -> None:
        self.key = key
        self.size = size  # bytes, headers included
        self.tcp_flags = tcp_flags
        self.ttl = ttl
        self.timestamp = timestamp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return ((self.key, self.size, self.tcp_flags, self.ttl,
                 self.timestamp)
                == (other.key, other.size, other.tcp_flags, other.ttl,
                    other.timestamp))

    def __repr__(self) -> str:
        return (f"Packet(key={self.key!r}, size={self.size!r}, "
                f"tcp_flags={self.tcp_flags!r}, ttl={self.ttl!r}, "
                f"timestamp={self.timestamp!r})")

    @property
    def src_ip(self) -> int:
        return self.key.src_ip

    @property
    def dst_ip(self) -> int:
        return self.key.dst_ip

    @property
    def src_port(self) -> int:
        return self.key.src_port

    @property
    def dst_port(self) -> int:
        return self.key.dst_port

    @property
    def proto(self) -> int:
        return self.key.proto

    @property
    def is_syn(self) -> bool:
        return bool(self.tcp_flags & TCP_SYN) and not (self.tcp_flags & TCP_ACK)

    @property
    def is_synack(self) -> bool:
        return bool(self.tcp_flags & TCP_SYN) and bool(self.tcp_flags & TCP_ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.tcp_flags & TCP_FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.tcp_flags & TCP_RST)


#: The header fields a :class:`ProbeBatch` carries as columns, each a list
#: holding, per sample, what the :class:`Packet` attribute of that name
#: returns (the four flag tests included).  ``timestamp`` is the scalar
#: ``now``: every sample of one probe is stamped with the probe's instant.
BATCH_COLUMNS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto", "size",
                 "tcp_flags", "ttl", "is_syn", "is_synack", "is_fin",
                 "is_rst")


class ProbeBatch:
    """One probe's samples as columns: the value a probe hands a seed.

    ``flows`` are the sampled flows in output order (a flow appears once per
    sample it contributes); each name in :data:`BATCH_COLUMNS` is a list of
    plain Python values, row ``k`` describing ``flows[k]``'s sample.  The
    columns are shared by every batch stamped from one sample plan and must
    not be mutated.  :meth:`packets` gives the per-sample ``Packet`` list.
    """

    __slots__ = ("flows", "now") + BATCH_COLUMNS

    def __init__(self, flows: Sequence["Flow"], now: float,
                 columns: Tuple[list, ...]) -> None:
        self.flows = flows
        self.now = now
        (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto,
         self.size, self.tcp_flags, self.ttl, self.is_syn, self.is_synack,
         self.is_fin, self.is_rst) = columns

    @staticmethod
    def columns_of(flows: Sequence["Flow"]) -> Tuple[list, ...]:
        """The :data:`BATCH_COLUMNS` of one sample per flow, in order."""
        keys = [flow.key for flow in flows]
        flags = [flow.default_tcp_flags for flow in flows]
        return ([key.src_ip for key in keys], [key.dst_ip for key in keys],
                [key.src_port for key in keys],
                [key.dst_port for key in keys], [key.proto for key in keys],
                [flow.packet_size for flow in flows], flags,
                [Packet.DEFAULT_TTL] * len(flows),
                [bool(f & TCP_SYN) and not (f & TCP_ACK) for f in flags],
                [bool(f & TCP_SYN) and bool(f & TCP_ACK) for f in flags],
                [bool(f & TCP_FIN) for f in flags],
                [bool(f & TCP_RST) for f in flags])

    def __len__(self) -> int:
        return len(self.flows)

    def packets(self) -> List[Packet]:
        """One ``Packet`` per sample, as ``Flow.sample_packet`` stamps it."""
        now = self.now
        return [flow.sample_packet(now) for flow in self.flows]


class FlowWatch:
    """An O(1) "some watched flow's rate segments moved" signal.

    Whoever caches anything derived from flow segments (the ASIC's counter
    columns) registers one watch on every flow it carries and compares
    :attr:`changes` with the value it cached at; workloads and tests call
    :meth:`Flow.set_rate` directly, so the change has to announce itself.
    """

    __slots__ = ("changes",)

    def __init__(self) -> None:
        self.changes = 0


class Flow:
    """A unidirectional flow with a piecewise-constant byte rate.

    ``rate_bps`` is in **bytes per second** (not bits).  The rate can change
    over time via :meth:`set_rate`; :meth:`bytes_between` integrates it.
    Rate-change history is kept so counter reads are exact regardless of when
    they happen.  ``key``, ``packet_size`` and ``default_tcp_flags`` are
    fixed at construction: the ASIC classifies a flow once, not per read.
    """

    __slots__ = ("key", "packet_size", "_segments", "label",
                 "default_tcp_flags", "_watches")

    def __init__(self, key: FlowKey, rate_bps: float, start_time: float = 0.0,
                 packet_size: int = 1000, label: str = "",
                 default_tcp_flags: int = 0) -> None:
        if rate_bps < 0:
            raise FarmError(f"flow rate must be non-negative: {rate_bps}")
        if packet_size <= 0:
            raise FarmError(f"packet size must be positive: {packet_size}")
        self.key = key
        self.packet_size = packet_size
        self.label = label
        self.default_tcp_flags = default_tcp_flags
        # Sorted list of (time, rate) change points.  Rate is 0 before start.
        self._segments: list[tuple[float, float]] = [(start_time, rate_bps)]
        self._watches: tuple[FlowWatch, ...] = ()

    def watch(self, watch: FlowWatch) -> None:
        """Count every later segment change of this flow on ``watch``."""
        self._watches += (watch,)

    def unwatch(self, watch: FlowWatch) -> None:
        """Undo one :meth:`watch` call."""
        watches = list(self._watches)
        watches.remove(watch)
        self._watches = tuple(watches)

    def rate_at(self, time: float) -> float:
        """The rate in effect at ``time``."""
        seg_time, rate = self._segments[-1]
        if seg_time <= time:  # the usual question: the rate now
            return rate
        rate = 0.0
        for seg_time, seg_rate in self._segments:
            if seg_time <= time:
                rate = seg_rate
            else:
                break
        return rate

    def set_rate(self, rate_bps: float, at_time: float) -> None:
        """Change the rate at ``at_time`` (must be >= last change point)."""
        if rate_bps < 0:
            raise FarmError(f"flow rate must be non-negative: {rate_bps}")
        last_time, last_rate = self._segments[-1]
        if at_time < last_time:
            raise FarmError(
                f"rate changes must be chronological: {at_time} < {last_time}")
        if rate_bps == last_rate:
            return
        if at_time == last_time:
            self._segments[-1] = (at_time, rate_bps)
        else:
            self._segments.append((at_time, rate_bps))
        for watch in self._watches:
            watch.changes += 1

    def stop(self, at_time: float) -> None:
        """Set the rate to zero from ``at_time`` onward."""
        self.set_rate(0.0, at_time)

    def bytes_between(self, t0: float, t1: float) -> float:
        """Integral of the rate over ``[t0, t1]``."""
        if t1 < t0:
            raise FarmError(f"bad interval: [{t0}, {t1}]")
        total = 0.0
        segments = self._segments
        for index, (seg_start, rate) in enumerate(segments):
            seg_end = (segments[index + 1][0]
                       if index + 1 < len(segments) else float("inf"))
            lo = max(t0, seg_start)
            hi = min(t1, seg_end)
            if hi > lo and rate > 0:
                total += rate * (hi - lo)
        return total

    def packets_between(self, t0: float, t1: float) -> float:
        """Approximate packet count over ``[t0, t1]``."""
        return self.bytes_between(t0, t1) / self.packet_size

    def sample_packet(self, timestamp: float,
                      tcp_flags: Optional[int] = None) -> Packet:
        """Materialize one representative packet of this flow."""
        flags = self.default_tcp_flags if tcp_flags is None else tcp_flags
        return Packet(self.key, self.packet_size, flags, timestamp=timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.key} {self._segments[-1][1]:.0f} B/s {self.label}>"
