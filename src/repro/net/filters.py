"""Packet/traffic filter algebra.

Filters are the ``fil`` atoms of Almanac's grammar (Fig. 3).  They serve
three masters, so they are immutable, hashable, and canonicalizable:

1. **Evaluation** — does a packet (or a flow key) match?  Used by the TCAM,
   packet probing, and seed event dispatch.
2. **Polling-subject encoding** (``phi_enc``, SIII-B-c) — which concrete
   statistics does polling with this filter read?  The soil uses this to
   aggregate polling across seeds; the seeder uses it to compute aggregation
   benefits for placement.
3. **Path queries** (``phi_path``) — the SDN controller resolves IP
   constraints in a filter to the set of paths carrying matching traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.net.addresses import Prefix
from repro.net.packet import FlowKey, Packet

#: Sentinel for "all switch ports" in a :class:`SwitchPortFilter`.
ANY_PORT = -1


class Filter:
    """Base class.  Subclasses are frozen dataclasses."""

    def matches(self, packet: Packet) -> bool:
        """True if the packet satisfies the filter."""
        return self.matches_key(packet.key, tcp_flags=packet.tcp_flags)

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        raise NotImplementedError

    # -- algebra -----------------------------------------------------------
    def __and__(self, other: "Filter") -> "Filter":
        return and_(self, other)

    def __or__(self, other: "Filter") -> "Filter":
        return or_(self, other)

    def __invert__(self) -> "Filter":
        return NotFilter(self)

    # -- introspection -------------------------------------------------------
    def atoms(self) -> Iterable["Filter"]:
        """Yield the atomic filters appearing in this expression."""
        yield self

    def src_prefixes(self) -> FrozenSet[Prefix]:
        """Source-IP prefixes constrained anywhere in the expression."""
        return frozenset(atom.prefix for atom in self.atoms()
                         if isinstance(atom, SrcIpFilter))

    def dst_prefixes(self) -> FrozenSet[Prefix]:
        """Destination-IP prefixes constrained anywhere in the expression."""
        return frozenset(atom.prefix for atom in self.atoms()
                         if isinstance(atom, DstIpFilter))

    def switch_ports(self) -> Optional[FrozenSet[int]]:
        """Switch ports referenced, or None if none are (pure packet filter).

        ``ANY_PORT`` membership means "all ports of the switch".
        """
        ports = [atom.port for atom in self.atoms()
                 if isinstance(atom, SwitchPortFilter)]
        return frozenset(ports) if ports else None

    def canonical(self) -> str:
        """A canonical string; equal strings imply equivalent filters.

        (The converse does not hold — this is a syntactic canonical form,
        sufficient for the polling-subject sharing test of SIII-B-c.)
        """
        raise NotImplementedError


@dataclass(frozen=True)
class TrueFilter(Filter):
    """Matches everything."""

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return True

    def canonical(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFilter(Filter):
    """Matches nothing."""

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return False

    def canonical(self) -> str:
        return "false"


@dataclass(frozen=True)
class SrcIpFilter(Filter):
    """``srcIP <prefix>``"""

    prefix: Prefix

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return self.prefix.contains(key.src_ip)

    def canonical(self) -> str:
        return f"srcIP {self.prefix}"


@dataclass(frozen=True)
class DstIpFilter(Filter):
    """``dstIP <prefix>``"""

    prefix: Prefix

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return self.prefix.contains(key.dst_ip)

    def canonical(self) -> str:
        return f"dstIP {self.prefix}"


@dataclass(frozen=True)
class SrcPortFilter(Filter):
    """``srcPort <n>`` — transport-layer source port."""

    port: int

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return key.src_port == self.port

    def canonical(self) -> str:
        return f"srcPort {self.port}"


@dataclass(frozen=True)
class DstPortFilter(Filter):
    """``dstPort <n>`` — transport-layer destination port."""

    port: int

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return key.dst_port == self.port

    def canonical(self) -> str:
        return f"dstPort {self.port}"


@dataclass(frozen=True)
class ProtoFilter(Filter):
    """``proto <n>`` — IP protocol number."""

    proto: int

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return key.proto == self.proto

    def canonical(self) -> str:
        return f"proto {self.proto}"


@dataclass(frozen=True)
class TcpFlagsFilter(Filter):
    """``tcpFlags <mask>`` — all bits of ``mask`` set in the packet flags."""

    mask: int

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return (tcp_flags & self.mask) == self.mask

    def canonical(self) -> str:
        return f"tcpFlags {self.mask}"


@dataclass(frozen=True)
class SwitchPortFilter(Filter):
    """``port <n>`` / ``port ANY`` — a *switch interface* constraint.

    This is the ``port ANY`` of List. 2: it selects which interface
    statistics a poll reads, not a packet header field.  For packet matching
    it is vacuously true (interface dispatch happens before filtering).
    """

    port: int  # ANY_PORT means every port

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return True

    def canonical(self) -> str:
        return "port ANY" if self.port == ANY_PORT else f"port {self.port}"


@dataclass(frozen=True)
class AndFilter(Filter):
    """Conjunction (flattened at construction by :func:`and_`)."""

    operands: Tuple[Filter, ...]

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return all(op.matches_key(key, tcp_flags) for op in self.operands)

    def atoms(self) -> Iterable[Filter]:
        for op in self.operands:
            yield from op.atoms()

    def canonical(self) -> str:
        parts = sorted(op.canonical() for op in self.operands)
        return "(" + " and ".join(parts) + ")"


@dataclass(frozen=True)
class OrFilter(Filter):
    """Disjunction (flattened at construction by :func:`or_`)."""

    operands: Tuple[Filter, ...]

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return any(op.matches_key(key, tcp_flags) for op in self.operands)

    def atoms(self) -> Iterable[Filter]:
        for op in self.operands:
            yield from op.atoms()

    def canonical(self) -> str:
        parts = sorted(op.canonical() for op in self.operands)
        return "(" + " or ".join(parts) + ")"


@dataclass(frozen=True)
class NotFilter(Filter):
    """Negation."""

    operand: Filter

    def matches_key(self, key: FlowKey, tcp_flags: int = 0) -> bool:
        return not self.operand.matches_key(key, tcp_flags)

    def atoms(self) -> Iterable[Filter]:
        yield from self.operand.atoms()

    def canonical(self) -> str:
        return f"(not {self.operand.canonical()})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def and_(*operands: Filter) -> Filter:
    """Conjunction with flattening and trivial simplification."""
    flat: list[Filter] = []
    for op in operands:
        if isinstance(op, AndFilter):
            flat.extend(op.operands)
        elif isinstance(op, FalseFilter):
            return FalseFilter()
        elif not isinstance(op, TrueFilter):
            flat.append(op)
    if not flat:
        return TrueFilter()
    if len(flat) == 1:
        return flat[0]
    return AndFilter(tuple(flat))


def or_(*operands: Filter) -> Filter:
    """Disjunction with flattening and trivial simplification."""
    flat: list[Filter] = []
    for op in operands:
        if isinstance(op, OrFilter):
            flat.extend(op.operands)
        elif isinstance(op, TrueFilter):
            return TrueFilter()
        elif not isinstance(op, FalseFilter):
            flat.append(op)
    if not flat:
        return FalseFilter()
    if len(flat) == 1:
        return flat[0]
    return OrFilter(tuple(flat))
