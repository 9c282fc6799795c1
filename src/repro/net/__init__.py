"""Network substrate: addresses, packets, filters, topology, traffic."""

from repro.net.addresses import ANY_PREFIX, Prefix, format_ip, parse_ip
from repro.net.controller import SdnController
from repro.net.filters import (
    ANY_PORT,
    AndFilter,
    DstIpFilter,
    DstPortFilter,
    FalseFilter,
    Filter,
    NotFilter,
    OrFilter,
    ProtoFilter,
    SrcIpFilter,
    SrcPortFilter,
    SwitchPortFilter,
    TcpFlagsFilter,
    TrueFilter,
    and_,
    or_,
)
from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Flow,
    FlowKey,
    Packet,
)
from repro.net.topology import Topology, spine_leaf

__all__ = [
    "ANY_PREFIX", "Prefix", "format_ip", "parse_ip",
    "SdnController",
    "ANY_PORT", "AndFilter", "DstIpFilter", "DstPortFilter", "FalseFilter",
    "Filter", "NotFilter", "OrFilter", "ProtoFilter", "SrcIpFilter",
    "SrcPortFilter", "SwitchPortFilter", "TcpFlagsFilter", "TrueFilter",
    "and_", "or_",
    "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP", "Flow", "FlowKey", "Packet",
    "Topology", "spine_leaf",
]
