"""Filter algebra tests, including hypothesis properties over evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.net import filters as flt
from repro.net.addresses import Prefix
from repro.net.packet import PROTO_TCP, PROTO_UDP, FlowKey, Packet, TCP_SYN


def make_packet(src="10.0.0.1", dst="10.1.0.1", sport=1000, dport=80,
                proto=PROTO_TCP, flags=0):
    from repro.net.addresses import parse_ip
    key = FlowKey(parse_ip(src), parse_ip(dst), sport, dport, proto)
    return Packet(key=key, tcp_flags=flags)


class TestAtoms:
    def test_src_dst_ip(self):
        packet = make_packet(src="10.0.0.5", dst="10.1.2.3")
        assert flt.SrcIpFilter(Prefix.parse("10.0.0.0/24")).matches(packet)
        assert not flt.SrcIpFilter(Prefix.parse("10.9.0.0/24")).matches(packet)
        assert flt.DstIpFilter(Prefix.parse("10.1.0.0/16")).matches(packet)

    def test_l4_ports(self):
        packet = make_packet(sport=1234, dport=443)
        assert flt.SrcPortFilter(1234).matches(packet)
        assert flt.DstPortFilter(443).matches(packet)
        assert not flt.DstPortFilter(80).matches(packet)

    def test_proto(self):
        assert flt.ProtoFilter(PROTO_TCP).matches(make_packet())
        assert not flt.ProtoFilter(PROTO_UDP).matches(make_packet())

    def test_tcp_flags_all_bits_required(self):
        syn = make_packet(flags=TCP_SYN)
        assert flt.TcpFlagsFilter(TCP_SYN).matches(syn)
        assert not flt.TcpFlagsFilter(TCP_SYN | 0x10).matches(syn)

    def test_switch_port_vacuous_on_packets(self):
        assert flt.SwitchPortFilter(3).matches(make_packet())

    def test_true_false(self):
        assert flt.TrueFilter().matches(make_packet())
        assert not flt.FalseFilter().matches(make_packet())


class TestCombinators:
    def test_and_or_not(self):
        packet = make_packet(src="10.0.0.5", dport=80)
        both = flt.and_(flt.SrcIpFilter(Prefix.parse("10.0.0.0/24")), flt.DstPortFilter(80))
        assert both.matches(packet)
        either = flt.or_(flt.SrcIpFilter(Prefix.parse("9.9.9.9")), flt.DstPortFilter(80))
        assert either.matches(packet)
        assert not (~either).matches(packet)

    def test_and_simplification(self):
        atom = flt.DstPortFilter(80)
        assert flt.and_(flt.TrueFilter(), atom) == atom
        assert flt.and_(flt.FalseFilter(), atom) == flt.FalseFilter()
        assert flt.and_() == flt.TrueFilter()

    def test_or_simplification(self):
        atom = flt.DstPortFilter(80)
        assert flt.or_(flt.FalseFilter(), atom) == atom
        assert flt.or_(flt.TrueFilter(), atom) == flt.TrueFilter()
        assert flt.or_() == flt.FalseFilter()

    def test_flattening(self):
        a, b, c = (flt.DstPortFilter(i) for i in (1, 2, 3))
        nested = flt.and_(flt.and_(a, b), c)
        assert isinstance(nested, flt.AndFilter)
        assert len(nested.operands) == 3

    def test_operator_overloads(self):
        a = flt.SrcIpFilter(Prefix.parse("10.0.0.0/8"))
        b = flt.DstPortFilter(80)
        assert (a & b).matches(make_packet(dport=80))
        assert (a | b).matches(make_packet(src="11.0.0.1", dport=80))


class TestIntrospection:
    def test_prefix_extraction(self):
        fil = flt.and_(flt.SrcIpFilter(Prefix.parse("10.1.1.4")), flt.DstIpFilter(Prefix.parse("10.0.1.0/24")))
        assert fil.src_prefixes() == frozenset({Prefix.parse("10.1.1.4")})
        assert fil.dst_prefixes() == frozenset({Prefix.parse("10.0.1.0/24")})

    def test_switch_ports_none_when_absent(self):
        assert flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")).switch_ports() is None
        fil = flt.and_(flt.SwitchPortFilter(3), flt.SwitchPortFilter(5))
        assert fil.switch_ports() == frozenset({3, 5})

    def test_canonical_order_independent(self):
        a = flt.and_(flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")), flt.DstPortFilter(80))
        b = flt.and_(flt.DstPortFilter(80), flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")))
        assert a.canonical() == b.canonical()

    def test_canonical_distinguishes_and_or(self):
        a = flt.and_(flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")), flt.DstPortFilter(80))
        b = flt.or_(flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")), flt.DstPortFilter(80))
        assert a.canonical() != b.canonical()

# ---------------------------------------------------------------------------
# Property-based: boolean algebra laws hold under evaluation
# ---------------------------------------------------------------------------

atom_strategy = st.one_of(
    st.builds(flt.SrcIpFilter,
              st.builds(Prefix, st.integers(0, 0xFFFFFFFF),
                        st.integers(0, 32))),
    st.builds(flt.DstPortFilter, st.integers(0, 65535)),
    st.builds(flt.ProtoFilter, st.sampled_from([PROTO_TCP, PROTO_UDP])),
    st.just(flt.TrueFilter()),
    st.just(flt.FalseFilter()),
)

packet_strategy = st.builds(
    Packet,
    key=st.builds(FlowKey,
                  src_ip=st.integers(0, 0xFFFFFFFF),
                  dst_ip=st.integers(0, 0xFFFFFFFF),
                  src_port=st.integers(0, 65535),
                  dst_port=st.integers(0, 65535),
                  proto=st.sampled_from([PROTO_TCP, PROTO_UDP])),
    tcp_flags=st.integers(0, 0x3F),
)


class TestAlgebraProperties:
    @given(atom_strategy, atom_strategy, packet_strategy)
    def test_and_is_conjunction(self, a, b, packet):
        assert (flt.and_(a, b).matches(packet)
                == (a.matches(packet) and b.matches(packet)))

    @given(atom_strategy, atom_strategy, packet_strategy)
    def test_or_is_disjunction(self, a, b, packet):
        assert (flt.or_(a, b).matches(packet)
                == (a.matches(packet) or b.matches(packet)))

    @given(atom_strategy, packet_strategy)
    def test_double_negation(self, a, packet):
        assert flt.NotFilter(flt.NotFilter(a)).matches(packet) \
            == a.matches(packet)

    @given(atom_strategy, atom_strategy, packet_strategy)
    def test_de_morgan(self, a, b, packet):
        lhs = flt.NotFilter(flt.and_(a, b))
        rhs = flt.or_(flt.NotFilter(a), flt.NotFilter(b))
        assert lhs.matches(packet) == rhs.matches(packet)

    @given(atom_strategy, atom_strategy)
    def test_canonical_commutativity(self, a, b):
        assert flt.and_(a, b).canonical() == flt.and_(b, a).canonical()
        assert flt.or_(a, b).canonical() == flt.or_(b, a).canonical()

    @given(atom_strategy)
    def test_atoms_are_hashable_and_equal_to_themselves(self, a):
        assert a == a
        assert hash(a) == hash(a)
