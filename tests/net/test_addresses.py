"""Tests for IPv4 address/prefix arithmetic (incl. hypothesis properties)."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import (
    ANY_PREFIX,
    AddressError,
    Prefix,
    format_ip,
    parse_ip,
)

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestParseFormat:
    def test_roundtrip_known_values(self):
        for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.77"):
            assert format_ip(parse_ip(text)) == text

    @given(ips)
    def test_roundtrip_property(self, value):
        assert parse_ip(format_ip(value)) == value

    @pytest.mark.parametrize("bad", ["10.0.0", "1.2.3.4.5", "256.0.0.1",
                                     "a.b.c.d", "", "1..2.3"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            parse_ip(bad)

    def test_format_out_of_range(self):
        with pytest.raises(AddressError):
            format_ip(-1)
        with pytest.raises(AddressError):
            format_ip(1 << 32)


class TestPrefix:
    def test_parse_cidr(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.length == 16
        assert str(prefix) == "10.1.0.0/16"

    def test_parse_host_is_slash_32(self):
        assert Prefix.parse("10.1.1.4").length == 32

    def test_network_normalized(self):
        prefix = Prefix.parse("10.1.2.3/16")
        assert str(prefix) == "10.1.0.0/16"

    def test_contains(self):
        prefix = Prefix.parse("10.0.1.0/24")
        assert prefix.contains(parse_ip("10.0.1.200"))
        assert not prefix.contains(parse_ip("10.0.2.1"))

    def test_any_prefix_contains_everything(self):
        assert ANY_PREFIX.contains(0)
        assert ANY_PREFIX.contains(0xFFFFFFFF)

    def test_bad_length_rejected(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/xx")

    def test_hashable_and_ordered(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/8")
        assert a == b and hash(a) == hash(b)
        assert sorted([Prefix.parse("11.0.0.0/8"), a])[0] == a

    @given(ips, prefix_lengths)
    def test_prefix_contains_its_network(self, ip, length):
        prefix = Prefix(ip, length)
        assert prefix.contains(prefix.network)

    @given(ips, prefix_lengths)
    def test_membership_matches_mask_arithmetic(self, ip, length):
        prefix = Prefix(ip, length)
        # every address in the range is contained, the one just outside isn't
        last = prefix.network + (1 << (32 - prefix.length)) - 1
        assert prefix.contains(last)
        if last < 0xFFFFFFFF:
            assert not prefix.contains(last + 1)

    @given(ips, prefix_lengths)
    def test_str_parse_roundtrip(self, ip, length):
        prefix = Prefix(ip, length)
        assert Prefix.parse(str(prefix)) == prefix
