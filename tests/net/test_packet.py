"""Tests for packets and rate-based flows."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FarmError
from repro.net.addresses import parse_ip
from repro.net.packet import (
    BATCH_COLUMNS,
    PROTO_TCP,
    Flow,
    FlowKey,
    Packet,
    ProbeBatch,
    TCP_ACK,
    TCP_SYN,
)


def key(sport=1000, dport=80):
    return FlowKey(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"),
                   sport, dport, PROTO_TCP)


class TestFlowKey:
    def test_str_is_human_readable(self):
        assert "10.0.0.1:1000" in str(key())
        assert "/tcp" in str(key())


class TestPacketFlags:
    def test_syn_classification(self):
        assert Packet(key=key(), tcp_flags=TCP_SYN).is_syn
        assert not Packet(key=key(), tcp_flags=TCP_SYN | TCP_ACK).is_syn
        assert Packet(key=key(), tcp_flags=TCP_SYN | TCP_ACK).is_synack


class TestProbeBatch:
    def test_flag_columns_match_the_packet_properties_on_every_byte(self):
        # The four flag columns are derived from ``tcp_flags`` beside the
        # properties, not through them: every flag byte must agree, value
        # and type.  Mutation caught: ``is_syn`` without the ACK test.
        flows = [Flow(key(sport=1000 + flags), rate_bps=1.0,
                      default_tcp_flags=flags) for flags in range(256)]
        batch = ProbeBatch(flows, 3.0, ProbeBatch.columns_of(flows))
        packets = batch.packets()
        assert packets == [flow.sample_packet(3.0) for flow in flows]
        for name in ("is_syn", "is_synack", "is_fin", "is_rst"):
            expected = [getattr(packet, name) for packet in packets]
            assert getattr(batch, name) == expected
            assert {type(value) for value in getattr(batch, name)} == {bool}

    def test_columns_are_the_packet_fields(self):
        flows = [Flow(key(sport=7, dport=dport), rate_bps=1.0,
                      packet_size=64 * dport, default_tcp_flags=dport % 3)
                 for dport in (22, 80, 80, 443)]
        flows.append(flows[1])  # a flow sampled twice
        batch = ProbeBatch(flows, 0.5, ProbeBatch.columns_of(flows))
        assert len(batch) == 5 and batch.now == 0.5
        for name in BATCH_COLUMNS:
            assert getattr(batch, name) \
                == [getattr(p, name) for p in batch.packets()]
        empty = ProbeBatch([], 1.0, ProbeBatch.columns_of([]))
        assert not empty and empty.packets() == []


class TestFlow:
    def test_constant_rate_integration(self):
        flow = Flow(key(), rate_bps=100.0, start_time=0.0)
        assert flow.bytes_between(0.0, 10.0) == pytest.approx(1000.0)
        assert flow.packets_between(0.0, 10.0) == pytest.approx(1.0)

    def test_rate_zero_before_start(self):
        flow = Flow(key(), rate_bps=100.0, start_time=5.0)
        assert flow.bytes_between(0.0, 5.0) == 0.0
        assert flow.bytes_between(0.0, 10.0) == pytest.approx(500.0)

    def test_rate_change_segments(self):
        flow = Flow(key(), rate_bps=100.0, start_time=0.0)
        flow.set_rate(200.0, at_time=10.0)
        assert flow.bytes_between(0.0, 20.0) == pytest.approx(3000.0)
        assert flow.rate_at(5.0) == 100.0
        assert flow.rate_at(15.0) == 200.0

    def test_stop_freezes_counters(self):
        flow = Flow(key(), rate_bps=100.0)
        flow.stop(at_time=4.0)
        assert flow.bytes_between(0.0, 100.0) == pytest.approx(400.0)
        assert flow.rate_bps == 0.0

    def test_chronological_changes_enforced(self):
        flow = Flow(key(), rate_bps=100.0)
        flow.set_rate(50.0, at_time=5.0)
        with pytest.raises(FarmError):
            flow.set_rate(10.0, at_time=1.0)

    def test_same_time_change_overwrites(self):
        flow = Flow(key(), rate_bps=100.0)
        flow.set_rate(50.0, at_time=0.0)
        assert flow.rate_at(1.0) == 50.0

    def test_negative_rate_rejected(self):
        with pytest.raises(FarmError):
            Flow(key(), rate_bps=-1.0)
        flow = Flow(key(), rate_bps=1.0)
        with pytest.raises(FarmError):
            flow.set_rate(-5.0, at_time=1.0)

    def test_bad_interval_rejected(self):
        flow = Flow(key(), rate_bps=1.0)
        with pytest.raises(FarmError):
            flow.bytes_between(5.0, 1.0)

    def test_sample_packet_carries_default_flags(self):
        flow = Flow(key(), rate_bps=1.0, default_tcp_flags=TCP_SYN)
        assert flow.sample_packet(1.0).is_syn
        assert not flow.sample_packet(1.0, tcp_flags=0).is_syn

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=100.0),
                              st.floats(min_value=0.0, max_value=1e6)),
                    min_size=1, max_size=10))
    def test_integral_is_additive(self, changes):
        """bytes(a,c) == bytes(a,b) + bytes(b,c) for any split point."""
        flow = Flow(key(), rate_bps=10.0, start_time=0.0)
        t = 0.0
        for dt, rate in changes:
            t += dt
            flow.set_rate(rate, at_time=t)
        end = t + 10.0
        mid = end / 2
        total = flow.bytes_between(0.0, end)
        split = flow.bytes_between(0.0, mid) + flow.bytes_between(mid, end)
        assert total == pytest.approx(split, rel=1e-9, abs=1e-6)

    @given(st.floats(min_value=0.0, max_value=1e9))
    def test_integral_nonnegative(self, rate):
        flow = Flow(key(), rate_bps=rate)
        assert flow.bytes_between(0.0, 123.0) >= 0.0
