"""ASIC model tests: counters, rule effects, sampling, the flow table."""

import gc
import random
import sys

import pytest

from repro.errors import SwitchError
from repro.net import filters as flt
from repro.net.addresses import Prefix, parse_ip
from repro.net.packet import (
    BATCH_COLUMNS,
    PROTO_TCP,
    TCP_SYN,
    Flow,
    FlowKey,
    Packet,
)
from repro.sim.engine import Simulator
from repro.switchsim.asic import Asic
from repro.switchsim.tcam import MONITORING, RuleAction, TcamRule


def make_flow(rate=1000.0, sport=1000, dport=80, src="10.0.0.1",
              start=0.0):
    key = FlowKey(parse_ip(src), parse_ip("10.1.0.1"), sport, dport,
                  PROTO_TCP)
    return Flow(key, rate_bps=rate, start_time=start)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def asic(sim):
    return Asic(sim, num_ports=8)


class TestAttachment:
    def test_port_counters_integrate_rates(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), in_port=0, out_port=1)
        sim.run(until=10.0)
        stats = asic.read_port_stats(1)
        assert stats.tx_bytes == pytest.approx(1000.0)
        assert stats.rate_bps == pytest.approx(100.0)
        # ingress port carries no egress counters
        assert asic.read_port_stats(0).tx_bytes == 0.0

    def test_detach_freezes_counters(self, sim, asic):
        flow = make_flow(rate=100.0)
        asic.attach_flow(flow, 0, 1)
        sim.run(until=5.0)
        asic.detach_flow(flow)
        sim.run(until=20.0)
        assert asic.read_port_stats(1).tx_bytes == pytest.approx(500.0)
        assert asic.read_port_stats(1).rate_bps == 0.0

    def test_double_attach_rejected(self, asic):
        flow = make_flow()
        asic.attach_flow(flow, 0, 1)
        with pytest.raises(SwitchError):
            asic.attach_flow(flow, 2, 3)

    def test_detach_unknown_rejected(self, asic):
        with pytest.raises(SwitchError):
            asic.detach_flow(make_flow())

    def test_port_range_validated(self, asic):
        with pytest.raises(SwitchError):
            asic.attach_flow(make_flow(), 0, 99)
        with pytest.raises(SwitchError):
            asic.read_port_stats(-1)

    def test_ports_with_traffic(self, sim, asic):
        asic.attach_flow(make_flow(rate=10.0), 0, 3)
        asic.attach_flow(make_flow(rate=10.0, sport=2000), 0, 5)
        assert asic.ports_with_traffic() == [3, 5]


class TestRuleEffects:
    def test_drop_zeroes_effective_rate(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0, dport=80), 0, 1)
        asic.tcam.install(TcamRule(flt.DstPortFilter(80), RuleAction.DROP,
                                   region=MONITORING), now=0.0)
        assert asic.read_port_stats(1).rate_bps == 0.0

    def test_rate_limit_caps_rate(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), 0, 1)
        asic.tcam.install(TcamRule(
            flt.DstPortFilter(80), RuleAction.RATE_LIMIT,
            params={"rate_bps": 30.0}, region=MONITORING))
        assert asic.read_port_stats(1).rate_bps == pytest.approx(30.0)

    def test_count_rule_does_not_change_rate(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), 0, 1)
        asic.tcam.install(TcamRule(flt.DstPortFilter(80), RuleAction.COUNT,
                                   region=MONITORING))
        assert asic.read_port_stats(1).rate_bps == pytest.approx(100.0)

    def test_port_scoped_rule_only_hits_its_port(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), 0, 1)
        asic.attach_flow(make_flow(rate=100.0, sport=2000), 0, 2)
        asic.tcam.install(TcamRule(
            flt.SwitchPortFilter(2), RuleAction.DROP, region=MONITORING))
        assert asic.read_port_stats(1).rate_bps == pytest.approx(100.0)
        assert asic.read_port_stats(2).rate_bps == 0.0

    def test_rule_counters_count_matching_bytes(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0, dport=80), 0, 1)
        asic.attach_flow(make_flow(rate=50.0, dport=443, sport=2000), 0, 1)
        rule_id = asic.tcam.install(
            TcamRule(flt.DstPortFilter(80), RuleAction.COUNT,
                     region=MONITORING), now=0.0)
        sim.run(until=10.0)
        stats = asic.read_rule_stats(rule_id)
        assert stats.matched_bytes == pytest.approx(1000.0)

    def test_rule_counters_start_at_install_time(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), 0, 1)
        sim.run(until=5.0)
        rule_id = asic.tcam.install(
            TcamRule(flt.DstPortFilter(80), RuleAction.COUNT,
                     region=MONITORING), now=sim.now)
        sim.run(until=10.0)
        assert asic.read_rule_stats(rule_id).matched_bytes \
            == pytest.approx(500.0)

    def test_only_highest_priority_rule_counts(self, sim, asic):
        asic.attach_flow(make_flow(rate=100.0), 0, 1)
        low = asic.tcam.install(TcamRule(
            flt.DstPortFilter(80), RuleAction.COUNT, priority=1,
            region=MONITORING), now=0.0)
        high = asic.tcam.install(TcamRule(
            flt.DstPortFilter(80), RuleAction.COUNT, priority=5,
            region=MONITORING), now=0.0)
        sim.run(until=10.0)
        assert asic.read_rule_stats(high).matched_bytes > 0
        assert asic.read_rule_stats(low).matched_bytes == 0.0


class TestSampling:
    def test_samples_ranked_by_rate(self, sim, asic):
        asic.attach_flow(make_flow(rate=10.0, sport=1000), 0, 1)
        asic.attach_flow(make_flow(rate=1000.0, sport=2000), 0, 1)
        samples = asic.sample_packets(flt.TrueFilter(),
                                     max_packets=1).packets()
        assert samples[0].src_port == 2000

    def test_samples_respect_filter(self, sim, asic):
        asic.attach_flow(make_flow(rate=10.0, dport=80), 0, 1)
        asic.attach_flow(make_flow(rate=10.0, dport=22, sport=2000), 0, 1)
        samples = asic.sample_packets(flt.DstPortFilter(22)).packets()
        # the single matching flow soaks up the whole sample budget
        assert samples
        assert all(p.dst_port == 22 for p in samples)

    def test_budget_apportioned_by_rate(self, sim, asic):
        asic.attach_flow(make_flow(rate=900.0, sport=1000), 0, 1)
        asic.attach_flow(make_flow(rate=100.0, sport=2000), 0, 1)
        samples = asic.sample_packets(flt.TrueFilter(),
                                     max_packets=10).packets()
        by_port = {}
        for packet in samples:
            by_port[packet.src_port] = by_port.get(packet.src_port, 0) + 1
        assert by_port == {1000: 9, 2000: 1}

    def test_more_flows_than_budget_one_each_heaviest_first(self, sim, asic):
        for index in range(6):
            asic.attach_flow(
                make_flow(rate=100.0 * (index + 1), sport=3000 + index),
                0, 1)
        samples = asic.sample_packets(flt.TrueFilter(),
                                     max_packets=4).packets()
        assert len(samples) == 4
        # the four heaviest flows, one sample each
        assert sorted(p.src_port for p in samples) == [3002, 3003, 3004,
                                                       3005]

    def test_dropped_flows_not_sampled(self, sim, asic):
        asic.attach_flow(make_flow(rate=10.0, dport=80), 0, 1)
        asic.tcam.install(TcamRule(flt.DstPortFilter(80), RuleAction.DROP,
                                   region=MONITORING))
        assert asic.sample_packets(flt.TrueFilter()).packets() == []

    def test_fabric_demand_refresh(self, sim, asic):
        flow = make_flow(rate=100.0)
        asic.attach_flow(flow, 0, 1)
        flow.set_rate(500.0, at_time=0.0)
        asic.refresh_fabric_demand()
        assert asic.fabric.demand == pytest.approx(500.0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_probe_budget_below_one_rejected(self, asic, budget):
        # -1 used to slice "all but the last flow"; 0 returned [] while the
        # driver still charged PCIe for one packet.
        asic.attach_flow(make_flow(rate=10.0), 0, 1)
        with pytest.raises(SwitchError):
            asic.sample_packets(flt.TrueFilter(), max_packets=budget)

    def test_detach_after_drop_and_refresh_leaves_meter_at_zero(self, sim,
                                                                 asic):
        flow = make_flow(rate=100.0)
        asic.attach_flow(flow, 0, 1)
        asic.tcam.install(TcamRule(flt.TrueFilter(), RuleAction.DROP,
                                   region=MONITORING))
        asic.refresh_fabric_demand()
        assert asic.fabric.demand == 0.0
        asic.detach_flow(flow)  # used to drive the meter negative and raise
        assert asic.fabric.demand == 0.0


# ----------------------------------------------------------------------
# The flow table against brute force.  The oracle keeps its own shadow of
# what was attached and re-derives every answer by full scan from the
# docstrings' spec: no memo, no live set, no columns.
# ----------------------------------------------------------------------
class _Row:
    def __init__(self, flow, in_port, out_port, t0):
        self.flow, self.in_port, self.out_port = flow, in_port, out_port
        self.t0, self.t1 = t0, None

    def live(self, now):
        return self.t0 <= now and (self.t1 is None or now < self.t1)

    def window(self, lo, now):
        return max(lo, self.t0), now if self.t1 is None else min(now, self.t1)


def _oracle_rule(tcam, row):
    for rule in sorted(tcam.rules(), key=lambda r: (-r.priority, r.rule_id)):
        ports = rule.pattern.switch_ports()
        if rule.pattern.matches_key(row.flow.key) and (
                ports is None or flt.ANY_PORT in ports
                or row.in_port in ports or row.out_port in ports):
            return rule
    return None


def _oracle_rate(tcam, row, now):
    rate, rule = row.flow.rate_at(now), _oracle_rule(tcam, row)
    if rule is not None and rule.action is RuleAction.DROP:
        return 0.0
    if rule is not None and rule.action is RuleAction.RATE_LIMIT:
        return min(rate, float(rule.params.get("rate_bps", rate)))
    return rate


def _oracle_sample(rows, tcam, fil, budget, now):
    hit = [r for r in rows if r.live(now) and _oracle_rate(tcam, r, now) > 0
           and fil.matches_key(r.flow.key,
                               tcp_flags=r.flow.default_tcp_flags)]
    hit.sort(key=lambda r: (-r.flow.rate_at(now), r.flow.key.src_ip,
                            r.flow.key.src_port))
    if len(hit) >= budget:
        counts = [1] * budget
    else:
        rates = [_oracle_rate(tcam, r, now) for r in hit]
        shares = [rate / sum(rates) * budget for rate in rates]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(len(hit)), reverse=True,
                              key=lambda i: shares[i] - counts[i])
        for i in by_remainder[:budget - sum(counts)]:
            counts[i] += 1
    return [r.flow.sample_packet(now)
            for r, count in zip(hit, counts) for _ in range(count)]


def _oracle_rule_bytes(rows, tcam, rule, now):
    total = 0.0
    for row in rows:
        lo, hi = row.window(rule.installed_at, now)
        if _oracle_rule(tcam, row) is rule and hi > lo:
            total += row.flow.bytes_between(lo, hi)
    return total


PROBE_FILTERS = [
    flt.TrueFilter(), flt.DstPortFilter(80), flt.DstPortFilter(22),
    flt.SrcIpFilter(Prefix.parse("10.0.0.0/30")), flt.TcpFlagsFilter(TCP_SYN),
    flt.and_(flt.DstPortFilter(80), flt.NotFilter(flt.SrcPortFilter(1001))),
]
RULE_PATTERNS = [
    flt.TrueFilter(), flt.DstPortFilter(80), flt.SrcPortFilter(1001),
    flt.SwitchPortFilter(2), flt.SwitchPortFilter(flt.ANY_PORT),
    flt.and_(flt.SwitchPortFilter(1), flt.DstPortFilter(22)),
    flt.SrcIpFilter(Prefix.parse("10.0.0.2/31")),
]


def _check_probe(asic, rows, fil, budget, now, plans):
    """One probe against the oracle: its packets, and each column against
    the same field of those packets, value and type.  ``plans`` keeps the
    last batch per (filter, budget) and tallies plan hits (the batch shares
    that one's columns) and misses."""
    batch = asic.sample_packets(fil, budget)
    expected = _oracle_sample(rows, asic.tcam, fil, budget, now)
    assert batch.packets() == expected
    assert len(batch) == len(expected) and batch.now == now
    for name in BATCH_COLUMNS:
        column = getattr(batch, name)
        assert column == [getattr(p, name) for p in expected]
        assert [type(v) for v in column] \
            == [type(getattr(p, name)) for p in expected]
    last = plans.get((fil, budget))
    hit = last is not None and last.src_ip is batch.src_ip
    plans["hits" if hit else "misses"] += 1
    plans[fil, budget] = batch


def _check_against_oracle(asic, rows, now, plans):
    tcam = asic.tcam
    for fil in PROBE_FILTERS:
        for budget in (1, 3, 16, 64):
            _check_probe(asic, rows, fil, budget, now, plans)
    assert asic.read_port_stats_batch() \
        == [asic.read_port_stats(port) for port in range(asic.num_ports)]
    assert asic.read_port_stats_batch([3, 1, 3]) \
        == [asic.read_port_stats(port) for port in (3, 1, 3)]
    for rule in tcam.rules():
        assert asic.read_rule_stats(rule.rule_id).matched_bytes \
            == _oracle_rule_bytes(rows, tcam, rule, now)
    live = [r for r in rows if r.live(now)]
    assert asic.ports_with_traffic() == sorted(
        {r.out_port for r in live if r.flow.rate_at(now) > 0})
    asic.refresh_fabric_demand()
    assert asic.fabric.demand == pytest.approx(
        sum(_oracle_rate(tcam, r, now) for r in live))


@pytest.mark.parametrize("seed", range(12))
def test_flow_table_matches_brute_force_under_churn(seed):
    rng = random.Random(seed)
    sim = Simulator()
    asic = Asic(sim, num_ports=4)
    rows, detached = [], []

    def new_flow():
        key = FlowKey(parse_ip("10.0.0.0") + rng.randrange(6),
                      parse_ip("10.1.0.1"), 1000 + rng.randrange(3),
                      rng.choice([22, 80]), PROTO_TCP)
        return Flow(key, rate_bps=rng.choice([0.0, 50.0, 100.0, 100.0, 900.0]),
                    start_time=sim.now + rng.choice([-1.0, 0.0, 0.0, 0.5]),
                    packet_size=rng.choice([100, 1000]),
                    default_tcp_flags=rng.choice([0, TCP_SYN]))

    def attach(flow):
        in_port, out_port = rng.randrange(4), rng.randrange(4)
        asic.attach_flow(flow, in_port, out_port)
        rows.append(_Row(flow, in_port, out_port, sim.now))

    for _ in range(6):
        attach(new_flow())
    plans = {"hits": 0, "misses": 0}
    for _ in range(70):
        now = sim.now
        live = [r for r in rows if r.t1 is None]
        op = rng.choice(["attach", "attach", "detach", "reattach", "rate",
                         "rate", "replace", "stop", "install", "install",
                         "remove", "params", "advance", "advance", "future"])
        if op == "attach":
            attach(new_flow())
        elif op == "detach" and live:
            row = rng.choice(live)
            asic.detach_flow(row.flow)
            row.t1 = now
            detached.append(row.flow)
        elif op == "reattach" and detached:
            flow = detached.pop(rng.randrange(len(detached)))
            if all(r.flow is not flow for r in live):
                attach(flow)
        elif op in ("rate", "replace", "stop") and rows:
            flow = rng.choice(rows).flow  # live or long detached
            at = max(now, flow._segments[-1][0])
            if op == "stop":
                flow.stop(at)
            else:
                flow.set_rate(rng.choice([0.0, 70.0, 100.0, 5000.0]), at)
            if op == "replace":  # a second change at the same instant
                flow.set_rate(rng.choice([0.0, 30.0, 900.0]), at)
        elif op == "install":
            asic.tcam.install(TcamRule(
                rng.choice(RULE_PATTERNS),
                rng.choice([RuleAction.DROP, RuleAction.RATE_LIMIT,
                            RuleAction.RATE_LIMIT, RuleAction.COUNT]),
                priority=rng.choice([0, 0, 1, 5]),
                params=rng.choice([{}, {"rate_bps": 60.0}]),
                region=MONITORING), now=now)
        elif op == "remove" and asic.tcam.rules():
            asic.tcam.remove(rng.choice(asic.tcam.rules()).rule_id)
        elif op == "params" and asic.tcam.rules():
            # In place, behind the ASIC's back: only the winning rule's
            # identity may be memoised, never what it says.
            rng.choice(asic.tcam.rules()).params["rate_bps"] = \
                rng.choice([0.0, 20.0, 400.0])
        elif op == "advance":
            sim.run(until=now + rng.choice([0.25, 1.0]))
        elif op == "future" and live:
            # A rate change scheduled ahead of the clock: the flow's rate
            # moves at that instant with no further signal, so probes
            # before it must not leave a plan that probes after it reuse.
            flow = rng.choice(live).flow
            at = max(now, flow._segments[-1][0]) + rng.choice([0.25, 0.5])
            flow.set_rate(rng.choice([0.0, 40.0, 3000.0]), at)
            _check_against_oracle(asic, rows, now, plans)
            sim.run(until=at)
        _check_against_oracle(asic, rows, sim.now, plans)
    # Both sides of the plan memo were checked: stamped reuses and rebuilds.
    assert plans["hits"] > 0 and plans["misses"] > 0


# ----------------------------------------------------------------------
# Engagement: the memo and the live set are actually what serves reads.
# ----------------------------------------------------------------------
class _CountingFilter(flt.Filter):
    """Matches everything and counts how often it was asked."""

    def __init__(self):
        self.calls = 0

    def matches_key(self, key, tcp_flags=0):
        self.calls += 1
        return True


def _python_calls(fn):
    """How many Python-level function calls ``fn()`` makes (collector off:
    gc callbacks and finalizers are Python calls too, at arbitrary times)."""
    calls = [0]

    def tracer(frame, event, arg):
        calls[0] += event == "call"
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls[0]


class TestFlowTableEngagement:
    def test_repeat_probe_of_unchanged_table_does_not_reclassify(self, sim,
                                                                 asic):
        flows = [make_flow(rate=10.0, sport=1000 + i) for i in range(5)]
        for flow in flows:
            asic.attach_flow(flow, 0, 1)
        fil = _CountingFilter()
        first = asic.sample_packets(fil).packets()
        assert fil.calls == 5
        sim.run(until=1.0)
        flows[0].set_rate(500.0, sim.now)  # rates are read, not memoised
        again = asic.sample_packets(fil).packets()
        assert fil.calls == 5
        assert len(first) == len(again) == 16
        assert again[0].src_port == 1000 and again[0].timestamp == 1.0
        asic.detach_flow(flows[1])  # a table change drops the memo
        asic.sample_packets(fil)
        assert fil.calls == 9

    def test_repeat_probe_of_unchanged_table_reads_no_rate(self, sim, asic,
                                                           monkeypatch):
        flows = [make_flow(rate=10.0 * (i + 1), sport=1000 + i)
                 for i in range(5)]
        for flow in flows:
            asic.attach_flow(flow, 0, 1)
        limit = TcamRule(flt.SrcPortFilter(1004), RuleAction.RATE_LIMIT,
                         params={"rate_bps": 25.0}, region=MONITORING)
        asic.tcam.install(limit)
        reads = []
        rate_at = Flow.rate_at
        monkeypatch.setattr(Flow, "rate_at", lambda flow, time: (
            reads.append(flow), rate_at(flow, time))[1])
        fil = flt.TrueFilter()
        first = asic.sample_packets(fil).packets()
        assert len(reads) == 5
        sim.run(until=1.0)
        again = asic.sample_packets(fil).packets()
        assert len(reads) == 5  # the plan was reused: only stamped anew
        assert again == [Packet(p.key, p.size, p.tcp_flags, p.ttl, 1.0)
                         for p in first]
        limit.params["rate_bps"] = 5.0  # edited in place, no signal
        limited = asic.sample_packets(fil).packets()
        assert len(reads) == 10 and limited != again
        assert asic.sample_packets(fil).packets() == limited
        assert len(reads) == 10
        flows[0].set_rate(400.0, sim.now)
        assert asic.sample_packets(fil).packets()[0].src_port == 1000
        assert len(reads) == 15

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected_with_a_plan_memoised(self, asic,
                                                            budget):
        asic.attach_flow(make_flow(rate=10.0), 0, 1)
        fil = flt.TrueFilter()
        assert (asic.sample_packets(fil).packets()
                == asic.sample_packets(fil).packets())
        with pytest.raises(SwitchError):
            asic.sample_packets(fil, max_packets=budget)

    def test_probe_work_follows_live_flows_not_attach_history(self, sim):
        def probe_calls(churn):
            asic = Asic(sim, num_ports=8)
            for _ in range(churn):
                flow = make_flow(rate=10.0, sport=7)
                asic.attach_flow(flow, 0, 1)
                asic.detach_flow(flow)
            for i in range(5):
                asic.attach_flow(make_flow(rate=10.0, sport=1000 + i), 0, 1)
            asic.tcam.install(TcamRule(flt.DstPortFilter(80),
                                       RuleAction.COUNT, region=MONITORING))
            return _python_calls(
                lambda: asic.sample_packets(flt.DstPortFilter(80)))

        assert probe_calls(churn=300) == probe_calls(churn=0)

    def test_counter_columns_rebuilt_only_after_a_change(self, sim, asic):
        flow = make_flow(rate=10.0)
        asic.attach_flow(flow, 0, 1)
        asic.attach_flow(make_flow(rate=10.0, sport=2000), 0, 2)

        def read_calls():
            return _python_calls(asic.read_port_stats_batch)

        rebuild, cached = read_calls(), read_calls()
        assert cached < rebuild
        assert read_calls() == cached
        sim.run(until=1.0)
        assert read_calls() == cached  # time alone changes no column
        flow.set_rate(20.0, sim.now)
        assert read_calls() > rebuild  # rebuilt, plus one multi-segment row
        assert cached < read_calls() < rebuild  # ... served from the cache
        flow.set_rate(30.0, sim.now)  # same-instant replace: no new segment
        assert read_calls() > rebuild
        assert asic.read_port_stats(1).rate_bps == 30.0
        assert asic.read_port_stats_batch([1]) == [asic.read_port_stats(1)]
