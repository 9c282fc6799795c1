"""Reliable delivery: acks, retries, dedup, dead letters — under chaos."""

import pytest

from repro.core.chaos import FaultInjector
from repro.core.comm import ControlBus
from repro.core.reliable import ReliableEndpoint, RetryPolicy
from repro.errors import CommError
from repro.sim.engine import Simulator


def make_pair(seed=0, policy=None, a_alive=None, b_alive=None):
    sim = Simulator()
    bus = ControlBus(sim, unknown_dst="drop")
    injector = FaultInjector(sim, seed=seed).attach(bus)
    a_inbox, b_inbox = [], []
    a = ReliableEndpoint(bus, sim, "a", lambda m: a_inbox.append(m.payload),
                         policy=policy, alive=a_alive)
    b = ReliableEndpoint(bus, sim, "b", lambda m: b_inbox.append(m.payload),
                         policy=policy, alive=b_alive)
    return sim, bus, injector, a, b, a_inbox, b_inbox


def count(endpoint, what):
    """An endpoint's ``farm_reliable_<what>_total`` counter."""
    return endpoint.bus.metrics.value(f"farm_reliable_{what}_total",
                                      {"endpoint": endpoint.name})


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(CommError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(CommError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CommError):
            RetryPolicy(jitter_frac=-0.5)


class TestCleanBus:
    def test_delivery_and_ack(self):
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair()
        seq = a.send("b", {"x": 1})
        assert seq == 1
        sim.run()
        assert b_inbox == [{"x": 1}]
        assert count(a, "acked") == 1
        assert a.reset() == 0  # nothing left in flight
        assert count(a, "retransmissions") == 0

    def test_legacy_raw_traffic_passes_through(self):
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair()
        bus.send("other", "b", {"plain": True})
        sim.run()
        assert b_inbox == [{"plain": True}]
        assert count(b, "acked") == 0


class TestUnderLoss:
    def test_every_message_arrives_exactly_once(self):
        policy = RetryPolicy(timeout_s=2e-3, max_attempts=20)
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(
            seed=7, policy=policy)
        injector.lossy(0.4)  # both data and acks suffer
        for i in range(50):
            a.send("b", i)
        sim.run()
        assert sorted(b_inbox) == list(range(50))
        assert len(b_inbox) == 50  # dedup: exactly once despite re-sends
        assert count(a, "retransmissions") > 0
        assert count(a, "dead_letters") == 0
        assert a.reset() == 0  # nothing left in flight

    def test_duplicating_bus_is_deduplicated(self):
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair()
        injector.add_rule(duplicate=1.0)
        for i in range(10):
            a.send("b", i)
        sim.run()
        assert b_inbox == list(range(10))
        assert count(b, "duplicates") >= 10

    def test_lost_ack_triggers_reack_not_reprocessing(self):
        policy = RetryPolicy(timeout_s=2e-3)
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(policy=policy)
        # Drop only the ack direction: b's data processing happens once,
        # but a keeps retransmitting until an ack finally gets through.
        rule = injector.add_rule(src="b", dst="a", loss=1.0, end=0.01)
        a.send("b", "hello")
        sim.run()
        assert b_inbox == ["hello"]  # processed exactly once
        assert count(b, "duplicates") >= 1
        assert count(a, "acked") == 1

    def test_deterministic_backoff_schedule(self):
        histories = []
        for _ in range(2):
            sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(seed=5)
            injector.lossy(0.5)
            for i in range(30):
                a.send("b", i)
            sim.run()
            histories.append((tuple(b_inbox), count(a, "retransmissions"),
                              bus.metrics.value("farm_bus_messages_total")))
        assert histories[0] == histories[1]


class TestDeadLetters:
    def test_unreachable_destination_dead_letters(self):
        policy = RetryPolicy(timeout_s=1e-3, max_attempts=3)
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(policy=policy)
        injector.partition(("b",))
        dead = []
        a.send("b", "doomed", on_dead=lambda dst, p, n: dead.append((dst, p, n)))
        sim.run()
        assert dead == [("b", "doomed", 3)]
        assert count(a, "dead_letters") == 1
        assert a.reset() == 0  # nothing left in flight
        assert b_inbox == []

    def test_partition_shorter_than_retry_horizon_recovers(self):
        policy = RetryPolicy(timeout_s=5e-3, backoff_cap_s=0.05,
                             max_attempts=10)
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(policy=policy)
        injector.partition(("b",), at=0.0, duration=0.05)
        a.send("b", "patient")
        sim.run()
        assert b_inbox == ["patient"]
        assert count(a, "dead_letters") == 0


class TestLiveness:
    def test_dead_endpoint_neither_sends_nor_acks(self):
        alive = {"b": True}
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(
            policy=RetryPolicy(timeout_s=1e-3, max_attempts=3),
            b_alive=lambda: alive["b"])
        alive["b"] = False
        assert b.send("a", "from the grave") is None
        dead = []
        a.send("b", "to the grave",
               on_dead=lambda dst, p, n: dead.append(p))
        sim.run()
        assert b_inbox == []
        assert a_inbox == []
        assert dead == ["to the grave"]

    def test_reset_abandons_pending(self):
        sim, bus, injector, a, b, a_inbox, b_inbox = make_pair(
            policy=RetryPolicy(timeout_s=1e-3, max_attempts=5))
        injector.partition(("b",))
        a.send("b", "x")
        a.send("b", "y")
        assert a.reset() == 2
        assert a.reset() == 0  # nothing left in flight
        sim.run()
        # timers cancelled, no dead letters
        assert count(a, "dead_letters") == 0
