"""Fault injection: loss, duplication, delay, partitions — all seeded."""

import pytest

from repro.core.chaos import FaultInjector, FaultRule, Partition
from repro.core.comm import ControlBus
from repro.errors import ChaosError
from repro.sim.engine import Simulator


def make_bus(seed=0, unknown_dst="raise"):
    sim = Simulator()
    bus = ControlBus(sim, unknown_dst=unknown_dst)
    injector = FaultInjector(sim, seed=seed).attach(bus)
    return sim, bus, injector


class TestWiring:
    def test_double_attach_rejected(self):
        sim, bus, injector = make_bus()
        with pytest.raises(ChaosError):
            FaultInjector(sim).attach(bus)

    def test_attached_injector_rejects_second_bus(self):
        sim, bus, injector = make_bus()
        other = ControlBus(Simulator())
        with pytest.raises(ChaosError):
            injector.attach(other)
        assert bus.fault_injector is injector
        assert other.fault_injector is None

    def test_no_injector_no_perturbation(self):
        sim = Simulator()
        bus = ControlBus(sim)
        received = []
        bus.register("dst", lambda m: received.append(m))
        for _ in range(10):
            bus.send("src", "dst", None)
        sim.run()
        assert len(received) == 10


class TestLoss:
    def test_total_loss_drops_everything(self):
        sim, bus, injector = make_bus()
        injector.lossy(1.0)
        received = []
        bus.register("dst", lambda m: received.append(m))
        for _ in range(20):
            message = bus.send("src", "dst", None)
            assert message.dropped
        sim.run()
        assert received == []
        assert injector.messages_dropped == 20

    def test_partial_loss_is_roughly_proportional(self):
        sim, bus, injector = make_bus(seed=3)
        injector.lossy(0.2)
        received = []
        bus.register("dst", lambda m: received.append(m))
        for _ in range(500):
            bus.send("src", "dst", None)
        sim.run()
        assert 330 <= len(received) <= 470  # ~400 expected
        assert injector.messages_dropped == 500 - len(received)

    def test_loss_is_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            sim, bus, injector = make_bus(seed=42)
            injector.lossy(0.5)
            received = []
            bus.register("dst", lambda m: received.append(m.msg_id))
            for _ in range(100):
                bus.send("src", "dst", None)
            sim.run()
            outcomes.append(tuple(received))
        assert outcomes[0] == outcomes[1]

    def test_pattern_scoping(self):
        sim, bus, injector = make_bus()
        injector.lossy(1.0, dst="soil/*")
        hit, spared = [], []
        bus.register("soil/1", lambda m: hit.append(m))
        bus.register("harvester/t", lambda m: spared.append(m))
        bus.send("seeder", "soil/1", None)
        bus.send("seeder", "harvester/t", None)
        sim.run()
        assert hit == []
        assert len(spared) == 1

    def test_invalid_probability_rejected(self):
        sim, bus, injector = make_bus()
        with pytest.raises(ChaosError):
            injector.lossy(1.5)
        with pytest.raises(ChaosError):
            injector.add_rule(duplicate=-0.1)


class TestDuplicationAndDelay:
    def test_duplication_delivers_twice(self):
        sim, bus, injector = make_bus()
        injector.add_rule(duplicate=1.0)
        received = []
        bus.register("dst", lambda m: received.append(m))
        bus.send("src", "dst", None)
        sim.run()
        assert len(received) == 2
        assert injector.messages_duplicated == 1

    def test_delay_postpones_delivery(self):
        sim, bus, injector = make_bus()
        injector.add_rule(delay_s=0.25)
        times = []
        bus.register("dst", lambda m: times.append(sim.now))
        bus.send("src", "dst", None)
        sim.run()
        assert times[0] >= 0.25
        assert injector.messages_delayed == 1

    def test_jitter_reorders_messages(self):
        sim, bus, injector = make_bus(seed=1)
        injector.add_rule(jitter_s=0.1)
        order = []
        bus.register("dst", lambda m: order.append(m.payload))
        for i in range(50):
            bus.send("src", "dst", i)
        sim.run()
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # at least one inversion

    def test_rule_window(self):
        sim, bus, injector = make_bus()
        injector.add_rule(loss=1.0, start=1.0, end=2.0)
        received = []
        bus.register("dst", lambda m: received.append(m.payload))
        sim.schedule(0.5, lambda: bus.send("src", "dst", "before"))
        sim.schedule(1.5, lambda: bus.send("src", "dst", "inside"))
        sim.schedule(2.5, lambda: bus.send("src", "dst", "after"))
        sim.run()
        assert received == ["before", "after"]


class TestPartitions:
    def test_partition_cuts_both_directions(self):
        sim, bus, injector = make_bus()
        injector.partition(("soil/2",))
        received = []
        bus.register("soil/2", lambda m: received.append(m))
        bus.register("seeder", lambda m: received.append(m))
        bus.send("seeder", "soil/2", None)
        bus.send("soil/2", "seeder", None)
        sim.run()
        assert received == []
        assert injector.partition_drops == 2

    def test_same_side_traffic_flows(self):
        sim, bus, injector = make_bus()
        injector.partition(("soil/2", "seed/2/*"))
        received = []
        bus.register("seed/2/a", lambda m: received.append(m))
        bus.send("soil/2", "seed/2/a", None)
        sim.run()
        assert len(received) == 1

    def test_scripted_window_and_heal(self):
        sim, bus, injector = make_bus()
        part = injector.partition(("soil/1",), at=1.0, duration=5.0)
        received = []
        bus.register("soil/1", lambda m: received.append(m.payload))
        sim.schedule(0.5, lambda: bus.send("x", "soil/1", "before"))
        sim.schedule(3.0, lambda: bus.send("x", "soil/1", "during"))
        sim.schedule(7.0, lambda: bus.send("x", "soil/1", "after"))
        sim.run()
        assert received == ["before", "after"]
        assert part.dropped == 1

    def test_heal_closes_active_partitions(self):
        sim, bus, injector = make_bus()
        part = injector.partition(("soil/1",))
        assert part.active(sim.now)
        assert injector.heal() == 1
        assert not part.active(sim.now)
        received = []
        bus.register("soil/1", lambda m: received.append(m))
        bus.send("x", "soil/1", None)
        sim.run()
        assert len(received) == 1

    def test_partition_switch_covers_soil_and_seeds(self):
        sim, bus, injector = make_bus()
        part = injector.partition_switch(4)
        assert part.separates("seeder", "soil/4")
        assert part.separates("harvester/t", "seed/4/t/M#0")
        assert not part.separates("seeder", "soil/3")
        assert not part.separates("soil/4", "seed/4/x")

    def test_non_positive_duration_rejected(self):
        sim, bus, injector = make_bus()
        with pytest.raises(ChaosError):
            injector.partition(("soil/1",), duration=0.0)


class TestStats:
    def test_stats_shape(self):
        sim, bus, injector = make_bus()
        injector.lossy(1.0)
        bus.register("dst", lambda m: None)
        bus.send("src", "dst", None)
        stats = injector.stats()
        assert stats["seen"] == 1
        assert stats["dropped"] == 1


class TestGrayFailure:
    def test_outbound_degradation_without_partition(self):
        sim, bus, injector = make_bus(seed=7)
        gray = injector.gray_failure(4, loss=0.6)
        heartbeats, commands = [], []
        bus.register("seeder", lambda m: heartbeats.append(m))
        bus.register("soil/4", lambda m: commands.append(m))
        for _ in range(200):
            bus.send("soil/4", "seeder", "hb")     # degraded direction
            bus.send("seeder", "soil/4", "cmd")    # inbound: untouched
        sim.run()
        # ~40% of outbound survives; every inbound command lands.
        assert 40 <= len(heartbeats) <= 120
        assert len(commands) == 200
        assert sum(rule.dropped for rule in gray.rules) \
            == 200 - len(heartbeats)

    def test_seed_endpoints_are_degraded_too(self):
        sim, bus, injector = make_bus(seed=1)
        injector.gray_failure(2, loss=1.0)
        reports, other = [], []
        bus.register("harvester/t", lambda m: reports.append(m))
        bus.send("seed/2/t/M#0", "harvester/t", "report")
        bus.register("dst", lambda m: other.append(m))
        bus.send("seed/3/t/M#0", "dst", "report")  # different switch
        sim.run()
        assert reports == []
        assert len(other) == 1

    def test_inbound_loss_opt_in(self):
        sim, bus, injector = make_bus(seed=2)
        injector.gray_failure(5, loss=0.0, inbound_loss=1.0)
        received = []
        bus.register("soil/5", lambda m: received.append(m))
        bus.send("seeder", "soil/5", "cmd")
        sim.run()
        assert received == []

    def test_window_and_heal(self):
        sim, bus, injector = make_bus(seed=9)
        gray = injector.gray_failure(1, loss=1.0, at=10.0, duration=20.0)
        received = []
        bus.register("seeder", lambda m: received.append(m))
        assert (gray.start, gray.end) == (10.0, 30.0)
        sim.run(until=15.0)
        bus.send("soil/1", "seeder", "hb")
        sim.run(until=16.0)
        assert received == []  # inside the window: dropped
        assert injector.heal() == 1
        assert gray.end == sim.now
        bus.send("soil/1", "seeder", "hb")
        sim.run(until=17.0)
        assert len(received) == 1  # healed: delivered

    def test_validation(self):
        sim, bus, injector = make_bus()
        with pytest.raises(ChaosError):
            injector.gray_failure(1, loss=1.5)
        with pytest.raises(ChaosError):
            injector.gray_failure(1, inbound_loss=-0.2)
        with pytest.raises(ChaosError):
            injector.gray_failure(1, duration=0.0)
