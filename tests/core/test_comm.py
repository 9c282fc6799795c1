"""Communication service tests."""

import pytest

from repro.core.comm import (
    BUS_BASE_LATENCY_S,
    CommScheme,
    ControlBus,
    ExecutionMode,
    SoilCommConfig,
    estimate_size_bytes,
    seed_soil_cpu_cost,
    seed_soil_latency,
)
from repro.errors import CommError
from repro.sim.engine import Simulator


class TestSoilCommConfig:
    def test_shared_buffer_requires_threads(self):
        with pytest.raises(CommError):
            SoilCommConfig(ExecutionMode.PROCESS, CommScheme.SHARED_BUFFER)

    def test_defaults(self):
        config = SoilCommConfig()
        assert config.execution_mode is ExecutionMode.THREAD
        assert config.aggregation


class TestLatencyModels:
    def test_grpc_grows_linearly_with_seeds(self):
        config = SoilCommConfig(ExecutionMode.PROCESS, CommScheme.GRPC)
        l10 = seed_soil_latency(config, 10)
        l100 = seed_soil_latency(config, 100)
        assert l100 > l10
        # linearity: equal increments
        l50 = seed_soil_latency(config, 50)
        assert (l100 - l50) == pytest.approx(l50 - seed_soil_latency(config, 0))

    def test_shared_buffer_flat(self):
        config = SoilCommConfig()
        assert seed_soil_latency(config, 1) == seed_soil_latency(config, 150)

    def test_shared_buffer_much_faster(self):
        grpc = SoilCommConfig(ExecutionMode.PROCESS, CommScheme.GRPC)
        shared = SoilCommConfig()
        assert seed_soil_latency(shared, 150) * 10 \
            < seed_soil_latency(grpc, 150)

    def test_negative_seed_count_rejected(self):
        with pytest.raises(CommError):
            seed_soil_latency(SoilCommConfig(), -1)

    def test_process_mode_pays_context_switches(self):
        grpc = SoilCommConfig(ExecutionMode.PROCESS, CommScheme.GRPC)
        threads = SoilCommConfig()
        _, ctx_process = seed_soil_cpu_cost(grpc)
        _, ctx_thread = seed_soil_cpu_cost(threads)
        assert ctx_process == 2
        assert ctx_thread == 0


class TestControlBus:
    def test_delivery_after_latency(self):
        sim = Simulator()
        bus = ControlBus(sim)
        received = []
        bus.register("dst", lambda m: received.append((sim.now, m.payload)))
        bus.send("src", "dst", {"x": 1})
        assert received == []  # not yet delivered
        sim.run()
        assert len(received) == 1
        assert received[0][0] >= BUS_BASE_LATENCY_S
        assert received[0][1] == {"x": 1}

    def test_unknown_endpoint_rejected(self):
        bus = ControlBus(Simulator())
        with pytest.raises(CommError):
            bus.send("src", "ghost", None)

    def test_duplicate_registration_rejected(self):
        bus = ControlBus(Simulator())
        bus.register("a", lambda m: None)
        with pytest.raises(CommError):
            bus.register("a", lambda m: None)

    def test_unregister_mid_flight_drops_message(self):
        sim = Simulator()
        bus = ControlBus(sim)
        received = []
        bus.register("dst", lambda m: received.append(m))
        bus.send("src", "dst", "hello")
        bus.unregister("dst")
        sim.run()
        assert received == []

    def test_accounting(self):
        sim = Simulator()
        bus = ControlBus(sim)
        bus.register("dst", lambda m: None)
        bus.send("src", "dst", "a", size_bytes=100)
        bus.send("src", "dst", "b", size_bytes=200)
        sim.run()
        assert bus.metrics.value("farm_bus_messages_total") == 2
        assert bus.metrics.value("farm_bus_bytes_total") == 300
        assert bus.bytes_per_second() > 0

    def test_messages_between_window(self):
        sim = Simulator()
        bus = ControlBus(sim)
        bus.register("dst", lambda m: None)
        bus.send("src", "dst", "early")
        sim.run()
        t_mid = sim.now
        sim.schedule(1.0, lambda: bus.send("src", "dst", "late"))
        sim.run()
        late = bus.messages_between(t_mid + 0.5, sim.now)
        assert [m.payload for m in late] == ["late"]

    def test_extra_latency_respected(self):
        sim = Simulator()
        bus = ControlBus(sim)
        times = []
        bus.register("dst", lambda m: times.append(sim.now))
        bus.send("src", "dst", None, extra_latency_s=0.5)
        sim.run()
        assert times[0] >= 0.5


class TestUnknownDestinationPolicy:
    def test_drop_policy_counts_instead_of_raising(self):
        sim = Simulator()
        bus = ControlBus(sim, unknown_dst="drop")
        message = bus.send("src", "ghost", None)
        assert message.dropped
        assert bus.metrics.value("farm_bus_undeliverable_total") == 1
        sim.run()
        # nothing was delivered
        assert bus.metrics.value("farm_bus_messages_total") == 0

    def test_per_call_override(self):
        sim = Simulator()
        bus = ControlBus(sim)  # strict by default
        message = bus.send("src", "ghost", None, on_unknown="drop")
        assert message.dropped
        assert bus.metrics.value("farm_bus_undeliverable_total") == 1
        with pytest.raises(CommError):
            bus.send("src", "ghost", None)

    def test_invalid_policy_rejected(self):
        with pytest.raises(CommError):
            ControlBus(Simulator(), unknown_dst="teleport")
        bus = ControlBus(Simulator())
        bus.register("dst", lambda m: None)
        with pytest.raises(CommError):
            bus.send("src", "dst", None, on_unknown="teleport")

    def test_vanished_endpoint_counted_at_delivery(self):
        sim = Simulator()
        bus = ControlBus(sim)
        bus.register("dst", lambda m: None)
        bus.send("src", "dst", "hello")
        bus.unregister("dst")
        sim.run()
        assert bus.metrics.value("farm_bus_undeliverable_total") == 1


class TestSizeEstimation:
    def test_monotone_in_content(self):
        assert estimate_size_bytes("abc") < estimate_size_bytes("abcdef" * 10)
        assert estimate_size_bytes([1]) < estimate_size_bytes([1, 2, 3])
        assert estimate_size_bytes(None) > 0
        assert estimate_size_bytes({"k": [1, 2]}) > estimate_size_bytes({})
