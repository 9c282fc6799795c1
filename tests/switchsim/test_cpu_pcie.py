"""Management CPU and PCIe bus model tests."""

import pytest

from repro.errors import SwitchError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.switchsim.cpu import (
    CONTEXT_SWITCH_COST_S,
    ManagementCpu,
    estimate_invocation_load,
)
from repro.switchsim.pcie import (
    BYTES_PER_COUNTER,
    PcieBus,
    TRANSACTION_OVERHEAD_S,
)


class TestManagementCpu:
    def test_standing_load_accumulates(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=4)
        cpu.set_standing_load("a", 0.5)
        cpu.set_standing_load("b", 0.3)
        assert cpu.standing_load_cores * 100.0 == pytest.approx(80.0)
        cpu.clear_standing_load("a")
        assert cpu.standing_load_cores * 100.0 == pytest.approx(30.0)

    def test_standing_load_replaced_by_key(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=4)
        cpu.set_standing_load("seed", 0.5)
        cpu.set_standing_load("seed", 0.1)
        assert cpu.standing_load_cores * 100.0 == pytest.approx(10.0)

    def test_mean_load_time_weighted(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=4)
        cpu.set_standing_load("x", 1.0)
        sim.schedule(5.0, cpu.clear_standing_load, "x")
        sim.run(until=10.0)
        assert cpu.mean_load_percent() == pytest.approx(50.0)

    def test_one_off_work_included_in_mean(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=4)
        sim.run(until=1.0)
        cpu.charge_work(0.5)  # half a core-second over a 1s horizon
        assert cpu.mean_load_percent() == pytest.approx(50.0)

    def test_context_switches_charged(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=1)
        sim.run(until=1.0)
        cpu.charge_work(0.0, context_switches=10)
        expected = 10 * CONTEXT_SWITCH_COST_S * 100
        assert cpu.mean_load_percent() == pytest.approx(expected)

    def test_contention_slows_completion(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=2)
        cpu.set_standing_load("busy", 4.0)  # 2x oversubscribed
        assert cpu.charge_work(1.0) == pytest.approx(2.0)

    def test_invalid_inputs(self):
        sim = Simulator()
        with pytest.raises(SwitchError):
            ManagementCpu(sim, num_cores=0)
        cpu = ManagementCpu(sim)
        with pytest.raises(SwitchError):
            cpu.set_standing_load("x", -1.0)
        with pytest.raises(SwitchError):
            cpu.charge_work(-0.1)

    def test_estimate_invocation_load(self):
        base = estimate_invocation_load(100.0, 1e-4)
        assert base == pytest.approx(0.01)
        with_process = estimate_invocation_load(100.0, 1e-4, as_process=True)
        assert with_process > base


def _cpu_with_registry(sim):
    registry = MetricsRegistry()
    return ManagementCpu(sim, num_cores=4, registry=registry), registry


class TestBulkCharge:
    """``charge_work_repeated`` against the sequential calls it stands
    for: bit for bit, because Fig. 4/5 recompute load from the registry
    and compare it with the integral using ``==``."""

    # Values whose sum depends on the order and grouping of the adds.
    CHARGES = ((1e-6, 0), (10e-6 + 1e-6, 0))
    PROCESS_CHARGES = ((25e-6, 2), (10e-6 + 25e-6, 2))

    def _pair(self):
        sims = Simulator(), Simulator()
        pairs = [_cpu_with_registry(sim) for sim in sims]
        for sim, (cpu, _registry) in zip(sims, pairs):
            cpu.set_standing_load("seed/a", 0.001)
            sim.run(until=0.37)
            cpu.charge_work(0.1 + 0.2)  # a non-trivial starting integral
        return pairs

    @pytest.mark.parametrize("charges", [CHARGES, PROCESS_CHARGES,
                                         (CHARGES[1],)])
    @pytest.mark.parametrize("repeats", [0, 1, 49, 1000])
    def test_matches_sequential_charges_bit_for_bit(self, charges, repeats):
        (bulk, bulk_reg), (seq, seq_reg) = self._pair()
        bulk.charge_work_repeated(charges, repeats)
        for _ in range(repeats):
            for cpu_seconds, switches in charges:
                seq.charge_work(cpu_seconds, context_switches=switches)
        assert bulk.mean_demand_percent() == seq.mean_demand_percent()
        for name in ("farm_cpu_work_seconds_total",
                     "farm_cpu_context_switches_total"):
            assert bulk_reg.value(name) == seq_reg.value(name)
        work = "farm_cpu_work_seconds_total"
        # ...and n * x is NOT what the sequence gives (why it is replayed).
        if repeats == 1000 and charges is self.CHARGES:
            multiplied = (0.1 + 0.2) + repeats * (charges[0][0]
                                                  + charges[1][0])
            assert bulk_reg.value(work) != multiplied

    def test_negative_cost_rejected_before_anything_is_charged(self):
        sim = Simulator()
        cpu = ManagementCpu(sim)
        with pytest.raises(SwitchError):
            cpu.charge_work_repeated(((1e-6, 0), (-1e-6, 0)), 3)
        assert cpu.metrics.value("farm_cpu_work_seconds_total") == 0.0
        sim.run(until=1.0)
        assert cpu.mean_demand_percent() == 0.0


class TestCachedStandingSum:
    def test_equals_fresh_sum_after_every_mutation(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=4)
        loads = {}

        def check():
            assert cpu.standing_load_cores == sum(loads.values())
            assert cpu.standing_load_cores * 100.0 == sum(loads.values()) * 100.0

        check()
        for i in range(60):  # 0.001 * i sums are order-sensitive
            loads[f"seed/{i}"] = 0.001 * (i + 1)
            cpu.set_standing_load(f"seed/{i}", 0.001 * (i + 1))
            check()
        loads["seed/7"] = 0.5
        cpu.set_standing_load("seed/7", 0.5)  # replace in place
        check()
        for i in (3, 59, 0):
            del loads[f"seed/{i}"]
            cpu.clear_standing_load(f"seed/{i}")
            check()
        cpu.clear_standing_load("never-set")
        check()
        loads.clear()
        cpu.clear_all_standing()
        check()
        assert cpu.metrics.value("farm_cpu_standing_cores") == 0.0

    def test_slowdown_uses_the_cached_sum(self):
        sim = Simulator()
        cpu = ManagementCpu(sim, num_cores=2)
        cpu.set_standing_load("hog", 8.0)
        assert cpu.charge_work(1.0) == 4.0
        cpu.clear_standing_load("hog")
        assert cpu.charge_work(1.0) == 1.0


class TestPcieBus:
    def test_standing_demand_registration(self):
        sim = Simulator()
        bus = PcieBus(sim, poll_capacity_bps=1e6)
        bus.register_poller("a", 4e5)
        bus.register_poller("b", 4e5)
        assert bus.standing_demand_bps == pytest.approx(8e5)
        assert bus.oversubscription < 1.0
        bus.register_poller("c", 4e5)
        assert bus.oversubscription == pytest.approx(1.2)

    def test_reregistration_replaces(self):
        sim = Simulator()
        bus = PcieBus(sim)
        bus.register_poller("a", 100.0)
        bus.register_poller("a", 50.0)
        assert bus.standing_demand_bps == pytest.approx(50.0)
        bus.unregister_poller("a")
        assert bus.standing_demand_bps == 0.0

    def test_transfer_latency_grows_with_load(self):
        sim = Simulator()
        bus = PcieBus(sim, poll_capacity_bps=1e6)
        idle = bus.transfer_latency(1000)
        bus.register_poller("hog", 9e5)
        busy = bus.transfer_latency(1000)
        assert busy > idle > TRANSACTION_OVERHEAD_S

    def test_latency_capped_under_saturation(self):
        sim = Simulator()
        bus = PcieBus(sim, poll_capacity_bps=1e6)
        bus.register_poller("hog", 1e9)
        assert bus.transfer_latency(1000) < 1.0  # capped, not infinite

    def test_poll_counters_accounts_bytes(self):
        sim = Simulator()
        bus = PcieBus(sim)
        bus.poll_counters(10)
        assert bus.metrics.value("farm_pcie_bytes_total") \
            == 10 * BYTES_PER_COUNTER
        assert bus.metrics.value("farm_pcie_transfers_total") == 1

    def test_invalid_inputs(self):
        sim = Simulator()
        bus = PcieBus(sim)
        with pytest.raises(SwitchError):
            bus.register_poller("x", -1.0)
        with pytest.raises(SwitchError):
            bus.transfer_latency(-5)
