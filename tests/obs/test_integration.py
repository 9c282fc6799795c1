"""End-to-end observability: registry + tracer wired through a deployment."""


from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.obs.exporters import to_chrome_trace, validate_chrome_trace
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.tasks.heavy_hitter import make_task as make_hh_task


def _run_small_deployment(trace: bool) -> FarmDeployment:
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1), trace=trace)
    farm.submit(make_hh_task(threshold=10e6, accuracy_ms=10))
    farm.run(until=0.5)
    return farm


class TestDeploymentWiring:
    def test_one_registry_spans_the_control_plane(self):
        farm = _run_small_deployment(trace=False)
        registry = farm.obs.registry
        assert farm.bus.metrics is registry
        assert registry.value("farm_bus_messages_total") > 0
        assert registry.value("farm_bus_bytes_total") > 0
        # The fleet's switches share the registry too.
        assert registry.sum_values("farm_soil_polls_total") > 0
        assert registry.sum_values("farm_cpu_work_seconds_total") > 0
        assert farm.metrics is registry

    def test_tracing_disabled_by_default(self):
        farm = _run_small_deployment(trace=False)
        assert farm.obs.tracer.enabled is False
        assert len(farm.obs.tracer.events) == 0  # truly zero buffered

    def test_traced_run_yields_causal_timeline(self):
        farm = _run_small_deployment(trace=True)
        tracer = farm.obs.tracer
        assert len(tracer) > 0
        tracks = tracer.by_track()
        # Lifecycle instants land on the seeder track, messages on bus,
        # per-switch activity on switch/N tracks.
        assert any(e["name"].startswith("compile")
                   for e in tracks.get("seeder", []))
        assert "bus" in tracks
        assert any(t.startswith("switch/") for t in tracks)
        deploys = [e for t in tracks.values() for e in t
                   if e["name"].startswith("deploy ")]
        assert deploys, "expected deploy lifecycle instants"
        # Deploy instants carry the seed id as the causal trace id.
        assert all(e["args"].get("trace_id") for e in deploys)
        # And the whole thing exports as a valid Chrome trace.
        doc = to_chrome_trace(tracer, registry=farm.obs.registry)
        validate_chrome_trace(doc)

    def test_start_stop_tracing_windows_the_buffer(self):
        farm = FarmDeployment(topology=spine_leaf(1, 1, 1))
        farm.submit(make_hh_task(threshold=10e6, accuracy_ms=10))
        farm.run(until=0.2)
        assert len(farm.obs.tracer) == 0
        farm.obs.tracer.enabled = True
        farm.run(until=0.4)
        mid = len(farm.obs.tracer)
        assert mid > 0
        farm.obs.tracer.enabled = False
        farm.run(until=0.6)
        assert len(farm.obs.tracer) == mid


class TestSwitchResourceMetrics:
    def test_pcie_tcam_cpu_register_into_the_switch_registry(self):
        from repro.net.filters import SwitchPortFilter
        from repro.switchsim.tcam import MONITORING, TcamRule

        sim = Simulator()
        switch = Switch(sim, 7)
        labels = {"switch": 7}
        switch.pcie.poll_counters(10)
        assert switch.metrics.value("farm_pcie_transfers_total", labels) == 1
        assert switch.metrics.value("farm_pcie_bytes_total", labels) > 0
        rule_id = switch.tcam.install(
            TcamRule(pattern=SwitchPortFilter(1), region=MONITORING))
        assert switch.metrics.value(
            "farm_tcam_rules", {**labels, "region": MONITORING}) == 1
        switch.tcam.remove(rule_id)
        assert switch.metrics.value(
            "farm_tcam_rules", {**labels, "region": MONITORING}) == 0
        switch.cpu.charge_work(0.25, context_switches=2)
        assert switch.metrics.value(
            "farm_cpu_context_switches_total", labels) == 2
        assert switch.metrics.value(
            "farm_cpu_work_seconds_total", labels) > 0.25
