"""Scarecrow bundle: scrape -> store -> alerts, deployment wiring."""

from repro.core.deployment import FarmDeployment
from repro.net.topology import spine_leaf
from repro.obs import Observability, Scarecrow, ThresholdRule
from repro.obs.alerts import FIRING, PENDING, RESOLVED
from repro.sim.engine import Simulator


class TestBundle:
    def _scarecrow(self, interval_s=1.0):
        sim = Simulator()
        obs = Observability(sim=sim)
        return sim, obs, Scarecrow(sim, obs.registry,
                                   interval_s=interval_s)

    def test_scrape_then_alert_same_instant(self):
        sim, obs, scarecrow = self._scarecrow()
        gauge = obs.registry.gauge("g")
        scarecrow.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0))
        scarecrow.start()
        sim.schedule(3.0, lambda: gauge.set(9.0))
        sim.run(until=3.0)
        # The scrape at t=3 sees the update at t=3 and the rule fires on
        # the same evaluation pass.
        assert [e.state for e in scarecrow.log] == [PENDING, FIRING]
        assert scarecrow.log[-1].t == 3.0

    def test_full_lifecycle_over_simulated_incident(self):
        sim, obs, scarecrow = self._scarecrow()
        gauge = obs.registry.gauge("g")
        scarecrow.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0,
                                         for_s=2.0))
        scarecrow.start()
        sim.every(1.0, lambda: gauge.set(
            9.0 if 10.0 <= sim.now <= 20.0 else 1.0))
        sim.run(until=30.0)
        states = [e.state for e in scarecrow.events_for("hot")]
        assert states == [PENDING, FIRING, RESOLVED]

    def test_scrape_once_after_run(self):
        sim, obs, scarecrow = self._scarecrow()
        counter = obs.registry.counter("c_total")
        counter.inc(5)
        sim.run(until=0.5)
        scarecrow.scrape_once()
        assert scarecrow.store.select("c_total")[0].latest().last == 5.0

    def test_dashboard_renders_from_bundle(self):
        sim, obs, scarecrow = self._scarecrow()
        obs.registry.gauge("g").set(1.0)
        scarecrow.start()
        sim.run(until=5.0)
        html = scarecrow.render_dashboard(title="bundle")
        assert html.startswith("<!DOCTYPE html>")
        assert "bundle" in html


class TestDeploymentWiring:
    def test_enable_scarecrow_is_idempotent(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        first = farm.enable_scarecrow(interval_s=0.5)
        assert farm.enable_scarecrow() is first

    def test_deployment_metrics_become_scrapable(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        scarecrow = farm.enable_scarecrow(interval_s=1.0)
        farm.run(until=5.0)
        names = scarecrow.store.names()
        # Bus traffic and per-switch resource series all present.
        assert "farm_bus_messages_total" in names
        assert any(n.startswith("farm_cpu_work_seconds_total")
                   for n in names)
        assert "scarecrow_scrapes_total" in names  # self-monitoring

    def test_external_suspicion_marks_without_escalating(self):
        from repro.core.fault_tolerance import FaultToleranceManager
        from repro.core.seeder import Seeder  # noqa: F401  (import check)
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        ft = FaultToleranceManager(farm.seeder)
        switch_id = next(iter(ft.health))
        assert ft.external_suspicion(switch_id, source="test") is True
        assert switch_id in ft.suspected_switch_ids()
        assert ft.failed_switch_ids() == []
        # Re-marking an already-suspected switch is a no-op.
        assert ft.external_suspicion(switch_id) is False
        assert farm.metrics.value(
            "farm_ft_external_suspicions_total") == 1.0
        # The next heartbeat clears the suspicion (evidence, not verdict).
        farm.run(until=2.0)
        assert ft.suspected_switch_ids() == []
        assert farm.metrics.value("farm_ft_suspicions_cleared_total") >= 1

    def test_unknown_switch_rejected(self):
        from repro.core.fault_tolerance import FaultToleranceManager
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        ft = FaultToleranceManager(farm.seeder)
        assert ft.external_suspicion(9999) is False


class TestKernelPriority:
    def test_priority_orders_same_instant_events(self):
        sim = Simulator()
        order = []
        sim.every(1.0, lambda: order.append("observer"), priority=100)
        sim.every(1.0, lambda: order.append("worker"))
        sim.run(until=1.0)
        assert order == ["worker", "observer"]

    def test_priority_survives_reschedule(self):
        sim = Simulator()
        order = []
        timer = sim.every(2.0, lambda: order.append("observer"),
                          priority=100)
        sim.every(1.0, lambda: order.append("worker"))
        sim.run(until=1.5)
        timer.reschedule(0.5)
        sim.run(until=2.0)
        assert order.count("observer") >= 1
        # At t=2.0 both fire; the observer still goes last.
        assert order[-1] == "observer"
