"""Engine loop: transitions -> policies -> guardrails -> actions -> log."""

import pytest

from repro.core.deployment import FarmDeployment
from repro.core.fault_tolerance import FaultToleranceManager
from repro.core.task import MachineConfig, TaskDefinition
from repro.eval.experiments import _make_probe_task, run_remediation_loop
from repro.net.topology import spine_leaf
from repro.obs.alerts import AlertEvent, AlertManager, ThresholdRule
from repro.obs.query import QueryEngine
from repro.obs.tsdb import TimeSeriesStore
from repro.remediation import (
    DrainPolicy,
    EscalatePolicy,
    GuardrailConfig,
    RemediationEngine,
)
from repro.remediation.log import DECISION_BLOCKED, DECISION_EXECUTED

RULE = "heartbeat-degraded"


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def build_farm(num_probes=4):
    farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
    farm.submit(_make_probe_task(num_probes=num_probes))
    farm.settle()
    return farm


def make_engine(farm, ft=None, dry_run=False, **cfg):
    clock = FakeClock()
    engine = RemediationEngine(farm.seeder, fault_tolerance=ft,
                               config=GuardrailConfig(**cfg),
                               dry_run=dry_run, clock=clock)
    return engine, clock


def alert(state, t, switch, rule=RULE):
    return AlertEvent(t=t, rule=rule, labels=(("switch", str(switch)),),
                      state=state, value=0.0)


def feed(engine, clock, events):
    for event in events:
        clock.t = event.t
        engine._on_alert_event(event)


def flap_cycle(switch, period_s=4.0, until_s=24.0, start_s=1.0):
    """firing at t, resolved at t + period/2, repeating."""
    events, t = [], start_s
    while t < until_s:
        events.append(alert("firing", t, switch))
        events.append(alert("resolved", t + period_s / 2.0, switch))
        t += period_s
    return events


def executed_records(engine):
    return [r for r in engine.log.records if r.decision == DECISION_EXECUTED]


def blocked_records(engine):
    return [r for r in engine.log.records if r.decision == DECISION_BLOCKED]


def victim_of(farm):
    counts = {sw: soil.num_seeds for sw, soil in farm.seeder.soils.items()}
    return max(sorted(counts), key=lambda sw: counts[sw])


class TestFlapping:
    def test_at_most_one_drain_per_cooldown_window(self):
        farm = build_farm()
        engine, clock = make_engine(farm, default_cooldown_s=10.0,
                                    flap_limit=4, flap_window_s=60.0)
        engine.add_policy(DrainPolicy(RULE))
        victim = victim_of(farm)
        feed(engine, clock, flap_cycle(victim, period_s=4.0, until_s=24.0))
        drains = [r for r in executed_records(engine) if r.action == "drain"]
        assert drains, "flapping alert never produced a drain"
        for earlier, later in zip(drains, drains[1:]):
            assert later.t - earlier.t >= 10.0
        assert any(r.blocked_by == "cooldown" for r in blocked_records(engine))

    def test_persistent_flapping_trips_suppression(self):
        farm = build_farm()
        engine, clock = make_engine(farm, default_cooldown_s=4.0,
                                    flap_limit=2, flap_window_s=60.0)
        engine.add_policy(DrainPolicy(RULE))
        victim = victim_of(farm)
        feed(engine, clock, flap_cycle(victim, period_s=5.0, until_s=30.0))
        drains = [r for r in executed_records(engine) if r.action == "drain"]
        assert len(drains) == 2  # flap_limit, then suppressed
        assert any(r.blocked_by == "flap" for r in blocked_records(engine))
        # The last resolved event restored the switch: nothing cordoned.
        assert farm.seeder.cordoned_switches == set()

    def test_escalation_needs_repeated_breaches(self):
        farm = build_farm()
        ft = FaultToleranceManager(farm.seeder, confirm_limit=30)
        engine, clock = make_engine(farm, ft=ft)
        engine.add_policy(EscalatePolicy(RULE, breaches=3, window_s=30.0))
        victim = victim_of(farm)
        # One transient breach, then another far outside the window:
        # neither may escalate.
        feed(engine, clock, [alert("firing", 2.0, victim),
                             alert("resolved", 4.0, victim),
                             alert("firing", 100.0, victim)])
        assert engine.log.records == []
        assert victim not in farm.seeder.failed_switches
        # Three breaches inside one window: now it escalates.
        feed(engine, clock, [alert("firing", 110.0, victim),
                             alert("firing", 120.0, victim)])
        (esc,) = executed_records(engine)
        assert (esc.action, esc.switch) == ("escalate", victim)
        assert esc.outcome == "failed over"
        assert victim in farm.seeder.failed_switches


class TestDecisionHistory:
    def test_record_links_alert_decision_action_outcome(self):
        farm = build_farm()
        engine, clock = make_engine(farm)
        engine.add_policy(DrainPolicy(RULE))
        victim = victim_of(farm)
        feed(engine, clock, [alert("firing", 7.5, victim)])
        (rec,) = executed_records(engine)
        assert rec.rule == RULE
        assert rec.policy == "DrainPolicy"
        assert rec.alert_state == "firing"
        assert rec.alert_t == 7.5
        assert rec.decision == "executed"
        assert rec.outcome.startswith("drained")
        assert rec.detail["seeds_before"] > 0
        assert farm.metrics.value(
            "farm_remediation_decisions_total",
            {"action": "drain", "decision": "executed"}) == 1
        assert farm.metrics.value(
            "farm_remediation_outcomes_total",
            {"action": "drain", "outcome": rec.outcome}) == 1
        kinds = {kind for _t, _label, kind in engine.log.annotations()}
        assert kinds == {"decision", "outcome"}

    def test_blocked_records_carry_the_guardrail_name(self):
        farm = build_farm()
        engine, clock = make_engine(farm, default_cooldown_s=30.0)
        engine.add_policy(DrainPolicy(RULE))
        victim = victim_of(farm)
        feed(engine, clock, [alert("firing", 1.0, victim),
                             alert("resolved", 2.0, victim),
                             alert("firing", 3.0, victim)])
        (blocked,) = blocked_records(engine)
        assert blocked.blocked_by == "cooldown"
        assert blocked.outcome == ""
        assert any(kind == "blocked"
                   for _t, _label, kind in engine.log.annotations())

    def test_dry_run_commits_guardrails_but_not_the_deployment(self):
        active_farm, dry_farm = build_farm(), build_farm()
        untouched = dry_farm.metrics.value("farm_seeder_optimizations_total")
        runs = {}
        for farm, dry in ((active_farm, False), (dry_farm, True)):
            engine, clock = make_engine(farm, dry_run=dry,
                                        default_cooldown_s=10.0)
            engine.add_policy(DrainPolicy(RULE))
            feed(engine, clock, flap_cycle(victim_of(farm), period_s=4.0,
                                           until_s=20.0))
            runs[dry] = engine
        assert runs[True].log.decision_keys() == \
            runs[False].log.decision_keys()
        assert runs[True].log.decision_keys() != []
        assert [r.blocked_by for r in blocked_records(runs[True])] == \
            [r.blocked_by for r in blocked_records(runs[False])]
        assert executed_records(runs[True]) == []
        assert dry_farm.seeder.cordoned_switches == set()
        # The dry engine never re-optimized; the active one did.
        assert dry_farm.metrics.value(
            "farm_seeder_optimizations_total") == untouched
        assert active_farm.metrics.value(
            "farm_seeder_optimizations_total") > untouched


class TestWiring:
    def test_attach_requires_an_alert_manager(self):
        farm = build_farm()
        engine, _clock = make_engine(farm)
        with pytest.raises(TypeError):
            engine.attach(object())

    def test_attach_subscribes_to_transitions(self):
        farm = build_farm()
        store = TimeSeriesStore()
        manager = AlertManager(QueryEngine(store))
        engine, _clock = make_engine(farm)
        engine.attach(manager)
        assert engine._on_alert_event in manager.on_transition

    def test_an_idle_engine_is_transparent(self):
        # The run_remediation_mode world on a healthy fabric: an attached
        # engine arms nothing and counts nothing beyond the families it
        # registers (and the Scarecrow tallies that count those).
        own = ("farm_remediation_", "scarecrow_series", "scarecrow_points",
               "scarecrow_samples_total")

        def run(attach):
            farm = build_farm(num_probes=6)
            ft = FaultToleranceManager(farm.seeder, confirm_limit=30)
            scarecrow = farm.enable_scarecrow(interval_s=1.0)
            healthy_rate = 1.0 / ft.heartbeat_interval_s
            scarecrow.add_rule(ThresholdRule(
                RULE, "farm_ft_heartbeats_total", reducer="rate",
                window_s=5.0, op="<", threshold=healthy_rate * 0.6,
                clear_threshold=healthy_rate * 0.75, for_s=3.0))
            scarecrow.feed_fault_tolerance(ft)
            engine = None
            if attach:
                engine = RemediationEngine(farm.seeder, fault_tolerance=ft)
                engine.add_policy(DrainPolicy(RULE))
                engine.add_policy(EscalatePolicy(RULE, breaches=3,
                                                 window_s=30.0))
                engine.attach(scarecrow)
            farm.run(until=30.0)
            totals = {name: family["series"]
                      for name, family in farm.metrics.snapshot().items()
                      if family["kind"] != "histogram"
                      and not name.startswith(own)}
            alerts = [(e.t, e.rule, e.labels, e.state)
                      for e in scarecrow.log]
            return (farm.sim.events_processed, alerts, totals), engine

        detection_only, _ = run(attach=False)
        attached, engine = run(attach=True)
        assert attached == detection_only
        assert attached[1], "the rule never transitioned: nothing to ignore"
        assert engine.log.records == []


def hog_task(num_hogs):
    """``place any`` machines that each need 3 of a switch's 4 vCPUs."""
    source = "\n".join(f"""
machine Hog{index} {{
  place any;
  time tick = 0.1;
  state s {{ util (res) {{ if (res.vCPU >= 3) then {{ return 5; }} }} }}
}}""" for index in range(num_hogs))
    return TaskDefinition(
        task_id="hogs", source=source,
        machines=[MachineConfig(machine_name=f"Hog{index}")
                  for index in range(num_hogs)])


def build_spread_farm():
    """A fleet-wide farm: ``place all`` monitors pin one seed per switch,
    so a single-switch drain leaves the rest of the fleet clean and the
    incremental solver actually engages (no ratio fallback)."""
    from repro.tasks.infrastructure_monitors import (
        make_flow_size_dist_task,
        make_link_failure_task,
        make_traffic_change_task,
    )
    farm = FarmDeployment(topology=spine_leaf(2, 6, 1))
    farm.submit(make_link_failure_task(interval_s=0.05, silent_polls=3),
                reoptimize=False)
    farm.submit(make_traffic_change_task(), reoptimize=False)
    farm.submit(make_flow_size_dist_task())
    farm.settle()
    return farm


class TestIncrementalRouting:
    """A drain's re-solve rides the warm-started incremental solver, and
    the decision log records it."""

    def test_targeted_resolve_uses_incremental_solver(self):
        # The drained switch leaves the problem, so exactly its displaced
        # seeds are dirty and the rest of the fleet stays put.
        farm = build_farm()
        engine, clock = make_engine(farm)
        engine.add_policy(DrainPolicy(RULE))
        victim = victim_of(farm)
        feed(engine, clock, [alert("firing", 3.0, victim)])
        (rec,) = executed_records(engine)
        assert rec.action == "drain"
        assert rec.detail["incremental"] is True
        assert rec.detail["dirty_seeds"] == rec.detail["seeds_before"] > 0

    def test_seeder_scope_routes_through_incremental(self):
        farm = build_spread_farm()
        victim = victim_of(farm)
        before = dict(farm.seeder.last_solution.placement)
        solution = farm.seeder.drain(victim)
        assert solution.solver == "incremental"
        assert solution.info["incremental"] is True
        # The cordoned switch has left the problem, and its ``place all``
        # seeds, pinned to it, are parked: nothing is dirty, nothing moves.
        assert solution.info["dirty_switches"] == 0
        assert solution.info["dirty_seeds"] == 0
        assert solution.placement == {sid: n for sid, n in before.items()
                                      if n != victim}
        assert farm.seeder.drain(victim) is None
        # Global re-solves still take the from-scratch path.
        full = farm.seeder.reoptimize()
        assert full.solver == "heuristic"
        assert not full.info.get("incremental")

    def test_tiny_fleet_falls_back_but_still_resolves(self):
        # Three hogs fill a 3-switch fleet, one per switch: the drained
        # switch's hog fits nowhere, so completing the dirty set would
        # drop a placed task and the solver falls back to a full solve;
        # the decision detail says so.
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        farm.submit(hog_task(3))
        farm.settle()
        engine, clock = make_engine(farm)
        engine.add_policy(DrainPolicy(RULE))
        feed(engine, clock, [alert("firing", 3.0, victim_of(farm))])
        (rec,) = executed_records(engine)
        assert rec.action == "drain"
        assert rec.detail["incremental"] is False
        assert farm.seeder.last_solution.info["fallback"] == "eviction"


@pytest.fixture(scope="module")
def short_loop():
    return run_remediation_loop(duration_s=40.0, loss_start_s=8.0,
                                loss_end_s=28.0)


class TestClosedLoopEndToEnd:
    def test_active_retains_more_mu_than_detection_only(self, short_loop):
        assert short_loop.active.mu_retained > short_loop.off.mu_retained
        assert short_loop.mu_gain > 0.1
        actions = [r.action for r in short_loop.active.records
                   if r.decision == "executed"]
        assert "drain" in actions

    def test_dry_run_decides_identically_but_changes_nothing(
            self, short_loop):
        assert short_loop.dry_matches_active
        assert short_loop.dry.decisions == short_loop.active.decisions
        # Bit-identical simulation: dry-run == detection-only outcomes.
        assert short_loop.dry_changed_nothing
        assert short_loop.dry.effective_mu == short_loop.off.effective_mu

    def test_history_covers_the_full_chain(self, short_loop):
        for rec in short_loop.active.records:
            if rec.decision != "executed":
                continue
            assert rec.rule == RULE
            assert rec.alert_state in ("firing", "resolved")
            assert rec.alert_t <= rec.t
            assert rec.outcome
