"""Surveyor: profiler attribution, cost model, flame graph, flight
recorder, and the bit-identical-outputs contract."""

import json

import pytest

from repro.core.comm import ControlBus
from repro.core.deployment import FarmDeployment
from repro.core.soil import Soil
from repro.eval.experiments import _deploy_polling_seed, run_profile
from repro.net.topology import spine_leaf
from repro.obs import (
    CostModel,
    Observability,
    Profiler,
    ProfilingBundle,
    gini_coefficient,
    render_flamegraph,
    to_collapsed,
)
from repro.obs.exporters import (
    to_prometheus_text,
    validate_chrome_trace,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.flamegraph import write_collapsed, write_flamegraph
from repro.obs.profiler import FlightRecorder
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from repro.switchsim.chassis import Switch
from repro.switchsim.stratum import driver_for


def _tick_sim(events=100, keys=None):
    """Self-rescheduling tick loop; returns (sim, counter dict)."""
    sim = Simulator()
    counter = {"n": 0}
    keys = keys or [("soil", 1, "seed-a", "tick")]

    def tick():
        n = counter["n"] = counter["n"] + 1
        if n < events:
            sim.schedule_at(sim.now + 0.001, tick,
                            cost_key=keys[n % len(keys)])

    sim.schedule_at(0.0, tick, cost_key=keys[0])
    return sim, counter


class TestProfiler:
    def test_exact_mode_attributes_to_cost_keys(self):
        key_a = ("soil", 1, "seed-a", "tick")
        key_b = ("soil", 2, "seed-b", "tick")
        sim, _ = _tick_sim(events=50, keys=[key_a, key_b])
        profiler = Profiler(sim).start()
        sim.run()
        profiler.stop()
        assert set(profiler.costs) == {key_a, key_b}
        assert profiler.dispatches == 50
        for ns, fires in profiler.costs.values():
            assert ns > 0 and fires == 25

    def test_keyless_events_fall_back_to_kernel_component(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="adhoc")
        profiler = Profiler(sim).start()
        sim.run()
        (key,) = profiler.costs
        assert key == ("kernel", None, None, "adhoc")

    def test_sampling_times_one_in_n_and_derives_dispatches(self):
        sim, _ = _tick_sim(events=64)
        profiler = Profiler(sim, mode="sampling", sample_every=4).start()
        sim.run()
        profiler.stop()
        ((ns, fires),) = profiler.costs.values()
        assert fires == 16          # 64 events, 1-in-4 sampled
        assert ns > 0
        assert profiler.dispatches == 64
        model = profiler.cost_model()
        assert model.total_events == 64  # scaled back up

    def test_dispatches_consistent_across_stop_start(self):
        sim, _ = _tick_sim(events=10)
        profiler = Profiler(sim, mode="sampling", sample_every=4).start()
        sim.run()
        first = profiler.dispatches
        assert first == 10
        profiler.stop()
        sim2, _ = _tick_sim(events=6)
        profiler.sim = sim2
        profiler.start()
        sim2.run()
        assert profiler.dispatches == first + 6

    def test_stop_restores_plain_dispatch(self):
        sim, _ = _tick_sim(events=5)
        profiler = Profiler(sim).start()
        assert profiler.enabled
        profiler.stop()
        assert not profiler.enabled
        assert sim._profiler is None
        sim.run()
        assert profiler.dispatches == 0

    def test_overhead_contracts_as_clock_read_counts(self, monkeypatch):
        # Exact mode reads the clock once per dispatch (plus the anchor)
        # and its attribution telescopes to last read - first read: all
        # of the profiled wall, exactly.  Sampling reads twice per sample,
        # a stopped profiler never.
        reads = []

        def fake_clock():  # strictly increasing, uneven steps
            reads.append((reads[-1] if reads else 0) + 1 + len(reads) % 13)
            return reads[-1]

        monkeypatch.setattr("repro.obs.profiler.perf_counter_ns", fake_clock)
        events, every = 50, 4

        sim, _ = _tick_sim(events=events)
        profiler = Profiler(sim).start()
        sim.run()
        assert len(reads) == events + 1
        assert profiler.cost_model().total_ns == reads[-1] - reads[0]

        del reads[:]
        sim, _ = _tick_sim(events=events)
        Profiler(sim, mode="sampling", sample_every=every).start()
        sim.run()
        assert len(reads) == 2 * -(-events // every)

        del reads[:]
        sim, _ = _tick_sim(events=events)
        Profiler(sim).start().stop()
        sim.run()
        assert reads == []

    def test_invalid_configuration_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Profiler(sim, mode="statistical")
        with pytest.raises(ValueError):
            Profiler(sim, mode="sampling", sample_every=0)

    def test_priorities_compose_with_profiler(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=10,
                     label="low", cost_key=("t", 1, None, "low"))
        sim.schedule(1.0, lambda: order.append("high"), priority=-10,
                     label="high", cost_key=("t", 1, None, "high"))
        profiler = Profiler(sim).start()
        sim.run()
        # Priority ordering still applies under profiled dispatch, and
        # every event lands in the costs.
        assert order == ["high", "low"]
        assert profiler.dispatches == 2


class _FleetOutputs:
    """Build the identical skewed fleet under a given profiling mode and
    fingerprint everything observable about the run."""

    @staticmethod
    def run(mode):
        sim = Simulator()
        obs = Observability(sim=sim)
        bundle = None
        if mode is not None:
            bundle = ProfilingBundle(sim, obs, mode=mode, sample_every=4,
                                     flight_recorder=False)
        bus = ControlBus(sim, registry=obs.registry, tracer=obs.tracer)
        for index in (1, 2):
            switch = Switch(sim, index)
            soil = Soil(sim, switch, driver_for(switch), bus)
            for s in range(3 * index):
                _deploy_polling_seed(soil, f"sw{index}-hh{s}",
                                     interval_s=0.01, event_cpu_s=10e-6)
        sim.run(until=1.0)
        fingerprint = (sim.now, sim.events_processed
                       if hasattr(sim, "events_processed")
                       else sim._event_count,
                       to_prometheus_text(obs.registry))
        if bundle is not None:
            bundle.stop()
        return fingerprint


class TestDeterminism:
    def test_outputs_bit_identical_off_exact_sampled(self):
        baseline = _FleetOutputs.run(None)
        assert _FleetOutputs.run("exact") == baseline
        assert _FleetOutputs.run("sampling") == baseline


class TestCostModel:
    def _model(self, scale=1, mode="exact"):
        costs = {("soil", 1, "seed-a", "tick"): [100, 2],
                 ("soil", 2, "seed-b", "tick"): [300, 2],
                 ("bus", None, None, "deliver"): [50, 1]}
        return CostModel(costs, scale=scale, mode=mode, dispatches=5)

    def test_scaling_multiplies_ns_and_events(self):
        model = self._model(scale=4, mode="sampling")
        assert model.total_ns == 450 * 4
        assert model.total_events == 5 * 4

    def test_entries_sorted_hottest_first(self):
        model = self._model()
        assert model.entries[0].switch == 2
        assert model.entries[-1].component == "bus"

    def test_groupings_skip_none(self):
        model = self._model()
        assert model.by_switch() == {1: 100, 2: 300}
        assert model.by_seed() == {"seed-a": 100, "seed-b": 300}
        assert model.by_component() == {"soil": 400, "bus": 50}
        assert model.top_switches(1) == [(2, 300)]

    def test_coverage(self):
        model = self._model()
        assert model.coverage(450e-9) == pytest.approx(1.0)
        assert model.coverage(0.0) == 0.0

    def test_imbalance_report_shares_sum_to_one(self):
        report = self._model().imbalance_report()
        assert sum(report.shares.values()) == pytest.approx(1.0)
        assert report.top(1)[0][0] == 2
        assert report.max_mean_skew == pytest.approx(300 / 200)
        # 50 of 450 ns carried no switch id.
        assert report.attributed_fraction == pytest.approx(400 / 450)

    def test_gini_coefficient(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([5.0, 5.0, 5.0]) == pytest.approx(0.0)
        assert gini_coefficient([0.0, 10.0]) == pytest.approx(0.5)
        assert gini_coefficient([1.0, 0.0, 0.0, 0.0]) == pytest.approx(
            0.75)

    def test_to_jsonable_round_trips(self):
        doc = json.loads(json.dumps(self._model().to_jsonable()))
        assert doc["total_ns"] == 450
        assert doc["imbalance"]["gini"] >= 0.0


class TestFlamegraph:
    def _model(self):
        costs = {("soil", 1, "seed-a", "poll x"): [4000, 4],
                 ("soil", 1, "seed-b", "poll x"): [1000, 1],
                 ("soil", 2, "seed-c", "poll y"): [3000, 3],
                 ("bus", None, None, "deliver"): [2000, 2]}
        return CostModel(costs, dispatches=10)

    def test_collapsed_format(self):
        lines = to_collapsed(self._model()).splitlines()
        assert lines[0] == "soil;switch/1;seed-a;poll x 4000"
        assert "bus;deliver 2000" in lines

    def test_html_contains_frames_and_imbalance(self):
        model = self._model()
        html = render_flamegraph(model, report=model.imbalance_report())
        assert html.startswith("<!DOCTYPE html>")
        assert "switch/1" in html and "seed-a" in html
        assert "Load imbalance" in html
        assert "<script" not in html  # zero-asset contract

    def test_writers(self, tmp_path):
        model = self._model()
        write_flamegraph(str(tmp_path / "p.html"), model)
        write_collapsed(str(tmp_path / "p.collapsed"), model)
        assert (tmp_path / "p.html").stat().st_size > 0
        assert "soil;" in (tmp_path / "p.collapsed").read_text()


class TestFlightRecorder:
    def test_ring_is_bounded_and_ring_only_when_tracing_was_off(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)
        recorder = FlightRecorder(sim, tracer, capacity=8)
        assert tracer.enabled and not tracer.buffering
        for i in range(20):
            tracer.instant(f"e{i}", track="t")
        assert len(recorder.ring) == 8
        assert tracer.events == []          # ring-only: nothing buffered
        assert recorder.ring[-1]["name"] == "e19"
        recorder.detach()
        assert (tracer.enabled, tracer.buffering, tracer.on_emit) == (
            False, True, None)

    def test_already_enabled_tracer_keeps_buffering(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now, enabled=True)
        recorder = FlightRecorder(sim, tracer, capacity=4)
        tracer.instant("e", track="t")
        assert len(tracer.events) == 1      # still buffered
        assert len(recorder.ring) == 1
        recorder.detach()
        assert tracer.enabled and tracer.buffering

    def test_snapshot_timer_and_dump_bundle(self):
        sim = Simulator()
        obs = Observability(sim=sim)
        recorder = FlightRecorder(sim, obs.tracer, registry=obs.registry,
                                  snapshots=2, snapshot_interval_s=1.0)
        obs.registry.counter("c_total").inc(7)
        sim.run(until=5.0)
        bundle = recorder.dump(reason="test", context={"a": 1})
        assert bundle["reason"] == "test"
        assert bundle["sim_time"] == 5.0
        # Snapshot ring is bounded at 2 (5 timer snaps + the dump snap).
        assert len(bundle["registry_snapshots"]) == 2
        assert recorder.dumps == [bundle]

class TestProfilingBundle:
    def test_counter_track_rides_in_the_trace(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1), trace=True)
        ProfilingBundle(farm.sim, farm.obs, counter_interval_s=1.0)
        farm.sim.every(0.1, lambda: None, label="poll",
                       cost_key=("soil", 1, None, "poll"))
        farm.run(until=3.0)
        counters = [e for e in farm.tracer.events if e["ph"] == "C"]
        assert counters
        assert all(isinstance(v, float)
                   for v in counters[-1]["args"].values())
        doc = {"traceEvents": [
            {"ph": "C", "name": "profiler_cost_ms", "pid": 1, "tid": 1,
             "ts": 0.0, "args": dict(counters[-1]["args"])}]}
        validate_chrome_trace(doc)          # exporter accepts ph="C"

    def test_write_postmortem_requires_recorder(self, tmp_path):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1))
        bundle = ProfilingBundle(farm.sim, farm.obs, flight_recorder=False)
        farm.sim.every(0.1, lambda: None, label="poll",
                       cost_key=("soil", 1, None, "poll"))
        farm.run(until=1.0)
        with pytest.raises(ValueError):
            bundle.write_postmortem(str(tmp_path / "p.json"))
        assert bundle.cost_model().total_ns > 0


class TestRunProfile:
    def test_skewed_fleet_report_and_artifacts(self, tmp_path):
        flame = tmp_path / "profile.html"
        collapsed = tmp_path / "profile.collapsed"
        postmortem = tmp_path / "postmortem.json"
        point = run_profile(num_switches=3, base_seeds=2, duration_s=0.5,
                            flamegraph_path=str(flame),
                            collapsed_path=str(collapsed),
                            postmortem_path=str(postmortem))
        assert point.seeds == 2 + 4 + 6
        assert point.shares_sum == pytest.approx(1.0, abs=0.01)
        # The skew is constructed: highest-id switch is hottest.
        assert point.top_switches[0][0] == "3"
        # The strict coverage contract is the telescoping identity in
        # test_overhead_contracts_as_clock_read_counts; against a real
        # clock just assert attribution is substantial, so a co-tenant
        # preemption at the run boundary cannot flake.
        assert point.coverage > 0.5
        assert flame.stat().st_size > 0
        assert "soil;" in collapsed.read_text()
        assert json.loads(postmortem.read_text())["reason"] == "profile-run"


class TestTraceDropSatellite:
    def test_dropped_total_in_prometheus_text(self):
        sim = Simulator()
        obs = Observability(sim=sim)
        tracer = obs.tracer
        tracer.enabled = True
        tracer.max_events = 2
        for i in range(5):
            tracer.instant(f"e{i}", track="t")
        text = to_prometheus_text(obs.registry, tracer=tracer)
        assert "farm_trace_dropped_total 3" in text
        # Without a tracer the family is absent (back-compat).
        assert "farm_trace_dropped_total" not in to_prometheus_text(
            obs.registry)

    def test_scarecrow_scrapes_drop_counter(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1), trace=True)
        scarecrow = farm.enable_scarecrow(interval_s=1.0)
        farm.run(until=3.0)
        assert "farm_trace_dropped_total" in scarecrow.store.names()

    def test_dashboard_banner_on_truncation(self):
        farm = FarmDeployment(topology=spine_leaf(1, 2, 1), trace=True)
        scarecrow = farm.enable_scarecrow(interval_s=1.0)
        farm.tracer.max_events = 10
        for i in range(50):
            farm.tracer.instant(f"e{i}", track="t")
        farm.run(until=3.0)
        assert farm.tracer.dropped > 0
        html = render_dashboard(scarecrow.store, alerts=scarecrow.alerts,
                                tracer=farm.tracer)
        assert "Trace truncated" in html
        # A clean tracer renders no banner.
        farm2 = FarmDeployment(topology=spine_leaf(1, 2, 1))
        sc2 = farm2.enable_scarecrow(interval_s=1.0)
        farm2.run(until=2.0)
        assert "Trace truncated" not in render_dashboard(
            sc2.store, alerts=sc2.alerts, tracer=farm2.tracer)

    def test_validate_chrome_trace_rejects_bad_counter(self):
        base = {"ph": "C", "name": "c", "pid": 1, "tid": 1, "ts": 0.0}

        def doc(args):
            return {"traceEvents": [dict(base, args=args)]}

        with pytest.raises(ValueError):
            validate_chrome_trace(doc({}))
        with pytest.raises(ValueError):
            validate_chrome_trace(doc({"x": "hot"}))
        validate_chrome_trace(doc({"x": 1.5}))
