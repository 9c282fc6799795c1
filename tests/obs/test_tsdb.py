"""Sim-time TSDB: points, staged downsampling, scraper scheduling."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import (
    Point,
    Retention,
    Scraper,
    Series,
    TimeSeriesStore,
    merge_points,
)
from repro.sim.engine import Simulator


class TestPoint:
    def test_raw_sample_shape(self):
        point = Point.raw(3.0, 7.5)
        assert point == Point(3.0, 7.5, 7.5, 7.5, 7.5, 1)

    def test_merge_keeps_envelope_and_weighted_mean(self):
        merged = merge_points([Point.raw(0.0, 1.0),
                               Point.raw(1.0, 100.0),
                               Point.raw(2.0, 1.0)])
        assert merged.t == 0.0
        assert merged.vmin == 1.0
        assert merged.vmax == 100.0
        assert merged.mean == pytest.approx(34.0)
        assert merged.last == 1.0
        assert merged.count == 3

    def test_merge_of_merged_is_count_weighted(self):
        a = merge_points([Point.raw(0.0, 0.0), Point.raw(1.0, 0.0)])
        b = Point.raw(2.0, 30.0)
        merged = merge_points([a, b])
        assert merged.mean == pytest.approx(10.0)
        assert merged.count == 3

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_points([])


class TestRetention:
    def test_validation(self):
        with pytest.raises(ValueError):
            Retention(factor=1)
        with pytest.raises(ValueError):
            Retention(raw_s=100.0, mid_s=10.0)
        with pytest.raises(ValueError):
            Retention(raw_s=0.0)


class TestSeries:
    def test_out_of_order_appends_ignored(self):
        series = Series("s")
        series.append(5.0, 1.0)
        series.append(3.0, 99.0)
        assert len(series) == 1
        assert series.latest().last == 1.0

    def test_compaction_block_boundaries_deterministic(self):
        retention = Retention(raw_s=5.0, mid_s=50.0, coarse_s=500.0,
                              factor=10)
        series = Series("s", retention=retention)
        for t in range(40):
            series.append(float(t), float(t))
        # Whole 10-blocks older than raw_s compact; the tail stays raw.
        assert all(p.count == 10 for p in series.mid)
        assert series.mid[0].t == 0.0
        assert len(series.raw) + 10 * len(series.mid) == 40

    def test_spike_survives_both_downsampling_stages(self):
        # The acceptance property: a one-sample spike stays visible in
        # the max envelope after raw -> mid -> coarse compaction.
        retention = Retention(raw_s=5.0, mid_s=20.0, coarse_s=10000.0,
                              factor=10)
        series = Series("s", retention=retention)
        spike_t = 42.0
        for t in range(400):
            series.append(float(t), 100.0 if t == spike_t else 1.0)
        assert series.coarse, "spike block should have reached coarse"
        spanning = [p for p in series.coarse
                    if p.t <= spike_t < p.t + 100.0]
        assert spanning and spanning[0].vmax == 100.0
        assert spanning[0].count == 100
        # The mean dilutes but the envelope does not.
        assert spanning[0].mean == pytest.approx(1.99)
        assert max(p.vmax for p in series.points()) == 100.0
        assert min(p.vmin for p in series.points()) == 1.0

    def test_coarse_expires_past_horizon(self):
        retention = Retention(raw_s=1.0, mid_s=2.0, coarse_s=50.0,
                              factor=2)
        series = Series("s", retention=retention)
        for t in range(200):
            series.append(float(t), 1.0)
        assert series.points()[0].t >= 199.0 - 50.0 - 4.0

    def test_points_range_and_order(self):
        series = Series("s", retention=Retention(raw_s=2.0, mid_s=20.0,
                                                 coarse_s=200.0, factor=2))
        for t in range(20):
            series.append(float(t), float(t))
        pts = series.points(5.0, 15.0)
        assert all(5.0 <= p.t <= 15.0 for p in pts)
        assert [p.t for p in pts] == sorted(p.t for p in pts)


class TestStore:
    def test_get_or_create_and_select(self):
        store = TimeSeriesStore()
        store.append("m", {"switch": 1}, 0.0, 1.0)
        store.append("m", {"switch": 2}, 0.0, 2.0)
        store.append("other", None, 0.0, 3.0)
        assert store.names() == ["m", "other"]
        assert len(store.select("m")) == 2
        assert len(store.select("m", {"switch": 1})) == 1
        assert store.select("m", {"switch": 3}) == []
        assert len(store) == 3
        assert store.total_points() == 3

    def test_label_values_stringified(self):
        store = TimeSeriesStore()
        store.append("m", {"switch": 1}, 0.0, 1.0)
        assert store.select("m", {"switch": "1"})


class TestScraper:
    def _setup(self, interval_s=1.0):
        sim = Simulator()
        registry = MetricsRegistry()
        store = TimeSeriesStore()
        scraper = Scraper(sim, registry, store, interval_s=interval_s)
        return sim, registry, store, scraper

    def test_periodic_scrapes_record_history(self):
        sim, registry, store, scraper = self._setup()
        counter = registry.counter("c_total")
        sim.every(1.0, lambda: counter.inc(5))
        scraper.start()
        sim.run(until=10.0)
        pts = store.select("c_total")[0].points()
        assert len(pts) == 10
        assert pts[-1].last == 50.0

    def test_scrape_sees_same_instant_updates(self):
        # The scraper runs at low priority: a scrape at t observes every
        # normal-priority update scheduled for the same t.
        sim, registry, store, scraper = self._setup()
        counter = registry.counter("c_total")
        sim.every(1.0, lambda: counter.inc(1))
        scraper.start()
        sim.run(until=3.0)
        values = [p.last for p in store.select("c_total")[0].points()]
        assert values == [1.0, 2.0, 3.0]

    def test_histograms_become_sum_and_count_series(self):
        sim, registry, store, scraper = self._setup()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        sim.run(until=0.5)
        scraper.scrape_once()
        assert store.select("lat_sum")[0].latest().last \
            == pytest.approx(0.55)
        assert store.select("lat_count")[0].latest().last == 2.0

    def test_collectors_contribute_samples(self):
        sim, registry, store, scraper = self._setup()
        scraper.collectors.append(lambda: [("derived", {"k": "v"}, 42.0)])
        scraper.scrape_once()
        assert store.select("derived", {"k": "v"})[0].latest().last == 42.0

    def test_self_monitoring_metrics(self):
        sim, registry, store, scraper = self._setup()
        registry.counter("c_total").inc()
        scraper.scrape_once()
        scraper.scrape_once()
        assert registry.value("scarecrow_scrapes_total") == 2.0
        assert registry.value("scarecrow_samples_total") > 0
        assert registry.value("scarecrow_series") == len(store)

    def test_scraping_is_transparent_and_its_work_has_a_closed_form(self):
        # The Fig. 6 ML fleet with and without 1 s scrapes: scraping
        # changes nothing it observes, adds one kernel event per scrape
        # and writes one sample per series per scrape.
        from repro.core.comm import ControlBus
        from repro.core.soil import Soil
        from repro.eval.experiments import (
            _ML_SEED_SOURCE,
            _deploy_polling_seed,
        )
        from repro.switchsim.chassis import Switch
        from repro.switchsim.stratum import driver_for
        from repro.tasks.ml_task import ML_EVENT_CPU_S, SVR_ITERATION_CPU_S

        def run(scrape):
            sim = Simulator()
            registry = MetricsRegistry()
            switch = Switch(sim, 1, registry=registry)
            soil = Soil(sim, switch, driver_for(switch),
                        ControlBus(sim, registry=registry))
            if scrape:
                Scraper(sim, registry, TimeSeriesStore()).start()
            soil.register_external("svr_predict", lambda stats: 0.0,
                                   cpu_cost_s=SVR_ITERATION_CPU_S)
            for index in range(20):
                _deploy_polling_seed(
                    soil, f"ml{index}", interval_s=0.01,
                    event_cpu_s=ML_EVENT_CPU_S, source=_ML_SEED_SOURCE,
                    externals={"iterations": 10})
            sim.run(until=5.0)
            observed = (
                {sid: d.instance.snapshot()
                 for sid, d in soil.deployments.items()},
                switch.cpu.mean_load_percent(),
                {name: family
                 for name, family in registry.snapshot().items()
                 if not name.startswith("scarecrow_")})
            return observed, sim.events_processed, registry

        plain, plain_events, _ = run(scrape=False)
        scraped, scraped_events, registry = run(scrape=True)
        assert scraped == plain
        scrapes = registry.value("scarecrow_scrapes_total")
        assert scraped_events - plain_events == scrapes == 5
        assert registry.value("scarecrow_samples_total") \
            == scrapes * registry.value("scarecrow_series") > 0

    def test_start_idempotent(self):
        sim, registry, store, scraper = self._setup()
        registry.counter("c_total").inc()
        scraper.start()
        scraper.start()  # one timer, not two
        sim.run(until=2.0)
        assert registry.value("scarecrow_scrapes_total") == 2.0

    def test_bad_interval_rejected(self):
        sim, registry, store, _ = self._setup()
        with pytest.raises(ValueError):
            Scraper(sim, registry, store, interval_s=0.0)
