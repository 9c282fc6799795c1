"""Dashboard exporter: self-contained HTML, envelopes, alert timeline."""

import re

from repro.obs.alerts import AlertManager, ThresholdRule
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.flamegraph import render_flamegraph
from repro.obs.profiler import CostModel
from repro.obs.query import QueryEngine
from repro.obs.tsdb import Retention, TimeSeriesStore


def _store():
    store = TimeSeriesStore()
    for t in range(30):
        store.append("farm_bus_messages_total", None, float(t), t * 10.0)
        store.append("farm_soil_seeds", {"switch": 1}, float(t), 3.0)
        store.append("farm_soil_seeds", {"switch": 2}, float(t), 5.0)
    return store


class TestRendering:
    def test_no_external_assets(self):
        # Both pages render_page builds: the dashboard and the flame graph.
        model = CostModel({("soil", 1, "hh", "poll"): [5000, 5],
                           ("bus", None, None, "deliver"): [300, 2]})
        for html in (render_dashboard(_store()), render_flamegraph(model)):
            assert "<script" not in html
            assert "<link" not in html
            assert "<img" not in html
            assert "@import" not in html
            assert "http://" not in html and "https://" not in html
            assert "url(" not in html

    def test_structure(self):
        html = render_dashboard(_store(), title="t", subtitle="s")
        assert html.startswith("<!DOCTYPE html>")
        assert "prefers-color-scheme" in html  # dark mode is selected
        assert html.count("<svg") >= 2
        assert 'class="legend"' in html
        assert "farm_bus_messages_total" in html
        assert "switch=1" in html and "switch=2" in html

    def test_coordinates_stay_inside_viewbox(self):
        html = render_dashboard(_store())
        for points in re.findall(r'<polyline points="([^"]+)"', html):
            for pair in points.split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= 640 and 0 <= y <= 120

    def test_compacted_spike_visible_in_svg_and_table(self):
        # Acceptance: a one-sample spike that survived both downsampling
        # stages must be visible in the rendered output — as the min/max
        # envelope polygon and as the max column of the legend table.
        retention = Retention(raw_s=5.0, mid_s=20.0, coarse_s=10000.0,
                              factor=10)
        store = TimeSeriesStore(retention=retention)
        for t in range(400):
            store.append("m", None, float(t),
                         5000.0 if t == 42 else 1.0)
        series = store.select("m")[0]
        assert series.coarse, "spike must have been double-compacted"
        html = render_dashboard(store)
        assert "<polygon" in html  # the envelope wash
        assert "5K" in html        # compact-formatted spike maximum

    def test_single_point_series_renders(self):
        store = TimeSeriesStore()
        store.append("m", None, 1.0, 2.0)
        html = render_dashboard(store)
        assert "<polyline" in html and "NaN" not in html

    def test_empty_store(self):
        html = render_dashboard(TimeSeriesStore())
        assert "0 families" in html

    def test_series_cap_folds_overflow(self):
        store = TimeSeriesStore()
        for switch in range(12):
            store.append("m", {"switch": switch}, 1.0, 1.0)
            store.append("m", {"switch": switch}, 2.0, 2.0)
        html = render_dashboard(store)
        assert "+4 more series not drawn" in html
        # Only 8 palette slots are ever used; slot 9 must not exist.
        assert "--s9" not in html

    def test_html_escaping(self):
        store = TimeSeriesStore()
        store.append("m", {"task": "<b>&x"}, 1.0, 1.0)
        html = render_dashboard(store, title="<script>alert(1)</script>")
        assert "<script>" not in html
        assert "&lt;b&gt;&amp;x" in html


class TestAlertTimeline:
    def _alerted_store(self):
        store = TimeSeriesStore()
        engine = QueryEngine(store)
        manager = AlertManager(engine)
        manager.add_rule(ThresholdRule("hot", "g", op=">", threshold=5.0,
                                       for_s=2.0, severity="critical"))
        for t in range(20):
            value = 9.0 if 5 <= t <= 12 else 1.0
            store.append("g", None, float(t), value)
            manager.evaluate(float(t))
        return store, manager

    def test_pending_and_firing_bars(self):
        store, manager = self._alerted_store()
        html = render_dashboard(store, alerts=manager)
        assert "#fab219" in html  # pending bar in warning color
        assert "#d03b3b" in html  # firing bar in critical color
        assert html.count("<rect") == 2
        assert "hot" in html

    def test_counts_in_tiles(self):
        store, manager = self._alerted_store()
        html = render_dashboard(store, alerts=manager)
        assert "1 / 1" in html  # fired / resolved

    def test_no_alerts_note(self):
        html = render_dashboard(_store(),
                                alerts=AlertManager(
                                    QueryEngine(TimeSeriesStore())))
        assert "No alerts entered pending or firing." in html


class TestWrite:
    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "dash.html"
        write_dashboard(str(path), _store(), title="written")
        content = path.read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "written" in content
