"""Query engine: selectors, instant and range queries, over-time functions."""

import pytest

from repro.obs.metrics import freeze_labels
from repro.obs.query import QueryEngine, parse_selector
from repro.obs.tsdb import Retention, TimeSeriesStore


def _store_with(samples):
    """samples: {(name, labels-dict-or-None): [(t, value), ...]}"""
    store = TimeSeriesStore()
    for (name, labels), points in samples.items():
        for t, value in points:
            store.append(name, dict(labels) if labels else None, t, value)
    return store


class TestParseSelector:
    def test_bare_name(self):
        assert parse_selector("farm_soil_seeds") == ("farm_soil_seeds", {})

    def test_labels(self):
        name, labels = parse_selector('m{switch="7",region="acl"}')
        assert name == "m"
        assert labels == {"switch": "7", "region": "acl"}

    def test_values_with_spaces_and_escapes(self):
        name, labels = parse_selector(
            'm{task="heavy hitter",note="say \\"hi\\""}')
        assert labels == {"task": "heavy hitter", "note": 'say "hi"'}

    def test_bare_values(self):
        assert parse_selector("m{switch=7}") == ("m", {"switch": "7"})

    def test_unterminated_raises(self):
        with pytest.raises(ValueError):
            parse_selector('m{switch="7"')


class TestInstantAndRange:
    def test_instant_latest_and_at(self):
        store = _store_with({("m", (("sw", "1"),)): [(0.0, 1.0), (5.0, 9.0)]})
        engine = QueryEngine(store)
        assert engine.instant("m") == {freeze_labels({"sw": 1}): 9.0}
        assert engine.instant("m", at=2.0) \
            == {freeze_labels({"sw": 1}): 1.0}

    def test_selector_string_with_labels(self):
        store = _store_with({
            ("m", (("sw", "1"),)): [(0.0, 1.0)],
            ("m", (("sw", "2"),)): [(0.0, 2.0)],
        })
        engine = QueryEngine(store)
        assert engine.instant('m{sw="2"}') \
            == {freeze_labels({"sw": 2}): 2.0}

    def test_latest_time(self):
        store = _store_with({("a", None): [(3.0, 1.0)],
                             ("b", None): [(7.5, 1.0)]})
        assert QueryEngine(store).latest_time() == 7.5
        assert QueryEngine(TimeSeriesStore()).latest_time() == 0.0

    def test_range_query_window(self):
        store = _store_with({("m", None): [(float(t), float(t))
                                           for t in range(10)]})
        points = QueryEngine(store).range_query("m", t0=3.0, t1=6.0)[()]
        assert [p.t for p in points] == [3.0, 4.0, 5.0, 6.0]


class TestOverTime:
    def test_rate_basic(self):
        store = _store_with({("c", None): [(0.0, 0.0), (10.0, 50.0)]})
        assert QueryEngine(store).rate("c")[()] == pytest.approx(5.0)

    def test_rate_clamps_counter_reset(self):
        store = _store_with({("c", None): [(0.0, 100.0), (10.0, 3.0)]})
        assert QueryEngine(store).rate("c")[()] == 0.0

    def test_rate_single_sample_is_zero(self):
        store = _store_with({("c", None): [(0.0, 5.0)]})
        assert QueryEngine(store).rate("c")[()] == 0.0

    def test_rate_windowed(self):
        store = _store_with({("c", None): [(0.0, 0.0), (50.0, 1000.0),
                                           (60.0, 1010.0)]})
        # Trailing 10s sees only the slow phase.
        assert QueryEngine(store).rate("c", window_s=10.0, at=60.0)[()] \
            == pytest.approx(1.0)

    def test_delta_may_go_negative(self):
        store = _store_with({("g", None): [(0.0, 10.0), (5.0, 4.0)]})
        assert QueryEngine(store).delta("g")[()] == pytest.approx(-6.0)

    def test_avg_is_count_weighted_across_compaction(self):
        retention = Retention(raw_s=2.0, mid_s=100.0, coarse_s=1000.0,
                              factor=10)
        store = TimeSeriesStore(retention=retention)
        for t in range(50):
            store.append("m", None, float(t), float(t < 25))
        engine = QueryEngine(store)
        series = store.select("m")[0]
        assert series.mid, "compaction should have happened"
        assert engine.avg_over_time("m")[()] == pytest.approx(0.5)

    def test_min_max_use_envelope(self):
        retention = Retention(raw_s=2.0, mid_s=100.0, coarse_s=1000.0,
                              factor=10)
        store = TimeSeriesStore(retention=retention)
        for t in range(50):
            store.append("m", None, float(t), 500.0 if t == 7 else 1.0)
        engine = QueryEngine(store)
        assert engine.max_over_time("m")[()] == 500.0
        assert engine.min_over_time("m")[()] == 1.0

    @pytest.mark.parametrize("function", [
        "rate", "delta", "avg_over_time", "min_over_time", "max_over_time"])
    @pytest.mark.parametrize("selector", ["c", 'c{sw="1"}'])
    def test_positional_window_is_rejected(self, function, selector):
        # The window is the third parameter; passed second it lands in
        # ``match``, which must say so instead of failing on ``.items()``.
        store = _store_with({("c", (("sw", "1"),)): [(0.0, 0.0),
                                                     (10.0, 5.0)]})
        query = getattr(QueryEngine(store), function)
        with pytest.raises(TypeError, match="window_s="):
            query(selector, 5.0)
        assert query(selector, window_s=20.0) \
            == query(selector, None, 20.0)


class TestCompactedWindows:
    """Queries about the past, once the default retention (60 s raw,
    blocks of 10) has compacted the samples they need.  The counter's
    value is its sample time, so every right answer is a time."""

    @staticmethod
    def _counter(last_t):
        return QueryEngine(_store_with(
            {("c", None): [(float(t), float(t))
                           for t in range(1, last_t + 1)]}))

    def test_delta_counts_the_block_ending_at_the_window_start(self):
        # v(50) - v(10): the t=10 sample is the last of block [1, 10].
        assert self._counter(80).delta("c", window_s=40, at=50)[()] == 40.0

    def test_delta_over_compacted_blocks_only(self):
        # Blocks [11, 20] .. [111, 120] end inside [20, 120].
        assert self._counter(199).delta(
            "c", window_s=100, at=120)[()] == 100.0

    def test_instant_never_reads_a_later_sample(self):
        # The newest value sampled by t=115 that survived compaction is
        # the last of block [101, 110].
        assert self._counter(199).instant("c", at=115)[()] == 110.0

    def test_max_over_time_never_reads_a_later_sample(self):
        assert self._counter(199).max_over_time(
            "c", window_s=15, at=115)[()] == 110.0


class TestAggregation:
    def test_sum(self):
        assert QueryEngine.sum({(): 1.0, freeze_labels({"a": 1}): 2.0}) \
            == 3.0
