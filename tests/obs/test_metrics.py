"""The metrics registry: instruments, exports, null behavior."""

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    parse_prometheus_text,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(4.0)
        g.inc(1.0)
        assert g.value == 5.0
        g.set(9.0)
        assert g.value == 9.0

    def test_histogram_buckets_and_totals(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert h.count == 3 and h.sum == 55.5

    def test_histogram_observe_on_edge_is_inclusive(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_observe_many_equals_observing_each(self):
        values = np.array([0.0, 0.5, 1.0, 1.5, 10.0, 50.0, 1.0])
        one, many = Histogram(bounds=(1.0, 10.0)), Histogram(bounds=(1.0, 10.0))
        for v in values:
            one.observe(float(v))
        many.observe_many(values)
        assert many.counts == one.counts == [4, 2, 1]
        assert many.count == one.count and many.sum == pytest.approx(one.sum)

    def test_quantile_interpolates_within_buckets(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        # rank 2 of 4 falls inside the (1, 2] bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_edge_cases(self):
        h = Histogram(bounds=(1.0,))
        assert h.quantile(0.5) == 0.0          # empty histogram
        h.observe(100.0)                        # lands in +Inf
        assert h.quantile(0.99) == 1.0          # clamped to the top edge
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_same_name_and_labels_is_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("x", shard=0) is m.counter("x", shard=0)
        assert m.counter("x", shard=0) is not m.counter("x", shard=1)

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_conflicting_bucket_edges_raise(self):
        m = MetricsRegistry()
        m.histogram("h", buckets=(1.0, 2.0))
        m.histogram("h", buckets=(1.0, 2.0))  # same edges: fine
        with pytest.raises(ValueError, match="already registered"):
            m.histogram("h", buckets=(5.0,))

    def test_custom_bucket_edges_round_trip(self):
        m = MetricsRegistry()
        h = m.histogram("request_seconds",
                        buckets=(0.001, 0.002, 0.005, 0.01, 0.1, 1.0, 60.0),
                        cache="hit")
        for v in (0.0005, 0.015, 0.4, 90.0):
            h.observe(v)
        assert parse_prometheus_text(m.prometheus_text()) == m.flat()

    def test_prometheus_text_round_trips_exactly(self):
        m = MetricsRegistry()
        m.counter("spmd_tasks_total", shard=0).inc(12)
        m.gauge("efficiency").set(0.731234567890123)
        h = m.histogram("spmd_wait_seconds", shard=0, kind="barrier")
        for v in (1e-7, 2e-4, 0.5, 20.0):
            h.observe(v)
        text = m.prometheus_text()
        assert "# TYPE spmd_wait_seconds histogram" in text
        assert parse_prometheus_text(text) == m.flat()

    def test_flat_histogram_buckets_are_cumulative(self):
        m = MetricsRegistry()
        h = m.histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        flat = m.flat()
        assert flat['h_bucket{le="1"}'] == 1.0
        assert flat['h_bucket{le="10"}'] == 2.0
        assert flat['h_bucket{le="+Inf"}'] == 2.0
        assert flat["h_count"] == 2.0

    def test_label_values_are_escaped(self):
        m = MetricsRegistry()
        m.counter("c", label='with "quotes"\nand newline').inc()
        text = m.prometheus_text()
        assert parse_prometheus_text(text) == m.flat()

    def test_write_prometheus(self, tmp_path):
        m = MetricsRegistry()
        m.counter("c").inc()
        path = tmp_path / "m.prom"
        m.write_prometheus(str(path))
        assert parse_prometheus_text(path.read_text()) == m.flat()


class TestNullMetrics:
    def test_records_nothing(self):
        NULL_METRICS.counter("c", shard=0).inc(5)
        NULL_METRICS.gauge("g").set(2)
        NULL_METRICS.histogram("h").observe(1.0)
        NULL_METRICS.histogram("h").observe_many(np.ones(3))
        assert NULL_METRICS.flat() == {}
        assert not NULL_METRICS.enabled

    def test_default_buckets_cover_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 1e-6 and DEFAULT_BUCKETS[-1] >= 1.0
