"""Tests for counters, gauges, histograms and the metrics registry."""

import pytest

from repro.observability import (Counter, Gauge, Histogram,
                                 MetricsRegistry, exponential_buckets)
from repro.observability.metrics import CATALOGUE


class TestCounter:
    def test_inc(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.as_dict() == 5


class TestGauge:
    def test_set(self):
        gauge = Gauge("ratio")
        assert not gauge.is_set
        gauge.set(0.25)
        assert gauge.is_set and gauge.value == 0.25


class TestBuckets:
    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_invalid_parameters(self):
        for args in ((0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)):
            with pytest.raises(ValueError):
                exponential_buckets(*args)


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_single_value_is_exact_at_every_percentile(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        hist.observe(7.0, count=50)
        for q in (0, 25, 50, 90, 99, 100):
            assert hist.percentile(q) == 7.0

    def test_percentiles_at_bucket_edges(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 4.0):
            hist.observe(value)
        # target rank falls in the (1, 2] bucket, halfway through it.
        assert hist.percentile(50) == pytest.approx(1.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_interpolation_clamped_to_observed_range(self):
        hist = Histogram("h", bounds=(10.0,))
        hist.observe(3.0)
        hist.observe(4.0)
        # Both land in the first bucket; without clamping the lower
        # edge would be the histogram's min bound, not the observed 3.
        assert 3.0 <= hist.percentile(50) <= 4.0
        assert hist.percentile(99) <= 4.0

    def test_overflow_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts[-1] == 1
        assert hist.percentile(99) == 100.0

    def test_observe_with_count(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5, count=10)
        assert hist.total == 10
        assert hist.sum == pytest.approx(5.0)
        assert hist.mean == pytest.approx(0.5)

    def test_observe_nonpositive_count_ignored(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5, count=0)
        assert hist.total == 0

    def test_empty_summary_is_zero(self):
        summary = Histogram("h", bounds=(1.0,)).summary()
        assert summary == {"count": 0, "sum": 0.0, "mean": 0.0,
                           "min": 0.0, "max": 0.0, "p50": 0.0,
                           "p90": 0.0, "p99": 0.0}

    def test_summary_keys_and_values(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        hist.observe(3.0)
        summary = hist.summary()
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_as_dict_includes_buckets(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.5)
        data = hist.as_dict()
        assert data["buckets"] == {"1.0": 0, "2.0": 1, "+inf": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_summary_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        summary = registry.summary()
        assert summary["counters"] == {"c": 1}
        assert summary["gauges"] == {"g": 2.0}
        assert summary["histograms"]["h"]["count"] == 1

    def test_catalogue_kinds(self):
        assert CATALOGUE
        for name, (kind, description) in CATALOGUE.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert description
