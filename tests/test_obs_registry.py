"""Unit tests for the metrics registry (repro.obs.registry)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("repro_x_total")
        counter.inc()
        counter.inc(41)
        assert counter.sample() == 42

    def test_negative_inc_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("repro_x_total").inc(-1)


class TestGauge:
    def test_set_and_max(self):
        gauge = Gauge("repro_tau_max")
        gauge.set(3)
        gauge.max(7)
        gauge.max(5)  # running max keeps 7
        assert gauge.sample() == 7


class TestHistogram:
    def test_buckets_are_cumulative_with_inf(self):
        histogram = Histogram("repro_tau_delay", buckets=(1, 4, 16))
        histogram.observe_many([0, 1, 3, 5, 100])
        sample = histogram.sample()
        assert sample["buckets"] == [[1, 2], [4, 3], [16, 4], ["+Inf", 5]]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(109.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=(4, 4, 16))
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=())


class TestRegistry:
    def test_accessors_memoize(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_sim_steps_total", "steps")
        b = registry.counter("repro_sim_steps_total")
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_thing")

    def test_instruments_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("repro_b_total")
        registry.gauge("repro_a")
        assert [i.name for i in registry.instruments()] == [
            "repro_a",
            "repro_b_total",
        ]

    def test_snapshot_excludes_wall_clock_metrics_by_default(self):
        registry = MetricsRegistry()
        registry.counter("repro_steps_total").inc(5)
        registry.counter(
            "repro_retries_total", deterministic=False
        ).inc(2)
        assert registry.snapshot() == {"repro_steps_total": 5}
        everything = registry.snapshot(deterministic_only=False)
        assert everything["repro_retries_total"] == 2

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("repro_steps_total", "steps run").inc(9)
        registry.histogram("repro_tau_delay", buckets=(1, 2)).observe(1)
        text = registry.render_prometheus()
        assert "# HELP repro_steps_total steps run" in text
        assert "# TYPE repro_steps_total counter" in text
        assert "repro_steps_total 9" in text
        assert 'repro_tau_delay_bucket{le="1"} 1' in text
        assert "repro_tau_delay_count 1" in text
