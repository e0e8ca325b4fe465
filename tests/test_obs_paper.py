"""Tests for the paper-aligned derived metrics (repro.obs.paper),
including the live-counters-vs-post-hoc-certifiers cross-check."""

import json

import numpy as np

from repro.analysis.lemmas import certify_run
from repro.core.epoch_sgd import run_lock_free_sgd
from repro.obs.paper import (
    merge_paper_metrics,
    paper_metrics,
    publish_paper_metrics,
    tau_histogram_buckets,
)
from repro.obs.registry import MetricsRegistry
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.bounded_delay import BoundedDelayScheduler
from repro.theory.contention import (
    delay_sequence,
    lemma_6_2_window_counts,
    tau_max,
)

NUM_THREADS = 4


def _adversarial_run(seed=7, iterations=200, metrics=None):
    objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))
    return run_lock_free_sgd(
        objective,
        BoundedDelayScheduler(16, seed=seed, victims=[0], bias=0.9),
        num_threads=NUM_THREADS,
        step_size=0.05,
        iterations=iterations,
        x0=np.full(2, 1.5),
        seed=seed,
        metrics=metrics,
    )


class TestTauHistogramBuckets:
    def test_cumulative_with_inf(self):
        buckets = tau_histogram_buckets([0, 1, 3, 5, 1000], buckets=(1, 4, 16))
        assert buckets == [[1, 2], [4, 3], [16, 4], ["+Inf", 5]]

    def test_empty(self):
        assert tau_histogram_buckets([], buckets=(1, 2))[-1] == ["+Inf", 0]


class TestPaperMetrics:
    def test_cross_checks_post_hoc_certifiers(self):
        """The acceptance-criterion cross-check: every quantity in the
        live snapshot agrees with the post-hoc certification of the
        same trace (same shared checkers underneath)."""
        records = _adversarial_run().records
        obs = paper_metrics(records, num_threads=NUM_THREADS)
        by_lemma = {
            c.lemma: c for c in certify_run(records, num_threads=NUM_THREADS)
        }
        assert obs["lemma_6_1_violations"] == int(by_lemma["6.1"].measured)
        assert obs["window_bad_max"] == by_lemma["6.2"].measured
        assert obs["window_bound"] == by_lemma["6.2"].bound
        assert obs["lemma_6_2_holds"] == by_lemma["6.2"].holds
        assert obs["indicator_sum_max"] == by_lemma["6.4"].measured
        assert obs["indicator_sum_bound"] == by_lemma["6.4"].bound
        assert obs["lemma_6_4_holds"] == by_lemma["6.4"].holds
        assert obs["tau_max"] == tau_max(records)
        assert obs["window_counts"] == lemma_6_2_window_counts(
            records, window_multiplier=2, num_threads=NUM_THREADS
        )
        delays = delay_sequence(records)
        assert obs["tau_histogram"][-1] == ["+Inf", delays.size]
        assert obs["delay_max"] == int(delays.max())

    def test_live_metrics_agree_with_post_hoc(self):
        """Counters populated during an instrumented run match the
        post-hoc paper_metrics of the same trace."""
        registry = MetricsRegistry()
        result = _adversarial_run(metrics=registry)
        obs = paper_metrics(result.records, num_threads=NUM_THREADS)
        snapshot = registry.snapshot()
        assert snapshot["repro_iterations_total"] == obs["iterations"]
        assert snapshot["repro_tau_max"] == obs["tau_max"]
        assert snapshot["repro_delay_max"] == obs["delay_max"]
        assert snapshot["repro_window_bad_max"] == obs["window_bad_max"]
        assert (
            snapshot["repro_indicator_sum_max"] == obs["indicator_sum_max"]
        )
        assert (
            snapshot["repro_lemma_6_1_violations_total"]
            == obs["lemma_6_1_violations"]
        )
        assert (
            snapshot["repro_tau_delay"]["count"]
            == obs["tau_histogram"][-1][1]
        )

    def test_deterministic_and_json_safe(self):
        first = paper_metrics(
            _adversarial_run().records, num_threads=NUM_THREADS
        )
        second = paper_metrics(
            _adversarial_run().records, num_threads=NUM_THREADS
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_empty_trace(self):
        obs = paper_metrics([], num_threads=NUM_THREADS)
        assert obs["iterations"] == 0
        assert obs["tau_max"] == 0
        assert obs["lemma_6_2_holds"] and obs["lemma_6_4_holds"]


class TestMergePaperMetrics:
    def test_merges_extremes_and_sums(self):
        records = _adversarial_run().records
        cell = paper_metrics(records, num_threads=NUM_THREADS)
        merged = merge_paper_metrics([cell, cell])
        assert merged["cells"] == 2
        assert merged["iterations"] == 2 * cell["iterations"]
        assert merged["tau_max"] == cell["tau_max"]
        assert merged["tau_histogram"][-1][1] == 2 * cell["tau_histogram"][-1][1]
        assert merged["lemma_6_2_holds"] and merged["lemma_6_4_holds"]

    def test_empty(self):
        assert merge_paper_metrics([]) == {}
        assert merge_paper_metrics([{}, None]) == {}


class TestPublish:
    def test_null_registry_is_noop(self):
        publish_paper_metrics(None, {"iterations": 5, "tau_max": 3})

    def test_publishes_counters_gauges_histogram(self):
        registry = MetricsRegistry()
        snapshot = paper_metrics(
            _adversarial_run().records, num_threads=NUM_THREADS
        )
        publish_paper_metrics(registry, snapshot)
        publish_paper_metrics(registry, snapshot)  # second run accumulates
        sampled = registry.snapshot()
        assert sampled["repro_iterations_total"] == 2 * snapshot["iterations"]
        assert sampled["repro_tau_max"] == snapshot["tau_max"]  # gauge: max
