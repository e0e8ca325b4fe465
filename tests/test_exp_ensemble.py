"""Tests for the process-parallel seed-ensemble runner (tier 2 of the
execution engine): chunking, job resolution, order preservation, the
serial fallback, and byte-identity of parallel vs serial results."""

import functools
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.experiments import e1_sequential, ensemble
from repro.experiments.ensemble import (
    resolve_jobs,
    run_ensemble,
    seed_chunks,
)


def _square(seed: int) -> int:
    """Module-level (hence picklable) worker."""
    return seed * seed


def _seeded_tuple(offset: int, seed: int):
    """Picklable worker with bound config state, via functools.partial."""
    return (seed, float(seed + offset), [seed] * 3)


class TestResolveJobs:
    def test_none_and_one_mean_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_and_negative_mean_all_cpus(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) >= 1

    def test_explicit_count_taken_literally(self):
        assert resolve_jobs(5) == 5


class TestSeedChunks:
    def test_chunks_are_contiguous_and_cover_all_seeds(self):
        seeds = list(range(103, 120))
        chunks = seed_chunks(seeds, jobs=3)
        assert [s for chunk in chunks for s in chunk] == seeds
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[0] + len(chunk)))

    def test_at_most_four_chunks_per_job(self):
        chunks = seed_chunks(list(range(1000)), jobs=2)
        assert 1 <= len(chunks) <= 4 * 2 + 1

    def test_empty_seed_list(self):
        assert seed_chunks([], jobs=4) == []

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            seed_chunks([1, 2], jobs=0)


class TestRunEnsemble:
    def test_serial_matches_list_comprehension(self):
        seeds = [7, 3, 11, 3]
        assert run_ensemble(_square, seeds, jobs=1) == [_square(s) for s in seeds]

    def test_parallel_byte_identical_to_serial(self):
        seeds = list(range(200, 213))
        serial = run_ensemble(_square, seeds, jobs=1)
        parallel = run_ensemble(_square, seeds, jobs=2)
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_parallel_partial_worker_preserves_seed_order(self):
        worker = functools.partial(_seeded_tuple, 10)
        seeds = list(range(50, 61))
        serial = run_ensemble(worker, seeds, jobs=1)
        parallel = run_ensemble(worker, seeds, jobs=3)
        assert parallel == serial
        assert [row[0] for row in parallel] == seeds

    def test_unpicklable_callable_falls_back_to_serial(self):
        offset = 5
        seeds = list(range(6))
        # A closure cannot cross a process boundary; the runner must
        # degrade to the serial path and still return correct results.
        result = run_ensemble(lambda s: s + offset, seeds, jobs=2)
        assert result == [s + offset for s in seeds]

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork for you")

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", ExplodingPool)
        seeds = list(range(8))
        assert run_ensemble(_square, seeds, jobs=4) == [s * s for s in seeds]

    def test_worker_errors_propagate_from_serial_path(self):
        def boom(seed):
            raise ValueError(f"seed {seed}")

        with pytest.raises(ValueError):
            run_ensemble(boom, [1, 2], jobs=1)

    def test_single_seed_never_pools(self, monkeypatch):
        def no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not be created for one seed")

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", no_pool)
        assert run_ensemble(_square, [9], jobs=8) == [81]


class _FakeFuture:
    """A completed future: ``result()`` runs the work or raises."""

    def __init__(self, fn=None, exc=None):
        self._fn, self._exc = fn, exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._fn()

    def cancel(self):
        return True


class _ScriptedPool:
    """In-process ProcessPoolExecutor stand-in whose per-submit behaviour
    follows a script: an exception instance makes that future raise it,
    ``None`` runs the chunk for real.  Exhausted scripts run for real —
    so "fail once, then succeed" is one script entry."""

    def __init__(self, script=()):
        self.script = list(script)
        self.submits = 0
        self.starts = 0

    def __call__(self, max_workers=None, initializer=None):
        self.starts += 1
        return self

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, payload):
        self.submits += 1
        behavior = self.script.pop(0) if self.script else None
        if behavior is None:
            return _FakeFuture(fn=lambda: fn(payload))
        return _FakeFuture(exc=behavior)


def _fake_wait(futures, timeout=None, return_when=None):
    return set(futures), set()


class TestPartialChunkRerun:
    """Satellite: pool failures cost only the chunks that failed, not the
    whole seed list, and transient failures retry inside the pool."""

    def _patch(self, monkeypatch, pool):
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(ensemble, "wait", _fake_wait)

    def test_transient_failure_retried_in_pool(self, monkeypatch):
        seeds = list(range(8))
        pool = _ScriptedPool([BrokenProcessPool("worker died")])
        self._patch(monkeypatch, pool)
        result = run_ensemble(
            _square, seeds, jobs=2, chunk_retries=1, backoff_base=0.0
        )
        assert result == [s * s for s in seeds]
        # The broken chunk was resubmitted once: chunks + 1 submits.
        assert pool.submits == len(seed_chunks(seeds, 2)) + 1

    def test_retry_budget_exhausted_falls_back_to_serial(self, monkeypatch):
        seeds = list(range(8))
        chunks = len(seed_chunks(seeds, 2))
        # Every submit of chunk 0 fails: initial + chunk_retries attempts.
        pool = _ScriptedPool(
            [BrokenProcessPool("still dead")] * (chunks + 2)
        )
        self._patch(monkeypatch, pool)
        result = run_ensemble(
            _square, seeds, jobs=2, chunk_retries=2, backoff_base=0.0
        )
        assert result == [s * s for s in seeds]

    def test_non_retryable_failure_is_not_resubmitted(self, monkeypatch):
        seeds = list(range(8))
        pool = _ScriptedPool([pickle.PicklingError("cannot cross")])
        self._patch(monkeypatch, pool)
        result = run_ensemble(_square, seeds, jobs=2, backoff_base=0.0)
        assert result == [s * s for s in seeds]
        # No retry was attempted for a serialization failure.
        assert pool.submits == len(seed_chunks(seeds, 2))

    def test_failed_chunks_recomputed_exactly_once(self, monkeypatch):
        seeds = list(range(8))
        calls = []

        def worker(seed):
            calls.append(seed)
            return seed * 3

        # Chunks 2 and 5 never produce a pool result; the rest succeed.
        chunks = len(seed_chunks(seeds, 2))
        script = [None] * chunks
        script[2] = pickle.PicklingError("chunk 2")
        script[5] = TypeError("chunk 5")
        self._patch(monkeypatch, _ScriptedPool(script))
        result = run_ensemble(worker, seeds, jobs=2, backoff_base=0.0)
        assert result == [s * 3 for s in seeds]
        # Every seed ran exactly once: successful chunks were not redone.
        assert sorted(calls) == seeds

    def test_wedged_pool_reruns_unfinished_chunks_serially(self, monkeypatch):
        def no_progress(futures, timeout=None, return_when=None):
            return set(), set(futures)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", _ScriptedPool())
        monkeypatch.setattr(ensemble, "wait", no_progress)
        seeds = list(range(6))
        result = run_ensemble(_square, seeds, jobs=3, chunk_timeout=0.01)
        assert result == [s * s for s in seeds]

    def test_worker_error_under_pooling_still_propagates(self, monkeypatch):
        def boom_on_three(seed):
            if seed == 3:
                raise ValueError("seed 3")
            return seed

        self._patch(monkeypatch, _ScriptedPool())
        # The pool leaves the poisoned chunk unfilled; the serial rerun
        # re-raises the real error with a clean traceback.
        with pytest.raises(ValueError, match="seed 3"):
            run_ensemble(boom_on_three, list(range(6)), jobs=2)


class TestDriverDeterminism:
    def test_e1_parallel_matches_serial(self):
        config = e1_sequential.E1Config.quick()
        config.num_runs = 4
        serial = e1_sequential.run(config)
        config.jobs = 2
        parallel = e1_sequential.run(config)
        assert pickle.dumps(parallel.series) == pickle.dumps(serial.series)
        assert pickle.dumps(parallel.table.rows) == pickle.dumps(serial.table.rows)
        assert parallel.passed == serial.passed


class TestSeededBackoffJitter:
    """Satellite: chunk-retry backoff jitter is seeded and deterministic
    (no ``random``/wall-clock entropy), and enabling it does not disturb
    result byte-identity across --jobs."""

    def test_no_seed_is_pure_exponential(self):
        assert ensemble.backoff_delay(0.5, 1) == 0.5
        assert ensemble.backoff_delay(0.5, 2) == 1.0
        assert ensemble.backoff_delay(0.5, 3) == 2.0

    def test_seeded_jitter_is_deterministic(self):
        a = ensemble.backoff_delay(0.5, 2, chunk_index=3, seed=42)
        b = ensemble.backoff_delay(0.5, 2, chunk_index=3, seed=42)
        assert a == b

    def test_jitter_varies_by_key(self):
        base = ensemble.backoff_delay(0.5, 2, chunk_index=3, seed=42)
        assert ensemble.backoff_delay(0.5, 2, chunk_index=4, seed=42) != base
        assert ensemble.backoff_delay(0.5, 3, chunk_index=3, seed=42) != base
        assert ensemble.backoff_delay(0.5, 2, chunk_index=3, seed=43) != base

    def test_jitter_stays_within_half_to_three_halves(self):
        for attempt in (1, 2, 3):
            for chunk in range(8):
                raw = 0.25 * 2 ** (attempt - 1)
                delay = ensemble.backoff_delay(
                    0.25, attempt, chunk_index=chunk, seed=7
                )
                assert 0.5 * raw <= delay < 1.5 * raw

    def test_zero_base_never_jitters(self):
        assert ensemble.backoff_delay(0.0, 3, chunk_index=1, seed=9) == 0.0

    def test_retry_sleeps_use_the_seeded_delay(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        seeds = list(range(8))
        pool = _ScriptedPool([BrokenProcessPool("worker died")])
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(ensemble, "wait", _fake_wait)
        slept = []
        monkeypatch.setattr(ensemble.time, "sleep", slept.append)
        result = run_ensemble(
            _square, seeds, jobs=2, chunk_retries=1,
            backoff_base=0.25, backoff_seed=11,
        )
        assert result == [s * s for s in seeds]
        # Chunk 0 failed once -> exactly one sleep, the seeded jittered
        # delay for (chunk 0, attempt 1) -- reproducible by key.
        assert slept == [
            ensemble.backoff_delay(0.25, 1, chunk_index=0, seed=11)
        ]

    def test_jobs_byte_identity_with_jitter_enabled(self):
        serial = run_ensemble(_square, list(range(12)), jobs=1, backoff_seed=5)
        pooled = run_ensemble(_square, list(range(12)), jobs=4, backoff_seed=5)
        assert pickle.dumps(pooled) == pickle.dumps(serial)
