"""Unit tests for Algorithm 1 (EpochSGDProgram / run_lock_free_sgd)."""

import dataclasses

import numpy as np
import pytest

from repro.core.algorithm import build_zoo_simulation, collect_iteration_records
from repro.core.epoch_sgd import EpochSGDProgram, LockFreeSGD, run_lock_free_sgd
from repro.core.results import accumulator_trajectory
from repro.core.sequential import run_sequential_sgd
from repro.errors import ConfigurationError, HistoryViolationError
from repro.objectives.noise import ZeroNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.objectives.sparse import SeparableQuadratic
from repro.runtime.policy import TraceConfig
from repro.sched.random_sched import RandomScheduler
from repro.sched.sequential import SequentialScheduler
from repro.shm.ops import FetchAdd


class TestIterationBudget:
    def test_total_iterations_equals_T(self, quadratic_noisy, x0_small):
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=0), num_threads=4,
            step_size=0.05, iterations=57, x0=x0_small, seed=0,
        )
        assert result.iterations == 57
        assert sum(result.thread_iterations.values()) == 57

    def test_zero_iterations(self, quadratic_noisy, x0_small):
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=0), num_threads=2,
            step_size=0.05, iterations=0, x0=x0_small, seed=0,
        )
        assert result.iterations == 0
        np.testing.assert_allclose(result.x_final, x0_small)

    def test_single_thread_sequential_equivalence(self, x0_small):
        """One thread under a serial schedule = the classic iteration."""
        objective = IsotropicQuadratic(dim=2, noise=ZeroNoise())
        lock_free = run_lock_free_sgd(
            objective, SequentialScheduler(), num_threads=1,
            step_size=0.1, iterations=30, x0=x0_small, seed=5,
        )
        sequential = run_sequential_sgd(
            objective, alpha=0.1, iterations=30, x0=x0_small, seed=5
        )
        np.testing.assert_allclose(
            lock_free.x_final, sequential.x_final, rtol=1e-12
        )
        np.testing.assert_allclose(
            lock_free.distances, sequential.distances, rtol=1e-12
        )


class TestSharedModelSemantics:
    def test_final_model_is_sum_of_applied_updates(self, x0_small):
        objective = IsotropicQuadratic(dim=2, noise=ZeroNoise())
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=1), num_threads=3,
            step_size=0.05, iterations=40, x0=x0_small, seed=1,
        )
        total = x0_small.astype(float).copy()
        for record in result.records:
            total -= record.step_size * record.gradient
        np.testing.assert_allclose(result.x_final, total, rtol=1e-10)

    def _logged_run(self, seed, num_threads, iterations, x0):
        """Algorithm 1 on a clean quadratic with the memory log kept."""
        sim, model, _x0 = build_zoo_simulation(
            LockFreeSGD(), IsotropicQuadratic(dim=2, noise=ZeroNoise()),
            RandomScheduler(seed=seed), num_threads=num_threads,
            step_size=0.05, iterations=iterations, x0=x0, seed=seed,
            trace_config=TraceConfig(),
        )
        sim.run_fast()
        return sim, model

    def test_no_fetch_add_lost_under_contention(self, x0_small, check_history):
        """Linearizability through the algorithm: final X = x0 + all deltas."""
        sim, model = self._logged_run(2, 6, 60, x0_small)
        check_history(sim, model, x0_small)
        # Reconstructed from records (independent of the memory log).
        assert len(collect_iteration_records(sim)) == 60

    def test_memory_log_fetch_add_totals(self, check_history):
        # x0=0 so the initial load is pure poke; totals check from 0.
        sim, model = self._logged_run(3, 4, 30, np.zeros(2))
        check_history(sim, model, np.zeros(2))
        assert model.snapshot().shape == (2,)

    def test_history_check_catches_an_altered_delta(
        self, x0_small, check_history
    ):
        sim, model = self._logged_run(2, 6, 60, x0_small)
        log = list(sim.memory.log)
        index = next(
            i for i, record in enumerate(log)
            if isinstance(record.op, FetchAdd)
            and model.contains_address(record.op.address)
        )
        log[index] = dataclasses.replace(
            log[index],
            op=dataclasses.replace(log[index].op, delta=log[index].op.delta + 0.5),
        )
        with pytest.raises(HistoryViolationError):
            check_history(sim, model, x0_small, log=log)

    def test_records_sorted_by_first_update(self, quadratic_noisy, x0_small):
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=4), num_threads=4,
            step_size=0.05, iterations=50, x0=x0_small, seed=4,
        )
        orders = [r.order_time for r in result.records]
        assert orders == sorted(orders)

    def test_views_can_be_inconsistent(self, x0_small):
        """Under concurrency some view must differ from every accumulator
        state — the inconsistency the paper studies."""
        objective = IsotropicQuadratic(dim=2, noise=ZeroNoise())
        # Note: round-robin keeps equal-length programs phase-locked (all
        # threads read in the same window), which yields consistent
        # snapshots; a random interleaving breaks that.
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=6), num_threads=4,
            step_size=0.1, iterations=60, x0=x0_small, seed=6,
        )
        trajectory = accumulator_trajectory(x0_small, result.records)
        mismatches = 0
        for record in result.records:
            matches = np.any(
                np.all(np.isclose(trajectory, record.view, atol=1e-12), axis=1)
            )
            if not matches:
                mismatches += 1
        assert mismatches > 0


class TestRecords:
    def test_record_fields_populated(self, quadratic_noisy, x0_small):
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=7), num_threads=2,
            step_size=0.05, iterations=10, x0=x0_small, seed=7,
        )
        for record in result.records:
            assert record.start_time >= 0
            assert record.read_start_time > record.start_time
            assert record.read_end_time >= record.read_start_time
            assert record.end_time >= record.read_end_time
            assert record.view.shape == (2,)
            assert record.gradient.shape == (2,)
            assert record.step_size == 0.05
            assert len(record.applied) == 2
            assert len(record.update_times) == 2

    def test_sparse_gradients_skip_zero_components(self, x0_small):
        objective = SeparableQuadratic(np.array([1.0, 1.0]))
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=8), num_threads=2,
            step_size=0.05, iterations=20, x0=x0_small, seed=8,
        )
        for record in result.records:
            nonzero = int(np.count_nonzero(record.gradient))
            updated = sum(1 for t in record.update_times if t is not None)
            assert updated == nonzero <= 1

    def test_epsilon_hit_time(self, quadratic_noisy, x0_small):
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=9), num_threads=4,
            step_size=0.05, iterations=400, x0=x0_small, seed=9,
            epsilon=0.25,
        )
        assert result.succeeded
        assert result.distances[result.hit_time] ** 2 <= 0.25

    def test_stop_epsilon_ends_early(self, quadratic_noisy, x0_small):
        full = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=10), num_threads=4,
            step_size=0.05, iterations=400, x0=x0_small, seed=10,
        )
        stopped = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=10), num_threads=4,
            step_size=0.05, iterations=400, x0=x0_small, seed=10,
            stop_epsilon=0.25,
        )
        assert stopped.sim_steps < full.sim_steps
        assert quadratic_noisy.distance_to_opt(stopped.x_final) ** 2 <= 0.25


class TestValidation:
    def test_invalid_program_params(self, quadratic_noisy, memory):
        from repro.shm.array import AtomicArray
        from repro.shm.counter import AtomicCounter

        model = AtomicArray.allocate(memory, 2)
        counter = AtomicCounter.allocate(memory)
        with pytest.raises(ConfigurationError):
            EpochSGDProgram(model, counter, quadratic_noisy, 0.0, 10)
        with pytest.raises(ConfigurationError):
            EpochSGDProgram(model, counter, quadratic_noisy, 0.1, -1)
        wrong_model = AtomicArray.allocate(memory, 3)
        with pytest.raises(ConfigurationError):
            EpochSGDProgram(wrong_model, counter, quadratic_noisy, 0.1, 10)

    def test_invalid_thread_count(self, quadratic_noisy):
        with pytest.raises(ConfigurationError):
            run_lock_free_sgd(
                quadratic_noisy, RandomScheduler(), num_threads=0,
                step_size=0.1, iterations=1,
            )
