"""Tests for the consistent-snapshot SGD variant, the versioned array's
double-collect scan, and the classic averaged-iterate analysis."""

import numpy as np
import pytest

from repro.core.averaged import (
    classic_average_bound,
    run_averaged_sgd,
)
from repro.core.epoch_sgd import run_lock_free_sgd
from repro.core.snapshot_sgd import SnapshotSGDProgram, run_snapshot_sgd
from repro.errors import ConfigurationError
from repro.objectives.noise import GaussianNoise, ZeroNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.program import FunctionProgram
from repro.runtime.simulator import Simulator
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.shm.versioned import VersionedArray


class TestVersionedArray:
    def test_load_and_snapshot(self, memory):
        array = VersionedArray(memory, 3)
        array.load(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(array.snapshot(), [1.0, 2.0, 3.0])

    def test_update_bumps_value_and_version(self, memory):
        array = VersionedArray(memory, 2)
        sim = Simulator(memory, RoundRobinScheduler())

        def writer(ctx):
            yield from array.update_ops(1, 5.0)

        sim.spawn(FunctionProgram(writer))
        sim.run()
        assert array.values.snapshot()[1] == 5.0
        # Seqlock: odd while in flight, even (=2) once complete.
        assert array.versions.snapshot()[1] == 2.0

    def test_in_flight_write_marks_version_odd(self, memory):
        array = VersionedArray(memory, 1)
        sim = Simulator(memory, RoundRobinScheduler())

        def writer(ctx):
            yield from array.update_ops(0, 1.0)

        sim.spawn(FunctionProgram(writer))
        sim.step()  # version -> odd
        assert array.versions.snapshot()[0] == 1.0
        sim.step()  # value lands
        sim.step()  # version -> even
        assert array.versions.snapshot()[0] == 2.0

    def test_solo_scan_is_consistent_first_try(self, memory):
        array = VersionedArray(memory, 3)
        array.load(np.array([1.0, 2.0, 3.0]))
        sim = Simulator(memory, RoundRobinScheduler())
        outcome = {}

        def scanner(ctx):
            values, ok, retries = yield from array.scan_ops()
            outcome.update(values=values, ok=ok, retries=retries)

        sim.spawn(FunctionProgram(scanner))
        sim.run()
        assert outcome["ok"] is True
        assert outcome["retries"] == 0
        np.testing.assert_allclose(outcome["values"], [1.0, 2.0, 3.0])
        assert sim.now == 9  # 3d steps for d=3

    def test_concurrent_update_forces_retry(self, memory):
        """Round-robin interleaves one writer with the scanner, so the
        first double-collect must fail and the scan retries."""
        array = VersionedArray(memory, 2)
        sim = Simulator(memory, RoundRobinScheduler())
        outcome = {}

        def scanner(ctx):
            values, ok, retries = yield from array.scan_ops()
            outcome.update(ok=ok, retries=retries, values=values)

        def writer(ctx):
            yield from array.update_ops(0, 1.0)
            yield from array.update_ops(1, 1.0)

        sim.spawn(FunctionProgram(scanner))
        sim.spawn(FunctionProgram(writer))
        sim.run()
        assert outcome["retries"] >= 1
        assert outcome["ok"] is True  # writer finished, scan then succeeds
        # The consistent collect must equal the final array state.
        np.testing.assert_allclose(outcome["values"], array.snapshot())

    def test_retry_budget_fallback(self, memory):
        """With budget 0 the scan returns the first collect regardless."""
        array = VersionedArray(memory, 2)
        sim = Simulator(memory, RoundRobinScheduler())
        outcome = {}

        def scanner(ctx):
            values, ok, retries = yield from array.scan_ops(max_retries=0)
            outcome.update(ok=ok, retries=retries)

        def writer(ctx):
            for _ in range(10):
                yield from array.update_ops(0, 1.0)

        sim.spawn(FunctionProgram(scanner))
        sim.spawn(FunctionProgram(writer))
        sim.run()
        assert outcome["retries"] <= 1

    def test_invalid_length(self, memory):
        with pytest.raises(ConfigurationError):
            VersionedArray(memory, 0)


class TestSnapshotSGD:
    def test_converges(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))
        result = run_snapshot_sgd(
            objective, RandomScheduler(seed=1), num_threads=3,
            step_size=0.05, iterations=300, x0=np.array([2.0, -2.0]),
            seed=1, epsilon=0.25,
        )
        assert result.succeeded

    def test_views_are_consistent_memory_snapshots(self):
        """Every successfully-scanned view must equal the shared memory
        at SOME instant — i.e. x0 plus a time-prefix of the per-component
        update events.  (Algorithm 1's entry-wise reads violate exactly
        this; the double-collect scan restores it.)"""
        objective = IsotropicQuadratic(dim=2, noise=ZeroNoise())
        x0 = np.array([2.0, -2.0])
        result = run_snapshot_sgd(
            objective, RandomScheduler(seed=2), num_threads=3,
            step_size=0.1, iterations=60, x0=x0, seed=2,
            max_scan_retries=50,
        )
        # Reconstruct the memory state after every component update.
        events = []
        for record in result.records:
            for j, update_time in enumerate(record.update_times):
                if update_time is not None:
                    events.append(
                        (update_time, j, -record.step_size * record.gradient[j])
                    )
        events.sort()
        states = [x0.astype(float).copy()]
        current = x0.astype(float).copy()
        for _time, j, delta in events:
            current = current.copy()
            current[j] += delta
            states.append(current)
        states = np.array(states)

        checked = 0
        for record in result.records:
            _, consistent, _ = record.sample
            if not consistent:
                continue
            checked += 1
            assert np.any(
                np.all(np.isclose(states, record.view, atol=1e-9), axis=1)
            ), "a consistent scan returned a view matching no memory state"
        assert checked > 0

    def test_costs_more_steps_than_lock_free(self):
        objective = IsotropicQuadratic(dim=3, noise=GaussianNoise(0.3))
        x0 = np.full(3, 2.0)
        snapshot = run_snapshot_sgd(
            objective, RandomScheduler(seed=3), num_threads=4,
            step_size=0.05, iterations=100, x0=x0, seed=3,
        )
        lock_free = run_lock_free_sgd(
            objective, RandomScheduler(seed=3), num_threads=4,
            step_size=0.05, iterations=100, x0=x0, seed=3,
        )
        assert snapshot.sim_steps > 1.5 * lock_free.sim_steps

    def test_scan_retries_grow_with_contention(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))
        x0 = np.array([2.0, -2.0])
        retries = []
        for n in (1, 6):
            result = run_snapshot_sgd(
                objective, RandomScheduler(seed=4), num_threads=n,
                step_size=0.05, iterations=120, x0=x0, seed=4,
            )
            retries.append(result.extras["scan_retries"])
        assert retries[0] == 0
        assert retries[1] > 0

    def test_validation(self, memory):
        from repro.shm.counter import AtomicCounter

        objective = IsotropicQuadratic(dim=2)
        model = VersionedArray(memory, 2)
        counter = AtomicCounter.allocate(memory)
        with pytest.raises(ConfigurationError):
            SnapshotSGDProgram(model, counter, objective, 0.0, 10)
        with pytest.raises(ConfigurationError):
            run_snapshot_sgd(objective, RandomScheduler(), 0, 0.1, 10)


class TestAveragedSGD:
    def test_bound_formula(self):
        assert classic_average_bound(2.0, 8.0, 99) == pytest.approx(
            2 * 8.0 / (2.0 * 100)
        )

    def test_average_makes_substantial_progress(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(1.0))
        x0 = np.array([3.0, -3.0])
        initial_subopt = objective.suboptimality(x0)
        average_subopt = []
        for seed in range(8):
            result = run_averaged_sgd(objective, 400, x0=x0, seed=seed)
            average_subopt.append(result.average_suboptimality)
        # The averaged iterate lands far below the start and within the
        # same order as the last iterate (both are O(1/T) here).
        assert np.mean(average_subopt) < 0.05 * initial_subopt

    def test_measured_suboptimality_under_bound(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.5))
        x0 = np.array([2.0, -2.0])
        iterations = 300
        radius = 2.0 * objective.distance_to_opt(x0)
        bound = classic_average_bound(
            objective.strong_convexity,
            objective.second_moment_bound(radius),
            iterations,
        )
        measured = np.mean(
            [
                run_averaged_sgd(objective, iterations, x0=x0, seed=s)
                .average_suboptimality
                for s in range(10)
            ]
        )
        assert measured <= bound

    def test_bound_decays_linearly(self):
        b1 = classic_average_bound(1.0, 10.0, 100)
        b2 = classic_average_bound(1.0, 10.0, 201)
        assert b2 == pytest.approx(b1 / 2)

    def test_validation(self):
        objective = IsotropicQuadratic(dim=1)
        with pytest.raises(ConfigurationError):
            run_averaged_sgd(objective, 0)
        with pytest.raises(ConfigurationError):
            classic_average_bound(0.0, 1.0, 10)
