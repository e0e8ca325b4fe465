"""Integration tests across subsystems.

These exercise the full pipeline (objective -> programs -> simulator ->
scheduler -> records -> contention/convergence analysis) the way the
examples and benchmarks do.
"""


import numpy as np

from repro.core.algorithm import build_zoo_simulation, collect_iteration_records
from repro.core.epoch_sgd import LockFreeSGD, run_lock_free_sgd
from repro.core.full_sgd import FullSGD
from repro.objectives.datasets import make_regression
from repro.objectives.least_squares import LeastSquares
from repro.objectives.logistic import LogisticRegression
from repro.objectives.datasets import make_classification
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.objectives.sparse import SeparableQuadratic
from repro.runtime.policy import TraceConfig
from repro.sched.crash import CrashPlan, CrashScheduler
from repro.sched.random_sched import RandomScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.theory.bounds import corollary_6_7_failure_bound
from repro.theory.contention import tau_avg, tau_max


class TestWorkloads:
    def test_least_squares_lock_free_recovers_solution(self):
        design, targets, _ = make_regression(50, 3, noise_sigma=0.05, seed=1)
        objective = LeastSquares(design, targets)
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=2), num_threads=4,
            step_size=0.01, iterations=4000,
            x0=np.zeros(3), seed=2,
        )
        assert objective.distance_to_opt(result.x_final) < 0.4

    def test_logistic_lock_free_decreases_loss(self):
        design, labels, _ = make_classification(60, 3, seed=4)
        objective = LogisticRegression(design, labels, regularization=0.2)
        x0 = np.zeros(3)
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=5), num_threads=3,
            step_size=0.05, iterations=2000, x0=x0, seed=5,
        )
        assert objective.value(result.x_final) < objective.value(x0)
        assert objective.distance_to_opt(result.x_final) < 0.5

    def test_sparse_oracle_first_update_order_is_total(self):
        objective = SeparableQuadratic(np.ones(4))
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=6), num_threads=4,
            step_size=0.05, iterations=200, x0=np.ones(4), seed=6,
        )
        orders = [r.order_time for r in result.records]
        assert len(set(orders)) == len(orders)


class TestDeterminism:
    def test_identical_seeds_identical_everything(self, quadratic_noisy,
                                                  x0_small):
        def run_once():
            return run_lock_free_sgd(
                quadratic_noisy, RandomScheduler(seed=9), num_threads=4,
                step_size=0.05, iterations=150, x0=x0_small, seed=9,
            )

        a, b = run_once(), run_once()
        np.testing.assert_array_equal(a.x_final, b.x_final)
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.sim_steps == b.sim_steps
        assert [r.sample is not None for r in a.records] == [
            r.sample is not None for r in b.records
        ]

    def test_different_scheduler_seed_changes_interleaving(
        self, quadratic_noisy, x0_small
    ):
        a = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=1), num_threads=4,
            step_size=0.05, iterations=150, x0=x0_small, seed=9,
        )
        b = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=2), num_threads=4,
            step_size=0.05, iterations=150, x0=x0_small, seed=9,
        )
        assert not np.array_equal(a.x_final, b.x_final)


class TestCrashTolerance:
    def test_lock_free_progress_despite_crashes(self, quadratic_noisy,
                                                x0_small):
        """Algorithm 1 is lock-free: crash n-1 threads mid-update and the
        survivor still completes the whole iteration budget."""
        scheduler = CrashScheduler(
            RandomScheduler(seed=3),
            [
                CrashPlan(thread_id=1, after_steps=7),
                CrashPlan(thread_id=2, after_steps=11),
                CrashPlan(thread_id=3, after_steps=13),
            ],
        )
        result = run_lock_free_sgd(
            quadratic_noisy, scheduler, num_threads=4, step_size=0.05,
            iterations=120, x0=x0_small, seed=3, epsilon=0.25,
        )
        # The crashed threads abandoned claimed iterations, so fewer than
        # T complete, but the run must quiesce and still converge.
        assert result.iterations >= 120 - 3
        assert result.succeeded

    def test_crashed_mid_update_leaves_partial_but_valid_memory(
        self, quadratic_clean, x0_small, check_history
    ):
        """A thread crashed between component fetch&adds leaves a torn
        update — legal in the model; memory history stays consistent."""
        scheduler = CrashScheduler(
            RandomScheduler(seed=4), [CrashPlan(thread_id=0, after_steps=9)]
        )
        sim, model, _x0 = build_zoo_simulation(
            LockFreeSGD(), quadratic_clean, scheduler, num_threads=2,
            step_size=0.05, iterations=40, x0=x0_small, seed=4,
            trace_config=TraceConfig(),
        )
        sim.run_fast()
        assert sim.crashed_count == 1
        check_history(sim, model, x0_small)
        assert len(collect_iteration_records(sim)) <= 40


class TestAnalysisPipeline:
    def test_bound_inputs_from_measured_contention(self, quadratic_noisy,
                                                   x0_small):
        """The full Cor 6.7 workflow: run, measure tau_max, evaluate the
        bound, check the run is consistent with it."""
        epsilon = 0.3
        result = run_lock_free_sgd(
            quadratic_noisy, RandomScheduler(seed=11), num_threads=4,
            step_size=0.01, iterations=2500, x0=x0_small, seed=11,
            epsilon=epsilon,
        )
        measured_tau = tau_max(result.records)
        assert measured_tau >= 1
        assert tau_avg(result.records) <= 8  # 2n
        bound = corollary_6_7_failure_bound(
            iterations=2500,
            epsilon=epsilon,
            strong_convexity=quadratic_noisy.strong_convexity,
            second_moment=quadratic_noisy.second_moment_bound(
                2 * quadratic_noisy.distance_to_opt(x0_small)
            ),
            lipschitz=quadratic_noisy.lipschitz_expected,
            tau_max=measured_tau,
            num_threads=4,
            dim=2,
            x0_distance=quadratic_noisy.distance_to_opt(x0_small),
        )
        # Single run: it either hit (bound trivially consistent) or the
        # bound must be large enough to allow one failure.
        assert result.succeeded or bound > 0

    def test_memory_log_replay_of_full_run(
        self, quadratic_noisy, x0_small, check_history
    ):
        sim, model, _x0 = build_zoo_simulation(
            LockFreeSGD(), quadratic_noisy, RoundRobinScheduler(),
            num_threads=3, step_size=0.05, iterations=30, x0=x0_small,
            seed=12, trace_config=TraceConfig(),
        )
        sim.run_fast()
        check_history(sim, model, x0_small)
        assert len(collect_iteration_records(sim)) == 30

    def test_full_sgd_beats_algorithm1_final_accuracy(self):
        """At matched iteration budgets and alpha0, the halving schedule
        lands (much) closer to x* on a noisy problem."""
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.5))
        x0 = np.array([2.0, -2.0])
        driver = FullSGD(
            objective, num_threads=3, epsilon=0.01, alpha0=0.1,
            iterations_per_epoch=300, x0=x0,
        )
        budget = driver.num_epochs * 300

        def full_distance(seed):
            return driver.run(RandomScheduler(seed=seed), seed=seed).distance

        def flat_distance(seed):
            result = run_lock_free_sgd(
                objective, RandomScheduler(seed=seed), num_threads=3,
                step_size=0.1, iterations=budget, x0=x0, seed=seed,
            )
            return objective.distance_to_opt(result.x_final)

        full = np.mean([full_distance(s) for s in range(5)])
        flat = np.mean([flat_distance(s) for s in range(5)])
        assert full < flat
