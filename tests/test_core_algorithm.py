"""Tests for the Algorithm interface, its registry and the unified driver.

Pins the zoo contract: the registry holds exactly the built-in variants,
every variant completes under every panel adversary, the fidelity modes
(``run`` vs ``run_fast``) land on identical machine states, and the
variant-specific counters surface through ``result.extras``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import (
    LEMMAS,
    Algorithm,
    algorithm_names,
    algorithm_registry,
    build_zoo_simulation,
    get_algorithm,
    register_algorithm,
    run_algorithm,
    simulate,
    within_radius,
)
from repro.core.epoch_sgd import LockFreeSGD, run_lock_free_sgd
from repro.core.full_sgd import FullSGD
from repro.core.snapshot_sgd import run_snapshot_sgd
from repro.durable.checkpoint import state_digest
from repro.errors import ConfigurationError
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.obs.registry import MetricsRegistry
from repro.runtime.policy import TraceConfig
from repro.sched.bounded_delay import BoundedDelayScheduler
from repro.sched.registry import build_scheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.shm.array import AtomicArray
from repro.shm.memory import SharedMemory
from repro.shm.ops import FetchAdd, Read

EXPECTED_NAMES = (
    "epoch-sgd",
    "full-sgd",
    "hogwild",
    "leashed",
    "locked",
    "momentum",
    "staleness-aware",
)

PANEL_ADVERSARIES = (
    "round-robin",
    "random",
    "bounded-delay",
    "stale-attack",
    "contention-max",
)


def _objective(dim=2):
    return IsotropicQuadratic(dim=dim, noise=GaussianNoise(0.2))


class TestRegistry:
    def test_builtin_names(self):
        assert algorithm_names() == EXPECTED_NAMES

    def test_registry_returns_classes(self):
        registry = algorithm_registry()
        for name, cls in registry.items():
            assert cls.name == name
            assert issubclass(cls, Algorithm)
            assert cls.title

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            get_algorithm("nonexistent-sgd")

    def test_duplicate_name_rejected(self):
        class Duplicate(Algorithm):
            name = "hogwild"  # already taken by the built-in

            def build(self, setup):  # pragma: no cover - never called
                return []

        with pytest.raises(ConfigurationError, match="already registered"):
            register_algorithm(Duplicate)
        # The built-in registration is untouched.
        assert algorithm_registry()["hogwild"] is not Duplicate

    def test_empty_name_rejected(self):
        class Nameless(Algorithm):
            def build(self, setup):  # pragma: no cover - never called
                return []

        with pytest.raises(ConfigurationError, match="non-empty"):
            register_algorithm(Nameless)

    def test_unknown_lemma_rejected(self):
        class BadLemmas(Algorithm):
            name = "bad-lemmas-variant"
            lemmas = ("6.1", "9.9")

            def build(self, setup):  # pragma: no cover - never called
                return []

        with pytest.raises(ConfigurationError, match="unknown lemma"):
            register_algorithm(BadLemmas)
        # Rejected before insertion: the bad name never lands.
        assert "bad-lemmas-variant" not in algorithm_registry()

    def test_lemma_applicability(self):
        assert get_algorithm("locked").lemma_applicability() == {
            "6.1": True,
            "6.2": False,
            "6.4": False,
        }
        assert get_algorithm("leashed").lemma_applicability() == {
            "6.1": True,
            "6.2": False,
            "6.4": False,
        }
        for name in ("epoch-sgd", "hogwild", "momentum", "staleness-aware"):
            applicability = get_algorithm(name).lemma_applicability()
            assert applicability == {lemma: True for lemma in LEMMAS}


class TestUnifiedDriver:
    @pytest.mark.parametrize("adversary", PANEL_ADVERSARIES)
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_every_algorithm_under_every_adversary(self, name, adversary):
        iterations = 20
        result = run_algorithm(
            get_algorithm(name),
            _objective(),
            build_scheduler(adversary, seed=3),
            num_threads=3,
            step_size=0.05,
            iterations=iterations,
            x0=np.full(2, 2.0),
            seed=3,
        )
        assert len(result.records) == iterations
        assert sum(result.thread_iterations.values()) == iterations
        # The counter hands out unique, gap-free iteration indices.
        assert sorted(r.index for r in result.records) == list(
            range(iterations)
        )
        assert np.all(np.isfinite(result.x_final))

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_run_and_run_fast_land_on_identical_state(self, name):
        digests = []
        snapshots = []
        for mode in ("run", "run_fast"):
            sim, model, _x0 = build_zoo_simulation(
                get_algorithm(name),
                _objective(),
                RoundRobinScheduler(),
                num_threads=3,
                step_size=0.05,
                iterations=24,
                x0=np.full(2, 2.0),
                seed=5,
            )
            getattr(sim, mode)()
            digests.append(state_digest(sim))
            snapshots.append(model.snapshot())
        assert digests[0] == digests[1]
        assert np.array_equal(snapshots[0], snapshots[1])

    def test_locked_reports_spin_steps(self):
        result = run_algorithm(
            get_algorithm("locked"),
            _objective(),
            RoundRobinScheduler(),
            num_threads=4,
            step_size=0.05,
            iterations=40,
            x0=np.full(2, 2.0),
            seed=1,
        )
        assert result.extras["spin_steps"] > 0

    def test_leashed_reports_cas_failures_under_contention(self):
        result = run_algorithm(
            get_algorithm("leashed"),
            _objective(dim=1),
            RoundRobinScheduler(),
            num_threads=4,
            step_size=0.05,
            iterations=40,
            x0=np.full(1, 2.0),
            seed=1,
        )
        assert result.extras["cas_failures"] > 0

    def test_leashed_zero_retries_drops_components(self):
        result = run_algorithm(
            get_algorithm("leashed", max_cas_retries=0),
            _objective(dim=1),
            RoundRobinScheduler(),
            num_threads=4,
            step_size=0.05,
            iterations=40,
            x0=np.full(1, 2.0),
            seed=1,
        )
        assert result.extras["dropped_components"] > 0

    def test_build_count_mismatch_raises(self):
        class HalfBuilt(Algorithm):
            name = "half-built"

            def build(self, setup):
                inner = get_algorithm("hogwild").build(setup)
                return inner[:1]  # wrong: one program for many threads

        with pytest.raises(ConfigurationError, match="program"):
            build_zoo_simulation(
                HalfBuilt(),
                _objective(),
                RoundRobinScheduler(),
                num_threads=3,
                step_size=0.05,
                iterations=10,
            )

    def test_invalid_thread_count_raises(self):
        with pytest.raises(ConfigurationError, match="num_threads"):
            build_zoo_simulation(
                get_algorithm("hogwild"),
                _objective(),
                RoundRobinScheduler(),
                num_threads=0,
                step_size=0.05,
                iterations=10,
            )


class TestFastLoopEarlyStop:
    """``run_fast(stop=p)`` checks ``p`` only after steps that can write
    memory, and still stops at the step ``run(stop=p)`` stops at."""

    @staticmethod
    def _stopped(mode, name, adversary, seed, radius, trace_config=None):
        objective = _objective()
        sim, model, _x0 = build_zoo_simulation(
            get_algorithm(name),
            objective,
            build_scheduler(adversary, seed=seed),
            num_threads=3,
            step_size=0.05,
            iterations=200,
            x0=np.full(2, 2.0),
            seed=seed,
            trace_config=trace_config,
        )

        def reached(_sim):
            gap = model.snapshot() - objective.x_star
            return float(gap @ gap) <= radius

        executed = getattr(sim, mode)(stop=reached)
        return executed, sim

    @pytest.mark.parametrize("seed", (1, 2))
    @pytest.mark.parametrize("adversary", PANEL_ADVERSARIES)
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_run_fast_stops_where_run_stops(self, name, adversary, seed):
        slow_steps, slow = self._stopped("run", name, adversary, seed, 1.0)
        fast_steps, fast = self._stopped("run_fast", name, adversary, seed, 1.0)
        assert not slow.is_done  # the predicate ended the run, not quiescence
        assert (fast_steps, fast.now) == (slow_steps, slow.now)
        assert fast.state_digest() == slow.state_digest()

    @pytest.mark.parametrize("mode", ("run", "run_fast"))
    def test_a_predicate_true_at_the_start_runs_no_step(self, mode):
        executed, sim = self._stopped(mode, "hogwild", "random", 1, 100.0)
        assert (executed, sim.now) == (0, 0)

    def test_recorded_steps_fall_back_to_run(self):
        slow_steps, slow = self._stopped("run", "epoch-sgd", "random", 1, 1.0)
        fast_steps, fast = self._stopped(
            "run_fast", "epoch-sgd", "random", 1, 1.0,
            trace_config=TraceConfig(record_steps=True, record_log=False),
        )
        assert len(fast.steps) == fast.now == fast_steps == slow_steps
        assert fast.state_digest() == slow.state_digest()


def _snapshot_predicate(model, x_star, radius):
    """The snapshot test ``float(gap @ gap) <= radius``: the reference
    every ``within_radius`` decision must match."""

    def reached(_sim):
        gap = model.snapshot() - x_star
        return float(gap @ gap) <= radius

    return reached


def _e5_shaped(seed):
    """E5's lock-free setting: d = 2, 4 threads, a bounded-delay
    adversary starving thread 0."""
    return dict(
        objective=_objective(),
        scheduler=BoundedDelayScheduler(16, seed=seed, victims=[0], bias=0.9),
        num_threads=4,
        step_size=0.01,
        iterations=2000,
        x0=np.full(2, 1.5),
        seed=seed,
    )


def _near(value, ulps):
    """``value`` moved ``ulps`` representable floats up (or down)."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


_ENTRIES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-1e-150, max_value=1e-150),  # subnormal squares
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e154)),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestStopPredicate:
    """``within_radius`` decides every stop check exactly as the
    snapshot test does, though it builds no array outside the margin."""

    @given(
        data=st.data(),
        dim=st.integers(min_value=1, max_value=16),
        numpy_scalars=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_snapshot_test(self, data, dim, numpy_scalars):
        values = data.draw(st.lists(_ENTRIES, min_size=dim, max_size=dim))
        x_star = np.array(
            data.draw(
                st.one_of(
                    st.just([0.0] * dim),
                    st.lists(
                        st.floats(min_value=-4.0, max_value=4.0),
                        min_size=dim,
                        max_size=dim,
                    ),
                )
            )
        )
        model = self._model(values, numpy_scalars)
        with np.errstate(all="ignore"):
            gap = model.snapshot() - x_star
            exact = float(gap @ gap)
        radius = data.draw(
            st.one_of(
                st.sampled_from((0.0, -0.0, exact)),
                st.integers(min_value=-4, max_value=4).map(
                    lambda ulps: _near(exact, ulps)
                ),
                st.floats(max_value=0.0),
                st.floats(allow_nan=False),
            )
        )
        with np.errstate(all="ignore"):
            expected = _snapshot_predicate(model, x_star, radius)(None)
            assert within_radius(model, x_star, radius)(None) is expected

    def test_subnormal_sums_defer_to_the_snapshot_test(self):
        # Each square below 2.2e-308 is rounded to the subnormal grid,
        # so numpy's dot can read below math.dist's square (6.530e-321
        # against 6.536e-321 here): the 1e-300 floor keeps such a
        # model's stop decision with the snapshot test.
        model = self._model([4.875843565561751e-161, -6.44739112102704e-161])
        x_star = np.zeros(2)
        snapshot = model.snapshot()
        radius = float(snapshot @ snapshot)
        assert within_radius(model, x_star, radius)(None) is True

    @staticmethod
    def _model(values, numpy_scalars=False):
        memory = SharedMemory(record_log=False)
        model = AtomicArray.allocate(memory, len(values))
        for j, value in enumerate(values):
            # A run's model entries are numpy scalars (fetch&add sums).
            memory.poke(model.base + j, np.float64(value) if numpy_scalars else value)
        return model

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("radius", (0.05, 0.25, 1.0))
    def test_simulate_stops_where_the_snapshot_test_stops(self, radius, seed):
        setting = _e5_shaped(seed)
        _result, sim = simulate(LockFreeSGD(), **setting, stop_epsilon=radius)
        setting = _e5_shaped(seed)
        reference, model, _x0 = build_zoo_simulation(
            LockFreeSGD(), **setting, trace_config=TraceConfig(record_log=False)
        )
        reference.run_fast(
            stop=_snapshot_predicate(model, setting["objective"].x_star, radius)
        )
        assert not reference.is_done  # the radius ended the run
        assert sim.now == reference.now
        assert sim.state_digest() == reference.state_digest()


class TestFastLoopStepCost:
    """What Algorithm 1 pays per step on the fast loop, counted: the
    claim and the reads reuse one descriptor each, so an iteration
    builds only its d fetch&adds, and an early-stop check builds a
    snapshot only when the model is within the radius's margin."""

    def test_descriptors_and_snapshots_built(self, monkeypatch):
        built = []

        def counting(init):
            def wrapper(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            return wrapper

        for cls in (Read, FetchAdd):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        snapshots = []
        snapshot = AtomicArray.snapshot

        def recording(array):
            values = snapshot(array)
            snapshots.append(float(values @ values))  # x* is the origin
            return values

        monkeypatch.setattr(AtomicArray, "snapshot", recording)
        radius = 0.25
        result = run_lock_free_sgd(**_e5_shaped(seed=3), stop_epsilon=radius)
        iterations = len(result.records)
        assert result.x_final @ result.x_final <= radius  # the radius ended it
        assert iterations > 100
        # d = 2 fetch&adds per completed iteration; per thread, the
        # shared claim and reads plus an abandoned iteration's updates.
        assert len(built) <= 2 * iterations + (1 + 2 + 2) * 4
        assert snapshots
        assert all(gap <= radius * (1 + 1e-9) for gap in snapshots)


def _run_with(entry, iterations, x0):
    """One tiny run of ``entry`` (a registered algorithm name or a
    public run entry point) with the given budget and initial model."""
    objective = _objective()
    scheduler = RoundRobinScheduler()
    kwargs = dict(num_threads=2, step_size=0.05, iterations=iterations, x0=x0)
    if entry == "run_lock_free_sgd":
        return run_lock_free_sgd(objective, scheduler, **kwargs)
    if entry == "run_snapshot_sgd":
        return run_snapshot_sgd(objective, scheduler, **kwargs)
    if entry == "FullSGD":
        return FullSGD(
            objective, num_threads=2, epsilon=0.25, alpha0=0.05,
            iterations_per_epoch=iterations, num_epochs=2, x0=x0,
        ).run(scheduler)
    return run_algorithm(get_algorithm(entry), objective, scheduler, **kwargs)


ENTRIES = (*EXPECTED_NAMES, "run_lock_free_sgd", "run_snapshot_sgd", "FullSGD")


class TestRunValidation:
    """Every algorithm and run entry point rejects a bad budget or
    ``x0`` alike."""

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_negative_budget_raises(self, entry):
        with pytest.raises(ConfigurationError, match="iterations"):
            _run_with(entry, iterations=-3, x0=np.full(2, 2.0))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_wrong_length_x0_raises(self, entry):
        with pytest.raises(ConfigurationError, match="x0"):
            _run_with(entry, iterations=4, x0=np.full(3, 2.0))


@pytest.mark.parametrize("entry", ["epoch-sgd", "run_lock_free_sgd", "FullSGD"])
def test_metrics_count_the_spawned_threads(entry):
    """The registry is attached once ``build_zoo_simulation`` has
    spawned every thread; the spawn counter still counts them."""
    registry = MetricsRegistry()
    objective = _objective()
    if entry == "run_lock_free_sgd":
        run_lock_free_sgd(
            objective, RoundRobinScheduler(), num_threads=3, step_size=0.05,
            iterations=6, metrics=registry,
        )
    elif entry == "FullSGD":
        FullSGD(
            objective, num_threads=3, epsilon=0.25, alpha0=0.05,
            iterations_per_epoch=3, num_epochs=2,
        ).run(RoundRobinScheduler(), metrics=registry)
    else:
        run_algorithm(
            get_algorithm(entry), objective, RoundRobinScheduler(),
            num_threads=3, step_size=0.05, iterations=6, metrics=registry,
        )
    assert registry.snapshot()["repro_sim_threads_spawned_total"] == 3
