"""The one SGD iteration loop every lock-free variant runs.

* every registered algorithm runs exactly its budget T of iterations;
* every program class rejects a bad step size, budget or model length
  when built;
* per-run state never lives on a program object: one object spawned
  on two threads, or rerun by a crash respawn, behaves exactly like
  separate objects.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.algorithm import (
    Algorithm,
    algorithm_names,
    build_zoo_simulation,
    get_algorithm,
    run_algorithm,
)
from repro.core.epoch_sgd import EpochSGDProgram
from repro.core.full_sgd import FullSGDAlgorithm, FullSGDThreadProgram
from repro.core.hogwild import HogwildProgram
from repro.core.leashed import LeashedSGDProgram
from repro.core.locked import LockedSGDProgram
from repro.core.momentum import MomentumSGDProgram
from repro.core.schedules import EpochHalvingRate
from repro.core.snapshot_sgd import SnapshotSGDAlgorithm, SnapshotSGDProgram
from repro.core.staleness_aware import StalenessAwareSGDProgram
from repro.errors import ConfigurationError
from repro.faults.recovery import Respawner
from repro.faults.spec import AdaptiveCrashSpec, FaultSpec
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.registry import build_scheduler
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory
from repro.shm.register import AtomicRegister
from repro.shm.versioned import VersionedArray
from repro.verify.mutants import TornCounterProgram


def _objective(dim=2):
    return IsotropicQuadratic(dim=dim, noise=GaussianNoise(0.3))


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", range(8))
@pytest.mark.parametrize("name", algorithm_names())
def test_every_algorithm_runs_its_budget(name, budget):
    result = run_algorithm(
        get_algorithm(name),
        _objective(),
        build_scheduler("round-robin"),
        num_threads=2,
        step_size=0.05,
        iterations=budget,
    )
    assert len(result.records) == budget
    assert sorted(r.index for r in result.records) == list(range(budget))
    assert sum(result.thread_iterations.values()) == budget


@pytest.mark.parametrize("num_epochs", [2, 3])
@pytest.mark.parametrize("budget", range(8))
def test_full_sgd_epochs_split_the_budget(num_epochs, budget):
    """The first ``T mod num_epochs`` epochs run one iteration more."""
    result = run_algorithm(
        FullSGDAlgorithm(num_epochs=num_epochs),
        _objective(),
        build_scheduler("round-robin"),
        num_threads=2,
        step_size=0.05,
        iterations=budget,
    )
    shortest, longer = divmod(budget, num_epochs)
    expected = [
        epoch
        for epoch in range(num_epochs)
        for _ in range(shortest + (epoch < longer))
    ]
    by_index = sorted(result.records, key=lambda r: r.index)
    assert [r.epoch for r in by_index] == expected
    assert [r.step_size for r in by_index] == [0.05 / 2.0**e for e in expected]


# ----------------------------------------------------------------------
# Constructor checks
# ----------------------------------------------------------------------
def _epoch(model, counter, objective, step, budget):
    return EpochSGDProgram(model, counter, objective, step, budget)


def _hogwild(model, counter, objective, step, budget):
    return HogwildProgram(model, counter, objective, step, budget)


def _momentum(model, counter, objective, step, budget):
    return MomentumSGDProgram(model, counter, objective, step, 0.5, budget)


def _staleness(model, counter, objective, step, budget):
    return StalenessAwareSGDProgram(model, counter, objective, step, budget)


def _leashed(model, counter, objective, step, budget):
    return LeashedSGDProgram(model, counter, objective, step, budget)


def _locked(model, counter, objective, step, budget):
    lock = AtomicRegister(model.memory, model.memory.allocate(1))
    return LockedSGDProgram(model, counter, lock, objective, step, budget)


def _snapshot(model, counter, objective, step, budget):
    versioned = VersionedArray.over(model)
    return SnapshotSGDProgram(versioned, counter, objective, step, budget)


def _full(model, counter, objective, step, budget):
    register = AtomicRegister(model.memory, model.memory.allocate(1))
    return FullSGDThreadProgram(
        model, counter, register, objective, EpochHalvingRate(step), 1, 2,
        max_iterations=budget,
    )


def _torn(model, counter, objective, step, budget):
    return TornCounterProgram(model, counter, objective, step, budget)


PROGRAMS = {
    "epoch-sgd": _epoch,
    "hogwild": _hogwild,
    "momentum": _momentum,
    "staleness-aware": _staleness,
    "leashed": _leashed,
    "locked": _locked,
    "snapshot": _snapshot,
    "full-sgd": _full,
    "torn-counter": _torn,
}


def _build(make, model_length=2, step=0.05, budget=10):
    memory = SharedMemory()
    model = AtomicArray.allocate(memory, model_length, name="model")
    counter = AtomicCounter.allocate(memory)
    return make(model, counter, _objective(), step, budget)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestConstructorChecks:
    def test_valid_arguments_build(self, name):
        assert _build(PROGRAMS[name]).max_iterations == 10

    def test_rejects_a_wrong_model_length(self, name):
        with pytest.raises(ConfigurationError, match="objective.dim"):
            _build(PROGRAMS[name], model_length=3)

    def test_rejects_a_negative_budget(self, name):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            _build(PROGRAMS[name], budget=-1)

    def test_rejects_a_non_positive_step(self, name):
        # Algorithm 2's schedule rejects its own α₀ first.
        with pytest.raises(ConfigurationError, match="must be > 0"):
            _build(PROGRAMS[name], step=0.0)


# ----------------------------------------------------------------------
# Shared and respawned programs
# ----------------------------------------------------------------------
class _Shared(Algorithm):
    """``inner``'s programs, with thread 0's object run by every thread
    (``shared``) or each thread's own (not ``shared``)."""

    def __init__(self, inner: Algorithm, shared: bool) -> None:
        self.inner = inner
        self.shared = shared

    def build(self, setup):
        programs = self.inner.build(setup)
        return [programs[0]] * len(programs) if self.shared else programs


class _WithSpare(Algorithm):
    """``inner``'s programs plus one more on the same shared state,
    kept in :attr:`spare` for a respawn."""

    def __init__(self, inner: Algorithm) -> None:
        self.inner = inner
        self.spare = None

    def build(self, setup):
        programs = self.inner.build(
            dataclasses.replace(setup, num_threads=setup.num_threads + 1)
        )
        self.spare = programs.pop()
        return programs


VARIANTS = {name: (lambda n=name: get_algorithm(n)) for name in algorithm_names()}
VARIANTS["snapshot"] = SnapshotSGDAlgorithm


def _observed(sim):
    """Every record field and every thread result, arrays as bytes."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(plain(v) for v in value)
        return value

    records = [
        {f.name: plain(getattr(event, f.name)) for f in dataclasses.fields(event)}
        for event in sim.trace
        if type(event).__name__ == "IterationRecord"
    ]
    return records, plain(sim.results()), sim.now


def _run(algorithm, seed, crash=None, factory=None):
    scheduler = build_scheduler("random", seed=seed)
    if crash is not None:
        scheduler = crash.build(scheduler, seed=seed, num_threads=3)
    sim, _model, _x0 = build_zoo_simulation(
        algorithm,
        _objective(),
        scheduler,
        num_threads=3,
        step_size=0.05,
        iterations=40,
        x0=np.array([2.0, -2.0]),
        seed=seed,
    )
    if factory is None:
        sim.run_fast()
    else:
        sim.attach_analyzer(Respawner(factory(algorithm)))
        sim.run_analyzed(chunk=8)
    return _observed(sim)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_one_program_object_can_run_on_every_thread(name):
    shared = _run(_Shared(VARIANTS[name](), shared=True), seed=3)
    separate = _run(_Shared(VARIANTS[name](), shared=False), seed=3)
    assert shared == separate


#: Crash thread 0 between iterations (a locked thread holds no lock
#: then), once it has run a few.
_CRASH = FaultSpec(
    "between-iterations",
    (AdaptiveCrashSpec(phase="start", victims=(0,), after_time=60),),
)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_a_respawn_reruns_its_program_like_a_fresh_one(name):
    rerun = _run(
        _WithSpare(VARIANTS[name]()), seed=5, crash=_CRASH,
        factory=lambda algorithm: (lambda crashed: crashed.program),
    )
    fresh = _run(
        _WithSpare(VARIANTS[name]()), seed=5, crash=_CRASH,
        factory=lambda algorithm: (lambda crashed: algorithm.spare),
    )
    assert rerun == fresh
    _records, results, _steps = rerun
    assert sorted(results) == [1, 2, 3]  # thread 0 crashed, 3 replaced it
