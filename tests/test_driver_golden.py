"""Byte pins for every SGD run driver.

Each case runs one driver on a tiny seeded workload and pins one sha256
over what the run produced:

* the result fields — the final model's bytes, each record's
  ``(index, thread_id, order_time)``, the distance trajectory, step and
  iteration counts per thread, the hitting time, and the variant
  counters (``extras``, snapshot scan counters) or the ``FullSGDResult``
  fields;
* the sanitizer findings and the published metrics snapshot, where the
  case attaches them;
* every span a :class:`~repro.obs.causal.CausalRecorder` on a fake
  clock records: name, args, parent and fake start/end times.

The drivers are ``run_lock_free_sgd``, ``run_algorithm`` for each
registered algorithm, ``run_snapshot_sgd`` and ``FullSGD.run``; the
last group pins the state digest of a ``build_zoo_simulation``
simulation.  A refactor of the drivers must leave every pin unchanged.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.core.algorithm import (
    algorithm_names,
    build_zoo_simulation,
    get_algorithm,
    run_algorithm,
)
from repro.core.epoch_sgd import run_lock_free_sgd
from repro.core.full_sgd import FullSGD
from repro.core.locked import LockedSGDProgram
from repro.core.snapshot_sgd import run_snapshot_sgd
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.obs.registry import MetricsRegistry
from repro.obs.causal import CausalRecorder, install_causal_recorder, read_spill
from repro.sched.crash import CrashPlan, CrashScheduler
from repro.sched.random_sched import RandomScheduler
from repro.shm.register import AtomicRegister

X0 = np.array([2.0, -2.0])
THREADS = 3
STEP = 0.05


def _objective():
    return IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))


def _canon(value):
    """A JSON-ready form of ``value`` that keeps every float bit."""
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value, dtype=np.float64).tobytes().hex()
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(_canon(payload)).encode()).hexdigest()


@pytest.fixture
def spans(tmp_path):
    """A causal recorder on a fake clock (one tick per reading)."""
    recorder = CausalRecorder(
        tmp_path / "driver.spans.jsonl",
        role="test",
        trace_id="driver",
        clock=itertools.count().__next__,
    )
    install_causal_recorder(recorder)
    try:
        yield recorder
    finally:
        install_causal_recorder(None)
        recorder.close()


def _span_fields(recorder):
    """``(name, parent ordinal, start, end, args)`` per span, in start
    order; ordinals count spans from 1 in that order."""
    records = sorted(read_spill(recorder.path), key=lambda r: r["t0"])
    ordinal = {r["span"]: index for index, r in enumerate(records, 1)}
    return [
        (
            r["name"],
            ordinal.get(r.get("parent")),
            int(r["t0"]),
            int(r["t1"]),
            r.get("args", {}),
        )
        for r in records
    ]


def _run_fields(result):
    """The fields every ``LockFreeRunResult`` pin covers."""
    return {
        "x_final": result.x_final,
        "records": [(r.index, r.thread_id, r.order_time) for r in result.records],
        "distances": result.distances,
        "sim_steps": result.sim_steps,
        "thread_steps": result.thread_steps,
        "thread_iterations": result.thread_iterations,
        "hit_time": result.hit_time,
    }


def _findings(analyzer):
    return [(f.rule, f.message) for f in analyzer.findings]


# ----------------------------------------------------------------------
# run_lock_free_sgd
# ----------------------------------------------------------------------
LOCK_FREE_PINS = {
    "plain": (
        "04f7de1ac25b8319348814fc7d8df0d298ec6c8df09e665f6ab3fd37a0931d7b"
    ),
    "locked-factory": (
        "19780c9c81a90dcfb28240a634c96723f1c16ce5720f2899c712fde1f79dcacd"
    ),
    "stop-epsilon": (
        "5066ec41364d622226c22015982ee66a5496139ded128f57c7c965e7dc06067e"
    ),
    "crash-sanitizer": (
        "285d6f03d0512eb83f6fc8060ea4060132c83d67728adb4800e72bc1a5c89cd0"
    ),
}


def _locked_factory(objective, iterations):
    lock = {}

    def factory(model, counter, thread_index):
        if not lock:
            memory = model.memory
            lock["register"] = AtomicRegister(
                memory, memory.allocate(1, name="lock")
            )
        return LockedSGDProgram(
            model=model,
            counter=counter,
            lock=lock["register"],
            objective=objective,
            step_size=STEP,
            max_iterations=iterations,
        )

    return factory


def _lock_free_case(case):
    objective = _objective()
    kwargs = dict(num_threads=THREADS, step_size=STEP, iterations=40, x0=X0)
    extra = {}
    if case == "plain":
        registry = MetricsRegistry()
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=1), seed=1, epsilon=0.5,
            metrics=registry, **kwargs,
        )
        extra["metrics"] = registry.snapshot()
    elif case == "locked-factory":
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=2), seed=2, epsilon=0.5,
            program_factory=_locked_factory(objective, 40), **kwargs,
        )
    elif case == "stop-epsilon":
        result = run_lock_free_sgd(
            objective, RandomScheduler(seed=3), seed=3, epsilon=1.0,
            stop_epsilon=1.0, **kwargs,
        )
    else:
        sanitizer = RaceStalenessSanitizer()
        scheduler = CrashScheduler(
            RandomScheduler(seed=4), [CrashPlan(thread_id=0, after_steps=8)]
        )
        result = run_lock_free_sgd(
            objective, scheduler, seed=4, analyzers=(sanitizer,), **kwargs
        )
        extra["findings"] = _findings(sanitizer)
    return result, extra


@pytest.mark.parametrize("case", sorted(LOCK_FREE_PINS))
def test_run_lock_free_sgd_is_pinned(case, spans):
    result, extra = _lock_free_case(case)
    digest = _sha([_run_fields(result), extra, _span_fields(spans)])
    assert digest == LOCK_FREE_PINS[case]


def test_crash_finding_names_the_worker_thread():
    _result, extra = _lock_free_case("crash-sanitizer")
    assert any("(worker-0)" in message for _rule, message in extra["findings"])


def test_stop_epsilon_ends_the_run_early():
    result, _extra = _lock_free_case("stop-epsilon")
    assert result.iterations < 40
    gap = result.x_final - _objective().x_star
    assert float(gap @ gap) <= 1.0


# ----------------------------------------------------------------------
# run_algorithm over the registry
# ----------------------------------------------------------------------
ZOO_PINS = {
    "epoch-sgd": (
        "fef38df013f07b19c6a9a55a165c7868fc7776901985e40fba2fb762c48138d7"
    ),
    "full-sgd": (
        "dad157aab9ddbf3f3a39e9e80daa1b559d11dad404a9f77eeb255aa2dbce8644"
    ),
    "hogwild": (
        "172356d9335616912060ebd3a8dcc8f88ca877ff4f61cab517034f0cc48ac28a"
    ),
    "leashed": (
        "1348109ae0bc4487c47b63e7eff4b7c4caf791036ce581bed1df858befb270b3"
    ),
    "locked": (
        "739c76df2730746261ef407e9fb6a6352b940ea7673e310373c23e31ff1c8b75"
    ),
    "momentum": (
        "c10c545ec64915cbb40ef63e1e06accacc33210c2171e6c981a8dd3a0789096b"
    ),
    "staleness-aware": (
        "ba728a1272d712f5f04e09f6e8209feb88a27b1c91a11da2bd6333a8570a868a"
    ),
}


def test_zoo_pins_cover_the_registry():
    assert tuple(sorted(ZOO_PINS)) == algorithm_names()


@pytest.mark.parametrize("name", sorted(ZOO_PINS))
def test_run_algorithm_is_pinned(name, spans):
    registry = MetricsRegistry()
    result = run_algorithm(
        get_algorithm(name),
        _objective(),
        RandomScheduler(seed=5),
        num_threads=THREADS,
        step_size=STEP,
        iterations=30,
        x0=X0,
        seed=5,
        epsilon=0.5,
        metrics=registry,
    )
    metrics = registry.snapshot()
    # Left out: test_metrics_count_the_spawned_threads pins this count.
    del metrics["repro_sim_threads_spawned_total"]
    digest = _sha(
        [_run_fields(result), result.extras, metrics, _span_fields(spans)]
    )
    assert digest == ZOO_PINS[name]


# ----------------------------------------------------------------------
# run_snapshot_sgd
# ----------------------------------------------------------------------
SNAPSHOT_PIN = (
    "e2dee77fba7e82c317e5850a251cc7f5c3f46489d8361c4737261cb88ff58099"
)


def test_run_snapshot_sgd_is_pinned(spans):
    result = run_snapshot_sgd(
        _objective(),
        RandomScheduler(seed=6),
        num_threads=THREADS,
        step_size=STEP,
        iterations=30,
        x0=X0,
        seed=6,
        epsilon=0.5,
    )
    assert sorted(result.extras) == ["inconsistent_fallbacks", "scan_retries"]
    assert result.extras["scan_retries"] > 0
    digest = _sha([_run_fields(result), result.extras, _span_fields(spans)])
    assert digest == SNAPSHOT_PIN


# ----------------------------------------------------------------------
# FullSGD.run
# ----------------------------------------------------------------------
FULL_SGD_PINS = {
    "plain": (
        "8943d702169709121e8dcf9020d5084b1dc0cb0c0f5365c0a0b573344d6d557e"
    ),
    "sanitizer": (
        "8fb32b3e63bec233c898570595abaddba156e0c3bc57182f193faa41d00cf633"
    ),
    "checkpoint": (
        "f7ac2fb39c7226c5f73f1ae4bc17325cf20a41f35fe7c49b653eeb7242928389"
    ),
}


def _full_sgd_fields(result):
    return {
        "r": result.r,
        "x0": result.x0,
        "distance": result.distance,
        "epsilon": result.epsilon,
        "num_epochs": result.num_epochs,
        "step_sizes": result.step_sizes,
        "records": [
            (r.index, r.thread_id, r.order_time, r.epoch) for r in result.records
        ],
        "distances": result.distances,
        "rejected_updates": result.rejected_updates,
        "accumulators": result.accumulators,
        "sim_steps": result.sim_steps,
    }


@pytest.mark.parametrize("case", sorted(FULL_SGD_PINS))
def test_full_sgd_is_pinned(case, spans):
    driver = FullSGD(
        _objective(),
        num_threads=THREADS,
        epsilon=0.25,
        alpha0=STEP,
        iterations_per_epoch=20,
        num_epochs=3,
        x0=X0,
    )
    extra = {}
    if case == "plain":
        registry = MetricsRegistry()
        result = driver.run(RandomScheduler(seed=7), seed=7, metrics=registry)
        extra["metrics"] = registry.snapshot()
    elif case == "sanitizer":
        sanitizer = RaceStalenessSanitizer()
        result = driver.run(
            RandomScheduler(seed=7), seed=7, analyzers=(sanitizer,)
        )
        extra["findings"] = _findings(sanitizer)
    else:
        checkpoints = []

        def hook(epoch, checkpoint):
            checkpoints.append(
                (
                    epoch,
                    checkpoint.label,
                    checkpoint.digest(),
                    hashlib.sha256(checkpoint.to_json().encode()).hexdigest(),
                )
            )

        result = driver.run(
            RandomScheduler(seed=7),
            seed=7,
            checkpoint_hook=hook,
            checkpoint_chunk=16,
        )
        assert [c[0] for c in checkpoints] == [1, 2]
        extra["checkpoints"] = checkpoints
    digest = _sha([_full_sgd_fields(result), extra, _span_fields(spans)])
    assert digest == FULL_SGD_PINS[case]


# ----------------------------------------------------------------------
# build_zoo_simulation
# ----------------------------------------------------------------------
SIMULATION_PINS = {
    "epoch-sgd": (
        "1616c6c3a9d802585826dffda014e9aed6f0ad6e65ef03776f6d96a4c7afea59"
    ),
    "full-sgd": (
        "8ad20f04d8bb7eb5b672e162d778398aff52c209ba5c954e3c280fd2e3127244"
    ),
    "hogwild": (
        "bc57827d8bebb87527b78a406e2fa41b8730a131510294897fe8494127de2c7d"
    ),
    "leashed": (
        "0e3ae7226052741087d1fd691c57d5872551472a7734f92b6164ce7dd21c1361"
    ),
    "locked": (
        "1c90190cd57386d61b706dd78453edfb2ed2ba57f4fe97fa7860dcb7e17d0bb5"
    ),
    "momentum": (
        "d6ddca5ab18e682db398c9acc8cc7eb66bcda54e5efaa637c425b387ce9c61bc"
    ),
    "staleness-aware": (
        "4de5ec4eae9da14cfab4c019b73864a171b1e664920558ebfd81e76902fe91fb"
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATION_PINS))
def test_built_simulation_state_is_pinned(name):
    sim, model, initial = build_zoo_simulation(
        get_algorithm(name),
        _objective(),
        RandomScheduler(seed=8),
        num_threads=THREADS,
        step_size=STEP,
        iterations=24,
        x0=X0,
        seed=8,
    )
    assert [t.name for t in sim.threads] == [
        f"{name}-worker-{i}" for i in range(THREADS)
    ]
    assert np.array_equal(initial, X0)
    sim.run_fast()
    digest = _sha([sim.state_digest(), model.snapshot()])
    assert digest == SIMULATION_PINS[name]
