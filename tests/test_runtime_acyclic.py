"""A finished run's object graph holds no reference cycle.

A thread's context keeps the simulator's clock and trace, never the
simulator itself, so nothing reachable from a simulator points back at
it: reference counting frees each run the moment its last reference
goes, and no run waits for the cyclic garbage collector.  Each case
below runs with automatic collection off, then collects by hand under
``gc.DEBUG_SAVEALL`` (which keeps everything a collection frees in
``gc.garbage``) and asserts that no ``Simulator`` was among it.
"""

import gc

import numpy as np
import pytest

from repro.core.algorithm import algorithm_names, get_algorithm, simulate
from repro.core.full_sgd import FullSGD
from repro.experiments.e13_algorithm_zoo import ZooConfig, ZooWorkload, _zoo_worker
from repro.experiments.e14_resilience import (
    HealGridConfig,
    HealWorkload,
    _heal_worker,
)
from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    FaultSpec,
    _chaos_worker,
)
from repro.faults.spec import ProbabilisticCrashSpec
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.simulator import Simulator
from repro.sched.random_sched import RandomScheduler
from repro.sched.registry import build_scheduler
from repro.verify import VerifyConfig, VerifyScope
from repro.verify.engine import _verify_worker


def _cyclic_simulators(run):
    """Call ``run()`` with automatic collection off; return the number
    of simulators a full collection then finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return sum(isinstance(obj, Simulator) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()


def _objective():
    return IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))


@pytest.mark.parametrize("name", algorithm_names())
def test_sanitized_zoo_cell(name):
    config = ZooConfig(
        algorithms=(name,),
        adversaries=("stale-attack",),
        seeds=(1,),
        workload=ZooWorkload(iterations=40),
    )
    outcome = []
    assert _cyclic_simulators(
        lambda: outcome.append(_zoo_worker(config, name, "stale-attack", 1))
    ) == 0
    assert outcome[0].steps > 0


def test_early_stop_run():
    results = []

    def run():
        result, _sim = simulate(
            get_algorithm("epoch-sgd"),
            _objective(),
            build_scheduler("bounded-delay", seed=3),
            num_threads=3,
            step_size=0.05,
            iterations=400,
            x0=np.full(2, 2.0),
            seed=3,
            stop_epsilon=1.0,
        )
        results.append(result)

    assert _cyclic_simulators(run) == 0
    assert len(results[0].records) < 400  # it did stop early


def test_chaos_cell_that_crashes_and_respawns():
    config = CampaignConfig(
        specs=(
            FaultSpec("p", (ProbabilisticCrashSpec(rate=0.01, max_crashes=2),)),
        ),
        seeds=(1,),
        workload=ChaosWorkload(iterations=120),
    )
    outcomes = []
    for seed in (1, 2, 3):
        assert _cyclic_simulators(
            lambda seed=seed: outcomes.append(_chaos_worker(config, 0, seed))
        ) == 0
    assert any(o.crashed > 0 and o.respawned == o.crashed for o in outcomes)


def test_checkpointed_full_sgd_run():
    cuts = []

    def run():
        FullSGD(
            _objective(),
            num_threads=2,
            epsilon=0.25,
            alpha0=0.05,
            iterations_per_epoch=40,
            num_epochs=3,
            x0=np.full(2, 2.0),
        ).run(
            RandomScheduler(seed=5),
            seed=5,
            checkpoint_hook=lambda epoch, cp: cuts.append(epoch),
            checkpoint_chunk=64,
        )

    assert _cyclic_simulators(run) == 0
    assert cuts == [1, 2]


def test_heal_cell():
    config = HealGridConfig(
        algorithms=("epoch-sgd",),
        plans=("nan-poison",),
        seeds=(8000,),
        workload=HealWorkload(iterations=200),
    )
    outcome = []
    assert _cyclic_simulators(
        lambda: outcome.append(_heal_worker(config, "epoch-sgd", "nan-poison", 8000))
    ) == 0
    assert outcome[0].rollbacks > 0


def test_verify_cell():
    config = VerifyConfig(
        variants=("epoch-sgd",),
        seeds=(1,),
        scope=VerifyScope(threads=2, iterations=1),
        measure_full_tree=False,
    )
    outcome = []
    assert _cyclic_simulators(
        lambda: outcome.append(_verify_worker(config, "epoch-sgd", 1))
    ) == 0
    assert outcome[0].schedules > 0
