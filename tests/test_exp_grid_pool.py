"""Tests for the grid-long worker pool (``EnsemblePool``): each of the
five grid engines builds one executor per grid with report bytes equal
to a serial run, a pool that breaks in one cell is replaced for the
next, a fully journaled resume forks no worker, and long-lived workers
do not accumulate the simulators their chunks leave behind."""

import functools
import gc
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.presets import run_sanitize, sanitize_presets
from repro.durable.journal import RunJournal
from repro.experiments import ensemble
from repro.experiments.e13_algorithm_zoo import (
    ZooConfig,
    ZooWorkload,
    _zoo_worker,
    run_zoo,
    zoo_fingerprint,
)
from repro.experiments.e14_resilience import (
    HealGridConfig,
    HealWorkload,
    run_heal_grid,
)
from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    FaultSpec,
    preset_specs,
    run_campaign,
)
from repro.faults.spec import ProbabilisticCrashSpec
from repro.runtime.simulator import Simulator
from repro.verify import VerifyConfig, VerifyScope, run_verify


def _zoo_config(jobs):
    return ZooConfig(
        algorithms=("hogwild", "locked"),
        adversaries=("round-robin", "stale-attack"),
        seeds=(100, 101),
        workload=ZooWorkload(iterations=40),
        jobs=jobs,
    )


def _zoo(jobs):
    return run_zoo(_zoo_config(jobs)).to_json()


def _chaos(jobs):
    config = CampaignConfig(
        specs=(
            preset_specs()["none"],
            FaultSpec("p", (ProbabilisticCrashSpec(rate=0.01, max_crashes=2),)),
        ),
        seeds=(1, 2),
        workload=ChaosWorkload(iterations=120),
        jobs=jobs,
    )
    return run_campaign(config).to_json()


def _sanitize(jobs):
    presets = sanitize_presets()
    grid = (presets["e1"], presets["e5"])
    return run_sanitize(grid, seeds=(1, 2), jobs=jobs).to_json()


def _heal(jobs):
    config = HealGridConfig(
        algorithms=("epoch-sgd",),
        plans=("none", "nan-poison"),
        seeds=(8000, 8001),
        workload=HealWorkload(iterations=200),
        jobs=jobs,
    )
    return run_heal_grid(config).to_json()


def _verify(jobs):
    config = VerifyConfig(
        variants=("epoch-sgd", "mutant-torn-counter"),
        seeds=(1, 2),
        scope=VerifyScope(threads=2, iterations=1),
        measure_full_tree=False,
        jobs=jobs,
    )
    return run_verify(config).to_json()


ENGINES = {
    "zoo": _zoo,
    "chaos": _chaos,
    "sanitize": _sanitize,
    "heal": _heal,
    "verify": _verify,
}


@pytest.fixture
def executors(monkeypatch):
    """Every executor the ensemble layer builds, in order; each is the
    real one, counting the chunks handed to it and the workers it had
    forked when shut down."""
    built = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submits = 0
            self.forked = None
            built.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.submits += 1
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            if self.forked is None:
                self.forked = len(self._processes or {})
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Counting)
    return built


class TestOnePoolPerGrid:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_executor_per_grid_and_serial_bytes(self, engine, executors):
        run = ENGINES[engine]
        serial = run(1)
        assert executors == []  # --jobs 1 never builds a pool
        assert run(2) == serial
        assert len(executors) == 1
        (pool,) = executors
        assert pool.submits >= 2  # it ran the grid's chunks...
        assert 0 < pool.forked <= 2  # ...on min(jobs, chunks of one cell)

    def test_broken_pool_in_one_cell_is_replaced_for_the_next(self, monkeypatch):
        broken_cell = ("hogwild", "stale-attack")
        next_cell = ("locked", "round-robin")
        built = []

        class BreakOnce(ProcessPoolExecutor):
            """Kills its workers right after the first chunk of
            ``broken_cell`` is handed to the first pool."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.cells = set()
                built.append(self)

            def submit(self, fn, payload):
                cell = payload[0].args[1:3]
                self.cells.add(cell)
                future = super().submit(fn, payload)
                if self is built[0] and cell == broken_cell:
                    for process in list(self._processes.values()):
                        process.kill()
                return future

        serial = _zoo(1)
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", BreakOnce)
        assert _zoo(2) == serial
        assert len(built) == 2
        first, fresh = built
        assert broken_cell in first.cells and next_cell not in first.cells
        assert next_cell in fresh.cells

    def test_fully_journaled_resume_forks_no_worker(self, tmp_path, executors):
        config = _zoo_config(2)
        path = tmp_path / "zoo.journal"
        journal = RunJournal.open(path, zoo_fingerprint(config))
        first = run_zoo(config, journal=journal).to_json()
        journal.close()
        assert [pool.submits > 0 for pool in executors] == [True]
        executors.clear()
        resumed = RunJournal.open(path, zoo_fingerprint(config), resume=True)
        again = run_zoo(config, journal=resumed).to_json()
        resumed.close()
        assert again == first
        # Built at grid entry, never handed a chunk, so never forked.
        assert [(pool.submits, pool.forked) for pool in executors] == [(0, 0)]


def _leftover_simulators(run_one, seeds, collect):
    """Run ``seeds`` with automatic collection off, then count the
    simulators a full collection finds unreachable."""
    gc.disable()
    try:
        if collect:
            ensemble._run_chunk((run_one, seeds, None))
        else:
            for seed in seeds:
                run_one(seed)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return sum(isinstance(obj, Simulator) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()


class TestWorkerHeap:
    def _in_worker(self, fn, *args):
        with ensemble.EnsemblePool(2, 2) as pool:
            return pool.executor().submit(fn, *args).result()

    def test_pooled_chunk_leaves_no_unreachable_simulator(self):
        run_one = functools.partial(
            _zoo_worker, _zoo_config(2), "locked", "stale-attack"
        )
        seeds = [100, 101]
        # Each seed's simulator graph is cyclic garbage...
        assert self._in_worker(_leftover_simulators, run_one, seeds, False) == 2
        # ...which the chunk runner collects before returning.
        assert self._in_worker(_leftover_simulators, run_one, seeds, True) == 0

    def test_workers_freeze_the_inherited_heap(self):
        assert self._in_worker(gc.get_freeze_count) > 0
