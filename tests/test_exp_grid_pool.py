"""Tests for the grid-long worker pool (``EnsemblePool``): each of the
five grid engines builds one executor per grid with report bytes equal
to a serial run, a pool that breaks in one cell is replaced for the
next, a fully journaled resume forks no worker, long-lived workers do
not accumulate the simulators their chunks leave behind and exit when
the grid's process dies, and a grid hands the next cell's chunks to
workers that would go idle at a cell boundary without moving a byte."""

import dataclasses
import functools
import gc
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.experiments.e13_algorithm_zoo as e13
from repro.analysis.presets import run_sanitize, sanitize_presets
from repro.durable.journal import RunJournal
from repro.durable.signals import GracefulShutdown
from repro.errors import InterruptedRunError
from repro.experiments import ensemble
from repro.experiments.e13_algorithm_zoo import (
    ZOO_ADVERSARIES,
    ZooConfig,
    ZooWorkload,
    _zoo_worker,
    algorithm_names,
)
from repro.experiments.e14_resilience import (
    HealGridConfig,
    HealWorkload,
)
from repro.experiments.grid import get_campaign
from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    FaultSpec,
    preset_specs,
    run_campaign,
)
from repro.faults.spec import ProbabilisticCrashSpec
from repro.obs.registry import MetricsRegistry
from repro.runtime.simulator import Simulator
from repro.verify import VerifyConfig, VerifyScope


def _zoo_config(jobs, seeds=(100, 101)):
    return ZooConfig(
        algorithms=("hogwild", "locked"),
        adversaries=("round-robin", "stale-attack"),
        seeds=seeds,
        workload=ZooWorkload(iterations=40),
        jobs=jobs,
    )


def _zoo(jobs, seeds=(100, 101)):
    return get_campaign("zoo").run(_zoo_config(jobs, seeds)).to_json()


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
    return get_campaign("heal").run(config).to_json()


def _verify(jobs):
    config = VerifyConfig(
        variants=("epoch-sgd", "mutant-torn-counter"),
        seeds=(1, 2),
        scope=VerifyScope(threads=2, iterations=1),
        measure_full_tree=False,
        jobs=jobs,
    )
    return get_campaign("verify").run(config).to_json()


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
        zoo = get_campaign("zoo")
        config = _zoo_config(2)
        path = tmp_path / "zoo.journal"
        journal = RunJournal.open(path, zoo.fingerprint(config))
        first = zoo.run(config, journal=journal).to_json()
        journal.close()
        assert [pool.submits > 0 for pool in executors] == [True]
        executors.clear()
        resumed = RunJournal.open(path, zoo.fingerprint(config), resume=True)
        again = zoo.run(config, journal=resumed).to_json()
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
        # A finished run's graph holds no cycle, so reference counting
        # frees each seed's simulator even when nothing collects...
        assert self._in_worker(_leftover_simulators, run_one, seeds, False) == 0
        # ...and the chunk runner's collection finds none either.
        assert self._in_worker(_leftover_simulators, run_one, seeds, True) == 0

    def test_workers_freeze_the_inherited_heap(self):
        assert self._in_worker(gc.get_freeze_count) > 0

    def test_an_executor_broken_between_calls_is_replaced_on_submit(self):
        with ensemble.EnsemblePool(2, 2) as pool:
            future, first = pool.submit((abs, [-1], None))
            assert future.result(timeout=60) == [1]
            for process in list(first._processes.values()):
                process.kill()
            deadline = time.monotonic() + 10.0
            while not first._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert first._broken
            # No chunk of this executor is out, so no result reports the
            # break: the next submit does, and goes to a fresh executor.
            future, fresh = pool.submit((abs, [-2], None))
            assert fresh is not first and pool.holds(fresh)
            assert future.result(timeout=60) == [2]


def _alive(pid):
    """True while ``pid`` runs (a zombie left for its reaper is dead)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


#: A grid's process, SIGKILLed while its pool holds two forked workers.
_KILLED_GRID = """
import os, signal
from repro.experiments.ensemble import EnsemblePool

with EnsemblePool(2, 2) as pool:
    executor = pool.executor()
    executor.submit(os.getpid).result()
    print(*executor._processes, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


class TestWorkerOrphans:
    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from procfs"
    )
    def test_workers_exit_when_the_grid_is_killed(self):
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _KILLED_GRID],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Read one line, not to EOF: live workers hold the pipe open.
        with child.stdout:
            pids = [int(pid) for pid in child.stdout.readline().split()]
        try:
            assert child.wait(timeout=60) == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 5.0
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


#: Three one-seed chunks a cell on two workers: each cell ends with a
#: worker that would idle without the lookahead.
SEEDS3 = (100, 101, 102)


class _Timeline:
    """What a zoo grid did, in order.  ``events`` holds ``("call",
    cell)`` and ``("return", cell)`` around each cell's ensemble call and
    ``("submit", cell, seeds, executor, during)`` for each chunk handed
    to an executor, where ``executor`` numbers the executors as built and
    ``during`` is the cell whose call was running.  ``plans`` holds the
    chunk count of each :func:`seed_chunks` call; ``on_submit(executor,
    cell)``, when set, runs after each submit."""

    def __init__(self):
        self.events = []
        self.plans = []
        self.executors = []
        self.current = None
        self.on_submit = None

    def submits(self):
        return [event for event in self.events if event[0] == "submit"]

    def workers(self):
        return [process for pool in self.executors for process in pool.workers]


def _cell_of(run_one):
    return run_one.args[1:3]  # (algorithm, adversary)


@pytest.fixture
def timeline(monkeypatch):
    """Record a zoo grid's calls, plans and submits (:class:`_Timeline`),
    through the real executor and the real ``run_ensemble``."""
    log = _Timeline()

    class Recording(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.workers = []
            log.executors.append(self)

        def submit(self, fn, payload):
            run_one, seeds, _anchor = payload
            future = super().submit(fn, payload)
            cell = _cell_of(run_one)
            number = log.executors.index(self)
            log.events.append(("submit", cell, tuple(seeds), number, log.current))
            self.workers.extend(
                process
                for process in self._processes.values()
                if process not in self.workers
            )
            if log.on_submit is not None:
                log.on_submit(self, cell)
            return future

    real_chunks, real_ensemble = ensemble.seed_chunks, e13.run_ensemble

    def chunks(seeds, jobs):
        parts = real_chunks(seeds, jobs)
        log.plans.append(len(parts))
        return parts

    def recorded(run_one, seeds, **kwargs):
        log.current = _cell_of(run_one)
        log.events.append(("call", log.current))
        try:
            return real_ensemble(run_one, seeds, **kwargs)
        finally:
            log.events.append(("return", log.current))
            log.current = None

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(ensemble, "seed_chunks", chunks)
    monkeypatch.setattr(e13, "run_ensemble", recorded)
    return log


def _serial_reruns(registry):
    counters = registry.snapshot(deterministic_only=False)
    return counters.get("repro_ensemble_chunks_serial_rerun_total", 0)


class TestLookahead:
    def test_next_cell_goes_out_before_the_cell_returns(self, timeline):
        serial = _zoo(1, SEEDS3)
        assert timeline.executors == [] and timeline.plans == []
        timeline.events.clear()
        registry = MetricsRegistry()
        zoo = get_campaign("zoo")
        assert zoo.run(_zoo_config(2, SEEDS3), metrics=registry).to_json() == serial
        cells = [event[1] for event in timeline.events if event[0] == "call"]
        assert len(cells) == 4
        for cell, after in zip(cells, cells[1:]):
            returned = timeline.events.index(("return", cell))
            handed = [event[:2] for event in timeline.events[:returned]]
            assert ("submit", after) in handed, (cell, after)
        # Each cell is planned once, each chunk handed out once, and
        # every seed computed once, in the pool.
        assert timeline.plans == [3, 3, 3, 3]
        submits = timeline.submits()
        assert len(submits) == sum(timeline.plans)
        assert sorted(event[1:3] for event in submits) == sorted(
            (cell, (seed,)) for cell in cells for seed in SEEDS3
        )
        assert _serial_reruns(registry) == 0
        assert len(timeline.executors) == 1

    def test_early_chunks_of_a_broken_pool_rerun_in_their_own_call(self, timeline):
        serial = _zoo(1, SEEDS3)
        timeline.events.clear()
        killed = []

        def kill_on_first_early(executor, cell):
            if not killed and cell != timeline.current:
                killed.append(cell)
                for process in list(executor._processes.values()):
                    process.kill()

        timeline.on_submit = kill_on_first_early
        registry = MetricsRegistry()
        zoo = get_campaign("zoo")
        assert zoo.run(_zoo_config(2, SEEDS3), metrics=registry).to_json() == serial
        (cell,) = killed
        submits = timeline.submits()
        early = [event[2] for event in submits if event[1] == cell and event[3] == 0]
        assert early
        for seeds in early:
            again = [
                event for event in submits
                if event[1:3] == (cell, seeds) and event[3] > 0
            ]
            # One resubmit, to the fresh pool, by the cell's own call.
            assert [(event[3], event[4]) for event in again] == [(1, cell)]
        assert _serial_reruns(registry) == 0
        assert len(timeline.executors) == 2

    def test_shutdown_with_early_chunks_out(self, tmp_path, timeline):
        zoo = get_campaign("zoo")
        serial = zoo.run(_zoo_config(1, SEEDS3))
        timeline.events.clear()
        config = _zoo_config(2, SEEDS3)
        cells = list(zoo.cells(config))
        shutdown = GracefulShutdown(install=False)
        requested = []

        def stop_on_first_early(_executor, cell):
            if not requested and cell == cells[2].key:
                shutdown.requested = True
                requested.append((len(timeline.events), timeline.current))

        timeline.on_submit = stop_on_first_early
        path = tmp_path / "zoo.journal"
        journal = RunJournal.open(path, zoo.fingerprint(config))
        with pytest.raises(InterruptedRunError):
            zoo.run(config, journal=journal, shutdown=shutdown)
        partial = zoo.partial_report(config, journal)
        done = {cell.namespace: journal.completed(cell.namespace) for cell in cells}
        journal.close()
        # Requested during the second cell's call, with a chunk of the
        # third out; nothing was handed out after that.
        ((at, during),) = requested
        assert during == cells[1].key
        assert "submit" not in [event[0] for event in timeline.events[at:]]
        assert not any(process.is_alive() for process in timeline.workers())
        # The early chunk was never collected, so never journaled: the
        # partial report holds exactly the journaled cells, in grid order.
        assert done[cells[0].namespace].keys() == set(SEEDS3)
        assert done[cells[2].namespace] == {} and done[cells[3].namespace] == {}
        journaled = [
            outcome
            for outcome in serial.outcomes
            if outcome.seed in done[f"{outcome.algorithm}/{outcome.adversary}"]
        ]
        assert partial.to_json() == zoo.report(config, journaled).to_json()
        resumed = RunJournal.open(path, zoo.fingerprint(config), resume=True)
        assert zoo.run(config, journal=resumed).to_json() == serial.to_json()
        resumed.close()
        assert not any(process.is_alive() for process in timeline.workers())


#: What the generative grid check draws from: zoo cells are
#: (algorithm, adversary) pairs, chaos cells fault specs.
_ZOO_ALGORITHMS = algorithm_names()
_CHAOS_SPECS = preset_specs()


@st.composite
def _grids(draw):
    """``(campaign, serial config, jobs, journaled pairs)``: a zoo or
    chaos grid of 1-4 cells with 1-3 seeds a cell, a ``--jobs`` value,
    and the (namespace, seed) pairs journaled before it runs."""
    kind = draw(st.sampled_from(("zoo", "chaos")))
    cells = draw(st.integers(1, 4))
    seeds = tuple(range(1, draw(st.integers(1, 3)) + 1))
    unique = functools.partial(st.lists, unique=True, min_size=1)
    if kind == "zoo":
        algorithms = draw(unique(st.sampled_from(_ZOO_ALGORITHMS), max_size=cells))
        adversaries = draw(
            unique(
                st.sampled_from(ZOO_ADVERSARIES), max_size=cells // len(algorithms)
            )
        )
        config = ZooConfig(
            algorithms=tuple(algorithms),
            adversaries=tuple(adversaries),
            seeds=seeds,
            workload=ZooWorkload(iterations=40),
            jobs=1,
        )
    else:
        names = draw(unique(st.sampled_from(tuple(_CHAOS_SPECS)), max_size=cells))
        config = CampaignConfig(
            specs=tuple(_CHAOS_SPECS[name] for name in names),
            seeds=seeds,
            workload=ChaosWorkload(iterations=120),
            jobs=1,
        )
    campaign = get_campaign(kind)
    pairs = [(cell.namespace, seed) for cell in campaign.cells(config) for seed in seeds]
    journaled = draw(st.lists(st.sampled_from(pairs), unique=True))
    return campaign, config, draw(st.integers(1, 3)), journaled


_SERIAL = {}


def _serial_run(campaign, config):
    """The unjournaled serial report's bytes, and its outcome per
    (namespace, seed); one run per grid."""
    key = campaign.fingerprint(config)
    if key not in _SERIAL:
        report = campaign.run(config)
        pairs = [
            (cell.namespace, seed)
            for cell in campaign.cells(config)
            for seed in config.seeds
        ]
        _SERIAL[key] = (report.to_json(), dict(zip(pairs, report.outcomes)))
    return _SERIAL[key]


# The example count comes from the Hypothesis profile (tests/conftest.py):
# 6 in tier-1, where the check adds about 2 s, and 40 under
# ``--hypothesis-profile ci``.
@settings(deadline=None)
@given(grid=_grids())
def test_grid_bytes_match_serial_under_any_jobs_and_journal(grid):
    campaign, config, jobs, journaled = grid
    serial, outcomes = _serial_run(campaign, config)
    fingerprint = campaign.fingerprint(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.journal")
        with RunJournal.open(path, fingerprint) as journal:
            for namespace, seed in journaled:
                journal.record(
                    namespace, seed, campaign.encode(outcomes[namespace, seed])
                )
        with RunJournal.open(path, fingerprint, resume=True) as journal:
            report = campaign.run(
                dataclasses.replace(config, jobs=jobs), journal=journal
            )
    assert report.to_json() == serial
