"""Tests for invariant monitors and crash recovery: monitors stay quiet
on clean runs, catch seeded corruption, and the respawner re-spawns
crashed threads that rejoin and finish the shared workload."""

import numpy as np
import pytest

from repro.core.epoch_sgd import EpochSGDProgram
from repro.errors import SimulationError
from repro.faults import (
    CounterMonotonicityMonitor,
    CrashBudgetMonitor,
    FaultSpec,
    IterationOrderMonitor,
    ModelFiniteMonitor,
    ProbabilisticCrashSpec,
    Respawner,
    default_monitors,
)
from repro.heal.detectors import DetectorSuite
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.simulator import Simulator
from repro.runtime.thread import ThreadState
from repro.sched.crash import CrashPlan, CrashScheduler
from repro.sched.random_sched import RandomScheduler
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


def _build_workload(engine, num_threads=3, iterations=60, seed=0):
    objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))
    memory = SharedMemory(record_log=False)
    model = AtomicArray.allocate(memory, 2, name="model")
    model.load(np.array([2.0, -2.0]))
    counter = AtomicCounter.allocate(memory, name="iteration_counter")

    def make_program():
        return EpochSGDProgram(
            model=model,
            counter=counter,
            objective=objective,
            step_size=0.05,
            max_iterations=iterations,
        )

    sim = Simulator(memory, engine, seed=seed)
    for index in range(num_threads):
        sim.spawn(make_program(), name=f"worker-{index}")
    return sim, model, make_program


def _recover(sim, factory=None, check_interval=64, max_respawns=None,
             monitors=None):
    """Attach ``monitors`` then a respawner, as the chaos worker does,
    and run to quiescence in ``check_interval``-step chunks."""
    if monitors is not None:
        sim.attach_analyzer(monitors)
    respawner = Respawner(factory, max_respawns=max_respawns)
    sim.attach_analyzer(respawner)
    sim.run_analyzed(chunk=check_interval)
    return respawner


class TestMonitorsOnCleanRuns:
    def test_default_suite_stays_quiet_without_faults(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=1), seed=1)
        suite = DetectorSuite(default_monitors())
        _recover(sim, monitors=suite)
        assert suite.clean

    def test_default_suite_stays_quiet_under_crashes(self):
        spec = FaultSpec(
            "p", (ProbabilisticCrashSpec(rate=0.01, max_crashes=2),)
        )
        engine = spec.build(RandomScheduler(seed=2), seed=2)
        sim, _, make_program = _build_workload(engine, num_threads=4, seed=2)
        suite = DetectorSuite(default_monitors())
        _recover(sim, lambda t: make_program(), monitors=suite)
        assert suite.clean

    def test_missing_segments_keep_monitors_quiet(self):
        # A workload without a model/counter segment: monitors must not
        # crash or fire, they just have nothing to watch.
        memory = SharedMemory(record_log=False)
        sim = Simulator(memory, RandomScheduler(seed=3), seed=3)
        suite = DetectorSuite(
            [CounterMonotonicityMonitor(), ModelFiniteMonitor()]
        )
        suite.check(sim)
        assert suite.clean


class TestMonitorsCatchCorruption:
    def test_counter_decrease_detected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=4), seed=4)
        monitor = CounterMonotonicityMonitor()
        sim.run_fast(max_steps=50)
        assert monitor.check(sim) is None
        address = sim.memory.segment("iteration_counter").base
        sim.memory.poke(address, sim.memory.peek(address) - 3)
        violation = monitor.check(sim)
        assert violation is not None and "decreased" in violation.message

    def test_counter_non_integral_detected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=5), seed=5)
        monitor = CounterMonotonicityMonitor()
        address = sim.memory.segment("iteration_counter").base
        sim.memory.poke(address, 1.5)
        violation = monitor.check(sim)
        assert violation is not None and "non-integral" in violation.message

    def test_model_nan_detected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=6), seed=6)
        monitor = ModelFiniteMonitor()
        assert monitor.check(sim) is None
        sim.memory.poke(sim.memory.segment("model").base + 1, float("nan"))
        violation = monitor.check(sim)
        assert violation is not None and "model[1]" in violation.message

    def test_crash_accounting_mismatch_detected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=7), seed=7)
        sim.run_fast(max_steps=20)
        sim.crash(0)
        monitor = CrashBudgetMonitor()
        assert monitor.check(sim) is None
        assert list(monitor.final(sim)) == []
        sim.trace[:] = [
            e for e in sim.trace if type(e).__name__ != "CrashEvent"
        ]
        assert any(
            "mismatch" in v.message for v in monitor.final(sim)
        )

    def test_iteration_order_duplicates_detected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=8), seed=8)
        sim.run_fast()
        monitor = IterationOrderMonitor()
        assert list(monitor.final(sim)) == []
        records = [
            e for e in sim.trace if type(e).__name__ == "IterationRecord"
        ]
        sim.trace.append(records[0])  # replayed iteration: index + order dup
        messages = [v.message for v in monitor.final(sim)]
        assert any("claimed twice" in m for m in messages)
        assert any("total order broken" in m for m in messages)

    def test_suite_records_one_violation_per_firing(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=9), seed=9)
        sim.memory.poke(sim.memory.segment("model").base, float("inf"))
        suite = DetectorSuite(default_monitors())
        assert suite.check(sim) == suite.findings
        assert len(suite.findings) == 1
        violation = suite.findings[0]
        assert violation.source == "model-finite"
        assert violation.rule == "monitor:model-finite"
        assert str(violation).startswith("[model-finite @ t=")

    def test_finish_checks_once_more_then_runs_every_final(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=8), seed=8)
        sim.run_fast()
        records = [
            e for e in sim.trace if type(e).__name__ == "IterationRecord"
        ]
        sim.trace.append(records[0])
        sim.memory.poke(sim.memory.segment("iteration_counter").base, 1.5)
        sim.memory.poke(sim.memory.segment("model").base, float("nan"))
        suite = DetectorSuite(default_monitors())
        suite.finish(sim)
        sources = [violation.source for violation in suite.findings]
        assert sources[:2] == ["counter-monotonic", "model-finite"]
        assert set(sources[2:]) == {"iteration-order"}
        assert all(v.time == sim.now for v in suite.findings)


class TestRecovery:
    def test_respawned_threads_finish_the_workload(self):
        iterations = 80
        engine = CrashScheduler(
            RandomScheduler(seed=10),
            [
                CrashPlan(thread_id=0, at_time=30),
                CrashPlan(thread_id=1, at_time=90),
            ],
        )
        sim, model, make_program = _build_workload(
            engine, num_threads=3, iterations=iterations, seed=10
        )
        respawner = _recover(sim, lambda t: make_program(), check_interval=16)
        assert respawner.crash_tally == {0: 1, 1: 1}
        assert set(respawner.respawned) == {0, 1}
        # Replacements are genuinely new threads that joined the run.
        assert len(sim.threads) == 5
        replacements = [
            sim.threads[tid] for tid in respawner.respawned.values()
        ]
        assert all(t.name.startswith("respawn-") for t in replacements)
        assert all(
            t.state is ThreadState.FINISHED for t in replacements
        )
        # The full iteration budget was claimed despite the crashes: the
        # respawned threads re-read shared state and did real work.
        counter = sim.memory.segment("iteration_counter").base
        assert sim.memory.peek(counter) >= iterations
        assert np.all(np.isfinite(model.snapshot()))

    def test_max_respawns_caps_replacements(self):
        engine = CrashScheduler(
            RandomScheduler(seed=11),
            [
                CrashPlan(thread_id=0, at_time=20),
                CrashPlan(thread_id=1, at_time=60),
            ],
        )
        sim, _, make_program = _build_workload(
            engine, num_threads=3, seed=11
        )
        respawner = _recover(
            sim, lambda t: make_program(), check_interval=16, max_respawns=1
        )
        assert len(respawner.respawned) == 1
        assert sum(respawner.crash_tally.values()) == 2
        assert len(sim.threads) == 4

    def test_exhausted_budget_reported_in_structured_summary(self):
        engine = CrashScheduler(
            RandomScheduler(seed=11),
            [
                CrashPlan(thread_id=0, at_time=20),
                CrashPlan(thread_id=1, at_time=60),
            ],
        )
        sim, _, make_program = _build_workload(
            engine, num_threads=3, seed=11
        )
        respawner = _recover(
            sim, lambda t: make_program(), check_interval=16, max_respawns=1
        )
        # The second crash was denied purely by the budget — the
        # respawner must say so, not silently under-count.
        assert respawner.respawn_denied == 1
        assert respawner.crash_tally == {0: 1, 1: 1}
        assert respawner.respawned == {0: 3}

    def test_unexhausted_budget_is_not_flagged(self):
        engine = CrashScheduler(
            RandomScheduler(seed=10),
            [CrashPlan(thread_id=0, at_time=30)],
        )
        sim, _, make_program = _build_workload(engine, seed=10)
        respawner = _recover(
            sim, lambda t: make_program(), check_interval=16, max_respawns=5
        )
        assert respawner.respawn_denied == 0
        assert respawner.respawned == {0: 3}

    def test_crash_tally_attributes_respawn_crashes_to_lineage_root(self):
        # Seed 17 produces a full doom chain: worker 0 crashes, its
        # respawn (id 3) crashes, and *that* respawn (id 4) crashes too.
        # All three crashes must land on lineage root 0.
        spec = FaultSpec(
            "p",
            (ProbabilisticCrashSpec(rate=0.01, max_crashes=3, after_time=10),),
        )
        engine = spec.build(RandomScheduler(seed=17), seed=17)
        sim, _, make_program = _build_workload(
            engine, num_threads=3, iterations=80, seed=17
        )
        respawner = _recover(sim, lambda t: make_program(), check_interval=16)
        assert respawner.crash_tally == {0: 3}
        assert respawner.respawned == {0: 3, 3: 4, 4: 5}

    def test_no_factory_no_monitors_is_plain_run_fast(self):
        sim_plain, model_plain, _ = _build_workload(
            RandomScheduler(seed=12), seed=12
        )
        steps_plain = sim_plain.run_fast()
        # Nothing attached: run_analyzed is one plain run_fast call.
        sim_bare, model_bare, _ = _build_workload(
            RandomScheduler(seed=12), seed=12
        )
        assert sim_bare.run_analyzed(chunk=7) == steps_plain
        assert model_bare.snapshot().tobytes() == model_plain.snapshot().tobytes()
        # A respawner without a factory only watches: same schedule.
        sim_rec, model_rec, _ = _build_workload(
            RandomScheduler(seed=12), seed=12
        )
        respawner = _recover(sim_rec, check_interval=7)
        assert sim_rec.now == steps_plain
        assert respawner.respawned == {} and respawner.crash_tally == {}
        assert model_rec.snapshot().tobytes() == model_plain.snapshot().tobytes()

    def test_recovery_identical_to_unchunked_when_nothing_crashes(self):
        sim_plain, model_plain, _ = _build_workload(
            RandomScheduler(seed=13), seed=13
        )
        sim_plain.run_fast()
        sim_rec, model_rec, make_program = _build_workload(
            RandomScheduler(seed=13), seed=13
        )
        _recover(
            sim_rec,
            lambda t: make_program(),
            check_interval=7,
            monitors=DetectorSuite(default_monitors()),
        )
        assert sim_rec.now == sim_plain.now
        assert model_rec.snapshot().tobytes() == model_plain.snapshot().tobytes()

    def test_bad_check_interval_rejected(self):
        sim, _, _ = _build_workload(RandomScheduler(seed=14), seed=14)
        sim.attach_analyzer(Respawner())
        with pytest.raises(SimulationError):
            sim.run_analyzed(chunk=0)


class TestDefaultMonitors:
    def test_default_set_covers_the_four_invariants(self):
        names = {m.name for m in default_monitors()}
        assert names == {
            "counter-monotonic",
            "model-finite",
            "crash-budget",
            "iteration-order",
        }
