"""Tests for schedule recording/replay and the wall-clock metrics."""

import numpy as np
import pytest

from repro.core.epoch_sgd import run_lock_free_sgd
from repro.errors import (
    ConfigurationError,
    ReplayDivergenceError,
    SchedulerError,
)
from repro.metrics.trace import parallel_speedup, parallel_wallclock
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.random_sched import RandomScheduler
from repro.sched.replay import RecordingScheduler, ReplayScheduler


@pytest.fixture
def workload():
    objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))
    x0 = np.array([2.0, -2.0])

    def run(scheduler):
        return run_lock_free_sgd(
            objective, scheduler, num_threads=3, step_size=0.05,
            iterations=60, x0=x0, seed=5,
        )

    return run


class TestRecordReplay:
    def test_replay_reproduces_run_exactly(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        original = workload(recorder)
        assert len(recorder.schedule) == original.sim_steps

        replayed = workload(ReplayScheduler(recorder.schedule))
        np.testing.assert_array_equal(original.x_final, replayed.x_final)
        np.testing.assert_array_equal(original.distances, replayed.distances)
        assert original.sim_steps == replayed.sim_steps

    def test_strict_replay_detects_divergence(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        corrupted = list(recorder.schedule)
        # Make an early decision point at a thread that will have
        # finished by then — guaranteed divergence: repeat thread 0
        # forever from the midpoint.
        midpoint = len(corrupted) // 2
        corrupted[midpoint:] = [0] * (len(corrupted) - midpoint)
        with pytest.raises(SchedulerError):
            workload(ReplayScheduler(corrupted, strict=True))

    def test_strict_replay_rejects_short_schedule(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        with pytest.raises(SchedulerError):
            workload(ReplayScheduler(recorder.schedule[:10], strict=True))

    def test_lenient_replay_falls_back(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        # Truncated schedule with strict=False completes anyway.
        result = workload(ReplayScheduler(recorder.schedule[:10], strict=False))
        assert result.iterations == 60

    def test_remaining_counter(self):
        replay = ReplayScheduler([0, 1, 0])
        assert replay.remaining == 3


def _wrappers():
    from repro.faults.injectors import FaultInjectionScheduler
    from repro.sched.crash import CrashScheduler
    from repro.sched.replay import PrefixReplayScheduler

    return {
        "recording": RecordingScheduler,
        "prefix-replay": lambda inner: PrefixReplayScheduler(inner, ()),
        "crash": lambda inner: CrashScheduler(inner, []),
        "faults": FaultInjectionScheduler,
    }


class _Hooked(RandomScheduler):
    """A scheduler with live hooks that counts what it is shown."""

    def __init__(self):
        super().__init__(seed=3)
        self.spawned = 0
        self.stepped = 0

    def on_spawn(self, sim, thread):
        self.spawned += 1

    def on_step(self, sim, record):
        self.stepped += 1


class TestWrapperHooks:
    @pytest.mark.parametrize("name", sorted(_wrappers()))
    def test_benign_inner_keeps_the_fast_loop(self, name):
        from repro.runtime.policy import live_hook

        wrapper = _wrappers()[name](RandomScheduler(seed=9))
        assert live_hook(wrapper, "on_spawn") is None
        assert live_hook(wrapper, "on_step") is None

    @pytest.mark.parametrize("name", sorted(_wrappers()))
    def test_live_inner_hooks_are_forwarded(self, name, workload):
        inner = _Hooked()
        result = workload(_wrappers()[name](inner))
        assert inner.spawned == 3
        assert inner.stepped == result.sim_steps > 0

    def test_recorded_run_takes_no_step_records(self, workload, monkeypatch):
        from repro.runtime.simulator import Simulator

        def refuse(self, *args, **kwargs):
            raise AssertionError("a recorded run left the fast loop")

        monkeypatch.setattr(Simulator, "run", refuse)
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        result = workload(recorder)
        assert len(recorder.schedule) == result.sim_steps


class TestReplayDivergenceError:
    """Divergence raises carry structured (step_index, expected, actual)
    so callers can localize the first bad decision programmatically."""

    def test_divergence_error_is_a_scheduler_error(self):
        assert issubclass(ReplayDivergenceError, SchedulerError)

    def test_non_runnable_choice_carries_position_and_choice(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        corrupted = list(recorder.schedule)
        midpoint = len(corrupted) // 2
        corrupted[midpoint:] = [0] * (len(corrupted) - midpoint)
        with pytest.raises(ReplayDivergenceError) as excinfo:
            workload(ReplayScheduler(corrupted, strict=True))
        error = excinfo.value
        assert error.step_index >= midpoint
        assert error.expected == 0  # the recorded (non-runnable) thread
        assert error.actual == -1  # no substitute was taken

    def test_exhausted_schedule_carries_sentinel_expected(self, workload):
        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        short = recorder.schedule[:10]
        with pytest.raises(ReplayDivergenceError) as excinfo:
            workload(ReplayScheduler(short, strict=True))
        error = excinfo.value
        assert error.step_index == len(short)
        assert error.expected == -1  # nothing recorded at this point
        assert error.actual >= 0  # the thread the run actually wanted

    def test_prefix_verify_mismatch_carries_both_choices(self, workload):
        from repro.sched.replay import PrefixReplayScheduler
        from repro.sched.round_robin import RoundRobinScheduler

        recorder = RecordingScheduler(RandomScheduler(seed=9))
        workload(recorder)
        prefix = list(recorder.schedule[:20])
        # Verified prefix replay against a *different* inner scheduler:
        # the first decision where round-robin disagrees with the random
        # recording must raise with both sides of the disagreement.
        with pytest.raises(ReplayDivergenceError) as excinfo:
            workload(
                PrefixReplayScheduler(
                    RoundRobinScheduler(), prefix=prefix, verify=True
                )
            )
        error = excinfo.value
        assert 0 <= error.step_index < len(prefix)
        assert error.expected == prefix[error.step_index]
        assert error.actual != error.expected
        assert error.actual >= 0


class TestWallclockMetrics:
    def test_parallel_wallclock_is_max(self):
        assert parallel_wallclock([10, 30, 20]) == 30

    def test_speedup_balanced(self):
        assert parallel_speedup(90, [30, 30, 30]) == pytest.approx(3.0)

    def test_speedup_imbalanced(self):
        assert parallel_speedup(90, [60, 20, 10]) == pytest.approx(1.5)

    def test_speedup_of_real_run(self, workload):
        result = workload(RandomScheduler(seed=11))
        speedup = parallel_speedup(
            result.sim_steps, list(result.thread_steps.values())
        )
        assert 1.0 <= speedup <= 3.0
        assert sum(result.thread_steps.values()) == result.sim_steps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_wallclock([])
        with pytest.raises(ConfigurationError):
            parallel_speedup(5, [10])
