"""Tests for the pooled-execution watchdog: the stall → reroute →
abandon escalation ladder (driven by an injected fake clock), its
wait-timeout arithmetic, and its integration with the ensemble runner
(reroute resubmission, abandon-to-serial fallback, graceful shutdown)."""

import functools
import os
import time

import pytest

from repro.durable.signals import GracefulShutdown
from repro.durable.watchdog import (
    ABANDON,
    REROUTE,
    WAIT,
    EnsembleWatchdog,
    WatchdogPolicy,
)
from repro.errors import InterruptedRunError
from repro.experiments import ensemble
from repro.experiments.ensemble import run_ensemble, seed_chunks


class FakeClock:
    """Injectable monotonic clock the tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _square(seed: int) -> int:
    """Module-level (hence picklable) worker."""
    return seed * seed


class TestWaitTimeout:
    def test_no_limits_means_block_forever(self):
        watchdog = EnsembleWatchdog(WatchdogPolicy(), clock=FakeClock())
        assert watchdog.wait_timeout() is None

    def test_heartbeat_window_shrinks_and_resets_on_beat(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0), clock=clock
        )
        watchdog.start()
        assert watchdog.wait_timeout() == 5.0
        clock.advance(2.0)
        assert watchdog.wait_timeout() == 3.0
        watchdog.beat()
        assert watchdog.wait_timeout() == 5.0

    def test_deadline_window_clamped_at_zero(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(WatchdogPolicy(deadline=30.0), clock=clock)
        watchdog.start()
        assert watchdog.wait_timeout() == 30.0
        clock.advance(40.0)
        assert watchdog.wait_timeout() == 0.0

    def test_tighter_of_stall_and_deadline_wins(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, deadline=30.0), clock=clock
        )
        watchdog.start()
        assert watchdog.wait_timeout() == 5.0
        clock.advance(27.0)
        watchdog.beat()  # stall window restarts; deadline does not
        assert watchdog.wait_timeout() == 3.0

    def test_first_call_auto_starts(self):
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=7.0), clock=FakeClock()
        )
        assert watchdog.wait_timeout() == 7.0
        assert watchdog.elapsed == 0.0


class TestEscalationLadder:
    def test_spurious_wakeup_keeps_waiting(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0), clock=clock
        )
        watchdog.start()
        clock.advance(1.0)  # not actually stalled yet
        assert watchdog.on_wait_elapsed(pending=3) == WAIT
        assert watchdog.findings == []

    def test_stall_reroutes_and_resets_window(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=1), clock=clock
        )
        watchdog.start()
        clock.advance(6.0)
        assert watchdog.on_wait_elapsed(pending=2) == REROUTE
        assert [f.rule for f in watchdog.findings] == ["WD001"]
        assert watchdog.findings[0].severity == "warning"
        # The reroute restarted the stall window: not stalled again yet.
        assert watchdog.on_wait_elapsed(pending=2) == WAIT
        assert watchdog.wait_timeout() == 5.0

    def test_second_stall_abandons_once_budget_spent(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=1), clock=clock
        )
        watchdog.start()
        clock.advance(6.0)
        assert watchdog.on_wait_elapsed(pending=2) == REROUTE
        clock.advance(6.0)
        assert watchdog.on_wait_elapsed(pending=2) == ABANDON
        assert [f.rule for f in watchdog.findings] == ["WD001", "WD002"]
        assert watchdog.findings[1].severity == "error"

    def test_zero_reroute_budget_is_single_strike(self):
        # No reroute budget: the first stall abandons.
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=0.5, max_reroutes=0), clock=clock
        )
        watchdog.start()
        clock.advance(1.0)
        assert watchdog.on_wait_elapsed(pending=4) == ABANDON
        assert [f.rule for f in watchdog.findings] == ["WD002"]

    def test_deadline_abandons_without_reroute(self):
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=50.0, deadline=8.0, max_reroutes=3),
            clock=clock,
        )
        watchdog.start()
        clock.advance(10.0)
        assert watchdog.on_wait_elapsed(pending=1) == ABANDON
        assert [f.rule for f in watchdog.findings] == ["WD003"]
        assert watchdog.reroutes == 0

    def test_deadline_outranks_stall(self):
        # Both limits blown at once: the deadline wins (no pointless
        # reroute into a phase that is already out of wall-clock budget).
        clock = FakeClock()
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=2.0, deadline=3.0, max_reroutes=5),
            clock=clock,
        )
        watchdog.start()
        clock.advance(4.0)
        assert watchdog.on_wait_elapsed(pending=1) == ABANDON
        assert [f.rule for f in watchdog.findings] == ["WD003"]


def _stalling_wait(clock, stall_rounds, advance=10.0):
    """A ``wait`` stand-in: the first ``stall_rounds`` rounds complete
    nothing (advancing the fake clock past any stall window); later
    rounds hand every future back as done."""
    state = {"round": 0}

    def fake_wait(futures, timeout=None, return_when=None):
        state["round"] += 1
        if state["round"] <= stall_rounds:
            clock.advance(advance)
            return set(), set(futures)
        return set(futures), set()

    return fake_wait


class _FakeFuture:
    def __init__(self, fn):
        self._fn = fn

    def result(self):
        return self._fn()

    def cancel(self):
        return True


class _InProcessPool:
    """ProcessPoolExecutor stand-in running chunks in-process."""

    def __init__(self):
        self.submits = 0
        self.starts = 0

    def __call__(self, max_workers=None, initializer=None):
        self.starts += 1
        return self

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, payload):
        self.submits += 1
        return _FakeFuture(lambda: fn(payload))


class TestPooledIntegration:
    def _patch(self, monkeypatch, pool, fake_wait):
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(ensemble, "wait", fake_wait)

    def test_stall_reroutes_then_succeeds(self, monkeypatch):
        clock = FakeClock()
        pool = _InProcessPool()
        self._patch(monkeypatch, pool, _stalling_wait(clock, stall_rounds=1))
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=1), clock=clock
        )
        seeds = list(range(8))
        result = run_ensemble(_square, seeds, jobs=2, watchdog=watchdog)
        assert result == [s * s for s in seeds]
        assert [f.rule for f in watchdog.findings] == ["WD001"]
        # Every pending chunk was resubmitted once by the reroute.
        assert pool.submits == 2 * len(seed_chunks(seeds, 2))

    def test_exhausted_reroutes_fall_back_to_serial(self, monkeypatch):
        clock = FakeClock()
        self._patch(
            monkeypatch, _InProcessPool(), _stalling_wait(clock, stall_rounds=99)
        )
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=1), clock=clock
        )
        seeds = list(range(6))
        result = run_ensemble(_square, seeds, jobs=3, watchdog=watchdog)
        assert result == [s * s for s in seeds]
        assert [f.rule for f in watchdog.findings] == ["WD001", "WD002"]

    def test_deadline_abandons_pool(self, monkeypatch):
        clock = FakeClock()
        self._patch(
            monkeypatch, _InProcessPool(), _stalling_wait(clock, stall_rounds=99)
        )
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(deadline=8.0), clock=clock
        )
        seeds = list(range(6))
        result = run_ensemble(_square, seeds, jobs=3, watchdog=watchdog)
        assert result == [s * s for s in seeds]
        assert [f.rule for f in watchdog.findings] == ["WD003"]

    def test_single_strike_watchdog_degrades_to_serial(self, monkeypatch):
        # A zero-reroute watchdog abandons a wedged pool at its first
        # stall; the run must still degrade to serial.
        def no_progress(futures, timeout=None, return_when=None):
            return set(), set(futures)

        self._patch(monkeypatch, _InProcessPool(), no_progress)
        seeds = list(range(6))
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=0.01, max_reroutes=0)
        )
        result = run_ensemble(_square, seeds, jobs=3, watchdog=watchdog)
        assert result == [s * s for s in seeds]

    def test_shutdown_request_cancels_pending(self, monkeypatch):
        self._patch(
            monkeypatch,
            _InProcessPool(),
            _stalling_wait(FakeClock(), stall_rounds=0),
        )
        shutdown = GracefulShutdown(install=False)
        shutdown.requested = True
        shutdown.signal_name = "SIGINT"
        with pytest.raises(InterruptedRunError):
            run_ensemble(_square, list(range(8)), jobs=2, shutdown=shutdown)

    def test_serial_path_honours_shutdown_between_seeds(self):
        shutdown = GracefulShutdown(install=False)
        calls = []

        def worker(seed):
            calls.append(seed)
            if len(calls) == 2:
                shutdown.requested = True
                shutdown.signal_name = "SIGTERM"
            return seed

        with pytest.raises(InterruptedRunError):
            run_ensemble(worker, list(range(5)), jobs=1, shutdown=shutdown)
        assert calls == [0, 1]  # stopped at the next seed boundary


class TestRunChunksPooledDirect:
    """`_run_chunks_pooled` driven directly (no run_ensemble wrapper):
    the reroute path must refill every slot exactly once, and the
    abandon path must leave unfinished slots as None for the caller's
    serial fallback."""

    def _patch(self, monkeypatch, pool, fake_wait):
        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(ensemble, "wait", fake_wait)

    def test_reroute_refills_every_chunk_once(self, monkeypatch):
        clock = FakeClock()
        pool = _InProcessPool()
        self._patch(monkeypatch, pool, _stalling_wait(clock, stall_rounds=1))
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=1), clock=clock
        )
        chunks = [[0, 1], [2, 3], [4, 5]]
        delivered = []
        results = ensemble._run_chunks_pooled(
            _square,
            chunks,
            pool=ensemble.EnsemblePool(3, 6),
            chunk_retries=1,
            backoff_base=0.0,
            watchdog=watchdog,
            on_chunk=lambda index, part: delivered.append((index, part)),
        )
        assert results == [[s * s for s in chunk] for chunk in chunks]
        assert watchdog.reroutes == 1
        assert [f.rule for f in watchdog.findings] == ["WD001"]
        # on_chunk fired exactly once per chunk despite the duplicate
        # submissions the reroute caused.
        assert sorted(index for index, _part in delivered) == [0, 1, 2]
        assert pool.submits == 2 * len(chunks)
        # The reroute discarded the stalled pool for a fresh one.
        assert pool.starts == 2

    def test_abandon_leaves_unfilled_slots_none(self, monkeypatch):
        clock = FakeClock()
        self._patch(
            monkeypatch,
            _InProcessPool(),
            _stalling_wait(clock, stall_rounds=99),
        )
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=5.0, max_reroutes=0), clock=clock
        )
        chunks = [[0], [1]]
        results = ensemble._run_chunks_pooled(
            _square,
            chunks,
            pool=ensemble.EnsemblePool(2, 2),
            chunk_retries=0,
            backoff_base=0.0,
            watchdog=watchdog,
        )
        assert results == [None, None]
        assert [f.rule for f in watchdog.findings] == ["WD002"]


def _sleep_in_child(parent, marks, seed):
    """Stalls for 15 s in a pool worker (leaving its pid in ``marks``);
    returns at once in the ``parent`` process."""
    if os.getpid() != parent:
        (marks / str(os.getpid())).touch()
        time.sleep(15)
    return seed * seed


class TestStalledWorkersAreKilled:
    """A reroute or abandon kills the stalled workers, so the call
    returns promptly instead of waiting for them at pool shutdown."""

    @pytest.mark.parametrize(
        "reroutes, rules", [(0, ["WD002"]), (1, ["WD001", "WD002"])]
    )
    def test_stall_returns_and_leaves_no_worker_alive(self, tmp_path, reroutes, rules):
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=0.5, max_reroutes=reroutes)
        )
        worker = functools.partial(_sleep_in_child, os.getpid(), tmp_path)
        seeds = list(range(4))
        start = time.monotonic()
        result = run_ensemble(worker, seeds, jobs=2, watchdog=watchdog)
        assert time.monotonic() - start < 10  # the sleepers need 15 s
        assert result == [s * s for s in seeds]
        assert [f.rule for f in watchdog.findings] == rules
        pids = [int(mark.name) for mark in tmp_path.iterdir()]
        assert pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
