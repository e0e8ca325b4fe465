"""Supervisor behaviour under a scripted runner and a fake clock:
admission control, duplicate coalescing, the cache fast path, the
crash-retry ladder with seeded backoff, respawn-budget lineage
accounting, deadline abandonment, and graceful drain."""

import gc
import threading
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ensemble import backoff_delay
from repro.serve.cache import ResultCache
from repro.serve.clock import FakeServeClock
from repro.serve.supervisor import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    AdmissionError,
    DrainingError,
    JobSupervisor,
    ServerPolicy,
)

SPEC = {"kind": "chaos", "params": {"specs": ["none"], "seeds": 2}}


def _spec(offset):
    return {
        "kind": "chaos",
        "params": {"specs": ["none"], "seeds": 2, "base_seed": 1 + offset},
    }


class ScriptedRunner:
    """Runner whose outcomes follow a per-call script; an optional gate
    holds the attempt RUNNING until the test releases it."""

    def __init__(self, script, gate=None):
        self.script = list(script)
        self.gate = gate
        self.calls = 0

    def run(self, job, watchdog, should_stop):
        self.calls += 1
        if self.gate is not None:
            self.gate.wait(timeout=30.0)
        outcome = self.script.pop(0) if self.script else {
            "status": "ok",
            "result": {"passed": True, "call": self.calls},
        }
        if callable(outcome):
            return outcome(job, watchdog, should_stop)
        return outcome


def _supervisor(script=(), policy=None, gate=None, start=True, cache=None):
    clock = FakeServeClock()
    supervisor = JobSupervisor(
        policy if policy is not None else ServerPolicy(workers=1),
        cache=cache if cache is not None else ResultCache(None),
        clock=clock,
        runner=ScriptedRunner(script, gate=gate),
    )
    if start:
        supervisor.start()
    return supervisor, clock


def _wait_terminal(supervisor, job, timeout=30.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state in (DONE, FAILED, INTERRUPTED, CANCELLED):
            return
        time.sleep(0.005)
    raise AssertionError(f"job stuck in state {job.state}")


class TestAdmission:
    def test_queue_bound_rejects_with_retry_after(self):
        supervisor, _clock = _supervisor(
            policy=ServerPolicy(workers=1, max_queue=2, retry_after=7.5),
            start=False,  # no workers: jobs stay queued
        )
        supervisor.submit(_spec(0))
        supervisor.submit(_spec(1))
        with pytest.raises(AdmissionError) as info:
            supervisor.submit(_spec(2))
        assert info.value.retry_after == 7.5

    def test_process_runner_requires_a_workdir(self):
        # Without one, every attempt would crash in its worker (there is
        # no progress file) and draw on the server-wide respawn budget.
        with pytest.raises(ConfigurationError, match="workdir"):
            JobSupervisor(ServerPolicy(workers=1))

    def test_invalid_spec_propagates_configuration_error(self):
        supervisor, _clock = _supervisor(start=False)
        with pytest.raises(ConfigurationError):
            supervisor.submit({"kind": "chaos", "params": {"bogus": 1}})

    def test_duplicate_submission_coalesces_to_inflight_job(self):
        supervisor, _clock = _supervisor(start=False)
        first = supervisor.submit(SPEC)
        second = supervisor.submit(dict(SPEC))
        assert second is first  # one unit of work, not two

    def test_cache_hit_served_instantly_with_marker(self):
        cache = ResultCache(None)
        supervisor, _clock = _supervisor(start=False, cache=cache)
        from repro.serve.specs import parse_job_spec

        fingerprint = parse_job_spec(SPEC).fingerprint
        digest = cache.put(fingerprint, {"passed": True, "cold": 1})
        job = supervisor.submit(SPEC)
        assert job.state == DONE
        assert job.cached is True
        assert job.digest == digest
        assert job.result == {"passed": True, "cold": 1}


class TestRetryLadder:
    def test_success_caches_result(self):
        supervisor, _clock = _supervisor(
            [{"status": "ok", "result": {"passed": True}}]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == DONE and not job.cached
        # A resubmission is now a certified cache hit.
        again = supervisor.submit(SPEC)
        assert again.cached is True and again.digest == job.digest

    def test_crash_retries_with_seeded_backoff_then_succeeds(self):
        supervisor, clock = _supervisor(
            [
                {"status": "crash", "exitcode": -9},
                {"status": "ok", "result": {"passed": True}},
            ]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == DONE
        assert job.attempts == 2
        seed = int(job.spec.fingerprint[:8], 16)
        assert clock.sleeps == [
            backoff_delay(
                supervisor.policy.backoff_base, 1,
                chunk_index=job.index, seed=seed,
            )
        ]

    def test_stall_reroute_counts_as_respawn(self):
        supervisor, _clock = _supervisor(
            [
                {"status": "stalled"},
                {"status": "ok", "result": {"passed": True}},
            ]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == DONE and job.attempts == 2

    def test_deterministic_error_fails_without_retry(self):
        supervisor, clock = _supervisor(
            [{"status": "error", "category": "ConfigurationError",
              "detail": "bad"}]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == FAILED
        assert job.attempts == 1
        assert "ConfigurationError" in job.error
        assert clock.sleeps == []  # no backoff: nothing was retried

    def test_max_attempts_exhausted_fails(self):
        supervisor, _clock = _supervisor(
            [{"status": "crash"}] * 5,
            policy=ServerPolicy(workers=1, max_attempts=3),
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == FAILED
        assert job.attempts == 3
        assert "3 attempt(s)" in job.error

    def test_respawn_budget_is_server_wide(self):
        # Budget 1: the first job's crash consumes it; the second job's
        # crash finds the lineage budget spent and fails immediately.
        supervisor, _clock = _supervisor(
            [{"status": "crash"}, {"status": "ok", "result": {"p": 1}},
             {"status": "crash"}],
            policy=ServerPolicy(workers=1, max_attempts=3, respawn_budget=1),
        )
        first = supervisor.submit(_spec(0))
        _wait_terminal(supervisor, first)
        second = supervisor.submit(_spec(1))
        _wait_terminal(supervisor, second)
        assert first.state == DONE and first.attempts == 2
        assert second.state == FAILED
        assert "respawn budget exhausted" in second.error

    def test_deadline_abandon_is_terminal(self):
        supervisor, _clock = _supervisor([{"status": "deadline"}])
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == FAILED
        assert "deadline" in job.error
        assert job.attempts == 1

    def test_interrupted_keeps_journal_reference(self):
        supervisor, _clock = _supervisor(
            [{"status": "interrupted", "detail": "SIGTERM",
              "journal": "/tmp/j.jsonl"}]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert job.state == INTERRUPTED
        assert job.journal_path == "/tmp/j.jsonl"


class TestDrain:
    def test_drain_cancels_queued_and_rejects_new(self):
        gate = threading.Event()
        supervisor, _clock = _supervisor(gate=gate)
        running = supervisor.submit(_spec(0))
        import time

        deadline = time.monotonic() + 5.0
        while running.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = supervisor.submit(_spec(1))
        gate.set()
        supervisor.drain()
        assert queued.state == CANCELLED
        assert "draining" in queued.error
        with pytest.raises(DrainingError):
            supervisor.submit(_spec(2))
        _wait_terminal(supervisor, running)
        assert running.state == DONE  # in-flight work finished, not killed

    def test_drain_is_idempotent(self):
        supervisor, _clock = _supervisor()
        supervisor.drain()
        supervisor.drain()
        assert supervisor.draining

    def test_drain_closes_the_span_file(self, tmp_path):
        """A span file left open for the garbage collector is a
        ResourceWarning under ``python -X dev``; drain closes it."""
        supervisor = JobSupervisor(
            ServerPolicy(workers=1),
            cache=ResultCache(None),
            workdir=tmp_path,
            clock=FakeServeClock(),
            runner=ScriptedRunner([]),
        )
        supervisor.start()
        _wait_terminal(supervisor, supervisor.submit(SPEC))
        assert (tmp_path / "trace" / "supervisor.spans.jsonl").exists()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            supervisor.drain()
            del supervisor
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


class TestViews:
    def test_view_is_json_safe_and_complete(self):
        supervisor, _clock = _supervisor(
            [{"status": "ok", "result": {"passed": True}}]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        import json

        view = json.loads(json.dumps(job.view()))
        assert view["state"] == DONE
        assert view["kind"] == "chaos"
        assert view["fingerprint"] == job.spec.fingerprint
        assert view["digest"] == job.digest

    def test_counts_track_states(self):
        supervisor, _clock = _supervisor(
            [{"status": "ok", "result": {"passed": True}}]
        )
        job = supervisor.submit(SPEC)
        _wait_terminal(supervisor, job)
        assert supervisor.counts()["done"] == 1
