"""Warm serve workers: one long-lived worker process per supervisor
thread.

A slot's worker runs job after job, and each result is independent of
the jobs that ran before it.  A crash, stall, deadline or drain
discards the worker, so the next attempt runs in a fresh process.  No
worker outlives the server, its drain, or the client connections it
inherited when it was forked."""

import asyncio
import http.client
import json
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.durable.watchdog import EnsembleWatchdog, WatchdogPolicy
from repro.obs.causal import get_causal_recorder, get_flight_recorder
from repro.obs.registry import MetricsRegistry
from repro.serve.clock import ServeClock
from repro.serve.loadgen import http_request
from repro.serve.server import JobServer
from repro.serve.specs import execute_spec, parse_job_spec, result_digest
from repro.serve.supervisor import (
    Job,
    JobSupervisor,
    ProcessJobRunner,
    ServerPolicy,
)
from repro.serve.worker import run_job

TINY = {
    "kind": "chaos",
    "params": {"specs": ["none"], "seeds": 1, "threads": 2, "iterations": 40},
}
#: Runs ~1.5 s in process: long enough to be killed mid-job.
LONG = {
    "kind": "chaos",
    "params": {"specs": ["none"], "seeds": 6, "iterations": 5000},
}
TERMINAL = ("done", "failed", "interrupted", "cancelled")


pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)


def _tiny(base_seed):
    return {"kind": "chaos", "params": dict(TINY["params"], base_seed=base_seed)}


def _alive(pid):
    """True while ``pid`` runs (a zombie left for its reaper is dead)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def _watchdog():
    watchdog = EnsembleWatchdog(WatchdogPolicy())
    watchdog.start()
    return watchdog


def _job(root, spec, index):
    """A job as the supervisor would hand it to the runner."""
    jobdir = pathlib.Path(root) / f"job-{index}"
    jobdir.mkdir()
    job = Job(id=f"job-{index}", spec=parse_job_spec(spec), index=index)
    job.attempts = 1
    job.progress_path = str(jobdir / "progress.json")
    job.journal_path = str(jobdir / "journal.jsonl")
    return job


def _run_server(tmp_path, policy, test, metrics=None):
    """Run ``await test(server, supervisor)`` against a real server
    (ProcessJobRunner, workdir-backed journal and cache)."""

    async def go():
        supervisor = JobSupervisor(
            policy, workdir=tmp_path / "serve", metrics=metrics
        )
        server = JobServer(supervisor, metrics=metrics)
        await server.start()
        try:
            await test(server, supervisor)
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )

    asyncio.run(go())


async def _submit(server, spec):
    _s, _h, data = await http_request(
        "127.0.0.1", server.port, "POST", "/jobs", body=spec
    )
    return json.loads(data)["job"]["id"]


async def _until_terminal(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _s, _h, data = await http_request(
            "127.0.0.1", server.port, "GET", f"/jobs/{job_id}"
        )
        job = json.loads(data)["job"]
        if job["state"] in TERMINAL:
            return job
        await asyncio.sleep(0.02)
    raise AssertionError(f"{job_id} never reached a terminal state")


def _children(pid):
    """Pids of the processes whose parent is ``pid``."""
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited since the listing
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.append(int(entry.name))
    return found


async def _kill_mid_job(server, job_id, timeout=60.0):
    """SIGKILL the worker running ``job_id`` once it has made progress;
    returns the killed pid and the pids of the children it had."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _s, _h, health = await http_request(
            "127.0.0.1", server.port, "GET", "/healthz"
        )
        _s, _h, progress = await http_request(
            "127.0.0.1", server.port, "GET", f"/jobs/{job_id}/progress"
        )
        workers = [
            w for w in json.loads(health)["workers"] if w["job"] == job_id
        ]
        if workers and json.loads(progress).get("cells_completed", 0) >= 1:
            pid = workers[0]["pid"]
            children = _children(pid)
            os.kill(pid, signal.SIGKILL)
            return pid, children
        await asyncio.sleep(0.02)
    raise AssertionError(f"{job_id} never made progress")


def _prometheus(text, name):
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    return None if match is None else float(match.group(1))


# ----------------------------------------------------------------------
# Results do not depend on job history.
# ----------------------------------------------------------------------
#: Per campaign kind: the parameter drawn and its choices, plus the
#: fixed parameters that keep every job in the tens of milliseconds.
_DRAWN = {
    "chaos": ("specs", (["none"], ["prob-crash"], ["torn-update"])),
    "sanitize": ("presets", (["e1"], ["racy"])),
    "zoo": ("algorithms", (["hogwild"], ["epoch-sgd"], ["locked"])),
    "heal": ("plans", (["none"], ["nan-poison"])),
    "verify": ("variants", (["epoch-sgd"],)),
}
_FIXED = {
    "chaos": {"seeds": 1, "threads": 2, "iterations": 40},
    "sanitize": {"seeds": 1},
    "zoo": {
        "adversaries": ["random"], "seeds": 1, "threads": 2,
        "iterations": 30,
    },
    "heal": {
        "algorithms": ["epoch-sgd"], "seeds": 1, "threads": 2,
        "iterations": 40,
    },
    "verify": {"max_steps": 24},
}


@st.composite
def tiny_specs(draw):
    kind = draw(st.sampled_from(sorted(_DRAWN)))
    name, choices = _DRAWN[kind]
    params = dict(_FIXED[kind], base_seed=draw(st.integers(1, 10**6)))
    params[name] = draw(st.sampled_from(choices))
    return {"kind": kind, "params": params}


_COLD = {}


def _cold_digest(spec):
    key = json.dumps(spec, sort_keys=True)
    if key not in _COLD:
        _COLD[key] = result_digest(execute_spec(spec))
    return _COLD[key]


@settings(max_examples=5, deadline=None)
@given(st.lists(tiny_specs(), min_size=2, max_size=4))
def test_results_do_not_depend_on_job_history(specs):
    """CLI run = served job, whatever ran in the worker before: one
    runner slot serves the drawn sequence, then its reverse, and every
    result digest equals an in-process run of the same spec."""
    runner = ProcessJobRunner(ServerPolicy(), ServeClock())
    pids = set()
    with tempfile.TemporaryDirectory() as root:
        try:
            for index, spec in enumerate(specs + specs[::-1]):
                job = _job(root, spec, index)
                outcome = runner.run(job, _watchdog(), lambda: False)
                assert outcome["status"] == "ok", outcome
                assert result_digest(outcome["result"]) == _cold_digest(spec)
                pids.add(job.worker_pid)
        finally:
            runner.close()
    assert len(pids) == 1  # one worker ran every job


def test_run_job_uninstalls_its_recorders(tmp_path):
    """A job's causal and flight recorders are process-wide while it
    runs and gone after, so the next job never records into its spill."""
    spill = tmp_path / "attempt-1.spans.jsonl"
    outcome = run_job(
        TINY,
        None,
        str(tmp_path / "progress.json"),
        {"trace": "ab" * 8, "attempt": 1, "spill": str(spill)},
    )
    assert outcome["status"] == "ok", outcome
    assert spill.read_text().count('"worker.run"') == 1
    assert get_causal_recorder() is None
    assert get_flight_recorder() is None


# ----------------------------------------------------------------------
# Worker lifecycle.
# ----------------------------------------------------------------------
class TestWorkerLifecycle:
    def test_reuse_then_fresh_worker_after_sigkill(self, tmp_path):
        """Three distinct jobs on one slot fork one worker; a SIGKILL
        mid-job forks a second, and the job still ends with the cold
        digest."""
        metrics = MetricsRegistry()
        seen = {}

        async def test(server, supervisor):
            pids = set()
            for base_seed in (1, 2, 3):
                job = await _until_terminal(
                    server, await _submit(server, _tiny(base_seed))
                )
                assert job["state"] == "done", job
                pids.add(job["worker_pid"])
            assert len(pids) == 1
            seen["starts"] = metrics.counter(
                "repro_serve_worker_starts_total"
            ).value
            job_id = await _submit(server, LONG)
            seen["killed"], _ = await _kill_mid_job(server, job_id)
            seen["job"] = await _until_terminal(server, job_id)
            _s, _h, text = await http_request(
                "127.0.0.1", server.port, "GET", "/metrics"
            )
            seen["metrics"] = text.decode("utf-8")

        _run_server(tmp_path, ServerPolicy(workers=1), test, metrics=metrics)
        assert seen["starts"] == 1
        job = seen["job"]
        assert job["state"] == "done" and job["attempts"] == 2, job
        assert job["worker_pid"] != seen["killed"]
        assert job["digest"] == result_digest(execute_spec(LONG))
        assert _prometheus(
            seen["metrics"], "repro_serve_worker_starts_total"
        ) == 2

    def test_sigkill_of_a_pooling_worker_is_a_crash(self, tmp_path):
        """A ``jobs > 1`` spec forks an ensemble pool inside the worker,
        and the pool's processes inherit the worker's pipe end and its
        fork sentinel.  Once the worker is SIGKILLed they hold both
        open, so its death alone must end the attempt as a crash, under
        the default policy too (no stall timeout, no deadline).  The
        pool shares the worker's process group and dies with it: none
        of its processes outlives the worker by more than 5 s."""
        seen = {}

        async def test(server, supervisor):
            job_id = await _submit(server, dict(LONG, jobs=2))
            seen["killed"], seen["pool"] = await _kill_mid_job(
                server, job_id
            )
            pool, deadline = seen["pool"], time.monotonic() + 5.0
            while any(map(_alive, pool)) and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            seen["orphans"] = [pid for pid in pool if _alive(pid)]
            seen["job"] = await _until_terminal(server, job_id, timeout=30.0)

        _run_server(tmp_path, ServerPolicy(), test)
        assert seen["pool"], "the job never forked its ensemble pool"
        assert seen["orphans"] == [], "pool processes outlived the worker"
        job = seen["job"]
        assert job["state"] == "done" and job["attempts"] == 2, job
        assert job["worker_pid"] != seen["killed"]

    def test_deadline_discards_the_worker(self, tmp_path):
        """A job past the server's ``job_deadline`` fails and takes its
        warm worker with it; the next job runs on a fresh one."""
        slow = dict(LONG, params=dict(LONG["params"], iterations=50000))
        specs = {"first": _tiny(1), "late": slow, "after": _tiny(2)}
        seen = {}

        async def test(server, supervisor):
            for name, spec in specs.items():
                seen[name] = await _until_terminal(
                    server, await _submit(server, spec)
                )
            seen["late_alive"] = _alive(seen["late"]["worker_pid"])

        _run_server(tmp_path, ServerPolicy(workers=1, job_deadline=1.0), test)
        first, late, after = seen["first"], seen["late"], seen["after"]
        assert first["state"] == "done" and after["state"] == "done"
        assert late["state"] == "failed" and "deadline" in late["error"], late
        assert late["worker_pid"] == first["worker_pid"]
        assert not seen["late_alive"]
        assert after["worker_pid"] != late["worker_pid"]

    def test_worker_does_not_hold_client_connections(self, tmp_path):
        """A worker forked while a client connection is open gives up
        its copy: the client sees EOF as soon as the server closes."""
        read_timeout = 2.0
        seen = {}

        async def test(server, supervisor):
            opened = time.monotonic()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n")  # never finished
            await writer.drain()
            job = await _until_terminal(
                server, await _submit(server, _tiny(7))
            )
            assert job["state"] == "done", job
            assert time.monotonic() - opened < read_timeout  # forked in time
            # The server answers 408 at read_timeout and closes; EOF
            # must follow within a second of that.
            data = await asyncio.wait_for(
                reader.read(),
                timeout=opened + read_timeout + 1.0 - time.monotonic(),
            )
            writer.close()
            seen["head"] = data.split(b"\r\n", 1)[0]
            seen["worker_alive"] = _alive(job["worker_pid"])

        _run_server(
            tmp_path,
            ServerPolicy(workers=1, read_timeout=read_timeout),
            test,
        )
        assert b" 408 " in seen["head"]
        assert seen["worker_alive"]  # the idle worker held no copy

    def test_drain_joins_every_worker(self, tmp_path):
        before = set(multiprocessing.active_children())
        pids = []

        async def test(server, supervisor):
            ids = [await _submit(server, _tiny(s)) for s in (11, 12, 13)]
            for job_id in ids:
                job = await _until_terminal(server, job_id)
                assert job["state"] == "done", job
                pids.append(job["worker_pid"])

        _run_server(tmp_path, ServerPolicy(workers=2), test)
        assert set(multiprocessing.active_children()) - before == set()
        assert not any(_alive(pid) for pid in pids)


def test_sigkilled_server_leaves_no_worker(tmp_path):
    """Each worker exits on EOF of its own pipe, so a server killed
    without a drain leaves no worker behind.  Two workers run: the
    second, forked while the first is busy, must not hold the first's
    pipe open."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--workdir", str(tmp_path / "serve")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = server.stdout.readline()
        port = int(re.search(r"http://[^:]+:(\d+)", line).group(1))

        def call(method, path, body=None):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                payload = None if body is None else json.dumps(body)
                connection.request(method, path, body=payload)
                return json.loads(connection.getresponse().read())
            finally:
                connection.close()

        def until(job, states):
            deadline = time.monotonic() + 60.0
            while job["state"] not in states and time.monotonic() < deadline:
                time.sleep(0.02)
                job = call("GET", f"/jobs/{job['id']}")["job"]
            return job

        busy = until(call("POST", "/jobs", LONG)["job"], ("running",) + TERMINAL)
        assert busy["state"] == "running", busy
        done = until(call("POST", "/jobs", TINY)["job"], TERMINAL)
        assert done["state"] == "done", done
        busy = call("GET", f"/jobs/{busy['id']}")["job"]
        pids = {busy["worker_pid"], done["worker_pid"]}
        assert len(pids) == 2 and all(map(_alive, pids)), (busy, done)
    finally:
        server.kill()
        server.wait(timeout=30)
        server.stdout.close()
    # The busy worker exits when its reply finds the pipe closed.
    deadline = time.monotonic() + 5.0
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids)), f"workers {pids} outlived their server"
