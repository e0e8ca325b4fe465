"""The pinned chaos acceptance property (ISSUE 9): under the loadgen
fault mix — worker SIGKILLs, duplicate floods, malformed specs,
slow-loris connections — a real server (child processes and all)
returns only structured outcomes, the certified cache never serves a
report differing from a cold fixed-seed run, and drain leaves a journal
from which ``--resume`` reproduces the interrupted job's report
byte-identically."""

import asyncio
import json
import time

from repro.cli import main
from repro.serve.loadgen import LoadGenerator, LoadPlan, http_request
from repro.serve.server import JobServer
from repro.serve.specs import execute_spec, parse_job_spec, result_digest
from repro.serve.supervisor import JobSupervisor, ServerPolicy


def _run_server(tmp_path, policy, test):
    """Run ``await test(server, supervisor)`` against a real server
    (ProcessJobRunner, workdir-backed journal + cache)."""

    async def go():
        supervisor = JobSupervisor(policy, workdir=tmp_path / "serve")
        server = JobServer(supervisor)
        await server.start()
        try:
            await test(server, supervisor)
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )

    asyncio.run(go())


class TestChaosAcceptance:
    def test_fault_mix_structured_outcomes_and_certified_cache(
        self, tmp_path
    ):
        spec = {
            "kind": "chaos",
            "params": {"specs": ["none"], "seeds": 4, "iterations": 3000},
        }
        plan = LoadPlan(
            spec=spec,
            requests=2,
            duplicates=4,
            malformed=3,
            slow_loris=2,
            kill_workers=1,
            poll_interval=0.05,
            deadline=120.0,
        )
        reports = {}

        async def test(server, supervisor):
            generator = LoadGenerator("127.0.0.1", server.port, plan)
            reports["load"] = await generator.run_async()
            # Server must still be healthy after the whole mix.
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "GET", "/healthz"
            )
            reports["health"] = (status, json.loads(data))

        _run_server(
            tmp_path,
            ServerPolicy(workers=2, max_queue=8, read_timeout=0.5),
            test,
        )
        report = reports["load"]
        # 1. Structured outcomes only: no hangs, no surprise statuses.
        assert report.ok, report.render()
        assert report.statuses.get(400, 0) == plan.malformed
        # 2. Every submitted job finished despite the worker SIGKILL
        #    (crash -> respawn -> journal resume).
        assert report.jobs_done == plan.requests
        assert report.jobs_failed == 0
        # 3. Certified cache: server results byte-identical to a cold
        #    in-process run of the same fixed-seed spec.
        parsed = parse_job_spec(spec)
        cold = execute_spec(spec)
        status, health = reports["health"]
        assert status == 200 and health["status"] == "ok"
        cache_file = (
            tmp_path / "serve" / "cache" / f"{parsed.fingerprint}.json"
        )
        entry = json.loads(cache_file.read_text())
        assert entry["result"] == cold
        assert entry["digest"] == result_digest(cold)

    def test_drain_leaves_resumable_journal_and_503s_new_work(
        self, tmp_path
    ):
        spec = {
            "kind": "chaos",
            "params": {"specs": ["none"], "seeds": 6, "iterations": 5000},
        }
        outcome = {}

        async def test(server, supervisor):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=spec
            )
            job_id = json.loads(data)["job"]["id"]
            # Wait for real progress so the journal holds a partial.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _s, _h, progress = await http_request(
                    "127.0.0.1", server.port, "GET",
                    f"/jobs/{job_id}/progress",
                )
                if json.loads(progress).get("cells_completed", 0) >= 1:
                    break
                await asyncio.sleep(0.05)
            # SIGTERM-equivalent: drain stops the worker at a safe point.
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "GET", f"/jobs/{job_id}"
            )
            outcome["job"] = json.loads(data)["job"]
            # Queued submissions now get a structured 503, not silence.
            status503, _h, _d = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "chaos", "params": {"specs": ["none"]}},
            )
            outcome["post_drain_status"] = status503

        _run_server(tmp_path, ServerPolicy(workers=1), test)
        job = outcome["job"]
        assert outcome["post_drain_status"] == 503
        assert job["state"] == "interrupted", job
        journal_path = job["journal"]
        # The journal resumes OUTSIDE the server, through the same
        # fingerprint the CLI computes, to the byte-identical report.
        from repro.durable.journal import RunJournal
        from repro.experiments.grid import get_campaign
        from repro.serve.specs import journal_fingerprint

        parsed = parse_job_spec(spec)
        chaos = get_campaign("chaos")
        journal = RunJournal.open(
            journal_path, journal_fingerprint(parsed), resume=True
        )
        assert journal.total_completed >= 1  # the partial is real
        resumed = chaos.run(chaos.build(parsed.params), journal=journal)
        journal.close()
        cold = chaos.run(chaos.build(parsed.params))
        assert resumed.to_json() == cold.to_json()


class TestLoadtestCli:
    def test_self_hosted_loadtest_exit_zero_and_report(self, tmp_path, capsys):
        code = main(
            [
                "loadtest", "--self-host",
                "--workdir", str(tmp_path / "lt"),
                "--requests", "1", "--duplicates", "2",
                "--malformed", "2", "--slow-loris", "1",
                "--iterations", "60",
                "--out", str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        summary = json.loads(
            (tmp_path / "out" / "loadtest_report.json").read_text()
        )
        assert summary["ok"] is True
        assert summary["statuses"].get("400") == 2


class TestCausalTraceAcceptance:
    """Acceptance (ISSUE 10): a job that crashes once and resumes
    produces ONE stitched Perfetto trace — request, admission, both
    attempts, worker spans, ensemble chunks — connected by flow events,
    plus a non-empty flight-recorder dump for the crashed attempt."""

    def test_crashed_and_resumed_job_yields_one_stitched_trace(
        self, tmp_path
    ):
        import os
        import signal

        from repro.obs.causal import span_id

        spec = {
            "kind": "chaos",
            "params": {"specs": ["none"], "seeds": 4, "iterations": 3000},
        }
        outcome = {}

        async def test(server, supervisor):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=spec
            )
            job = json.loads(data)["job"]
            outcome["trace_id"] = job["trace"]
            # Let the first attempt make real progress, then SIGKILL it.
            deadline = time.monotonic() + 60.0
            pid = None
            while time.monotonic() < deadline and pid is None:
                _s, _h, health = await http_request(
                    "127.0.0.1", server.port, "GET", "/healthz"
                )
                _s2, _h2, progress = await http_request(
                    "127.0.0.1", server.port, "GET",
                    f"/jobs/{job['id']}/progress",
                )
                cells = json.loads(progress).get("cells_completed", 0)
                workers = json.loads(health)["workers"]
                if cells >= 1 and workers:
                    pid = workers[0]["pid"]
                    break
                await asyncio.sleep(0.05)
            assert pid is not None, "worker never started making progress"
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                _s, _h, data = await http_request(
                    "127.0.0.1", server.port, "GET", f"/jobs/{job['id']}"
                )
                view = json.loads(data)["job"]
                if view["state"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.05)
            outcome["job"] = view
            _s, _h, stitched = await http_request(
                "127.0.0.1", server.port, "GET", f"/jobs/{job['id']}/trace"
            )
            assert _s == 200
            outcome["trace"] = json.loads(stitched)

        _run_server(tmp_path, ServerPolicy(workers=1), test)
        job = outcome["job"]
        assert job["state"] == "done", job
        assert job["attempts"] == 2  # exactly one crash + one resume
        tid = outcome["trace_id"]
        events = outcome["trace"]["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"serve.request", "serve.admission", "serve.attempt",
                "worker.run"} <= names
        assert names & {"ensemble.seed", "ensemble.chunk"}
        attempts = sorted(
            e["args"]["key"] for e in complete if e["name"] == "serve.attempt"
        )
        assert attempts == ["attempt-1", "attempt-2"]
        # Flow arrows connect the retry chain: attempt-2 is flow-linked
        # from attempt-1, and the resumed worker.run from attempt-2.
        for name, key in (("serve.attempt", "attempt-2"),
                          ("worker.run", "attempt-2")):
            dest = span_id(tid, name, key)
            assert any(e["ph"] == "s" and e["id"] == dest for e in events)
            assert any(e["ph"] == "f" and e["id"] == dest for e in events)
        # The crashed attempt left a flight-recorder dump whose
        # deterministic section records the escalation.
        jobdir = tmp_path / "serve" / "jobs" / job["id"]
        dump_path = jobdir / "flight-supervisor-attempt-1.json"
        assert dump_path.exists()
        dump = json.loads(dump_path.read_text())
        assert dump["reason"] == "retry-escalation"
        assert dump["events"], "deterministic section must be non-empty"
        retries = [e for e in dump["events"] if e["name"] == "serve.retry"]
        assert retries and retries[0]["args"]["status"] == "crash"
