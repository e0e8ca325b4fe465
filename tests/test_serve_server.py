"""HTTP layer tests against a live in-process server on an ephemeral
port: endpoint routing, status-code mapping (202/200-cached/400/404/
405/408/429), response byte-determinism, health and metrics exposition,
and the slow-loris read cutoff."""

import asyncio
import json
import threading

from repro.obs.registry import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.loadgen import http_request
from repro.serve.server import JobServer
from repro.serve.supervisor import JobSupervisor, ServerPolicy

SPEC = {
    "kind": "chaos",
    "params": {"specs": ["none"], "seeds": 2, "iterations": 60},
}


class OkRunner:
    """Instant deterministic runner (no child processes)."""

    def run(self, job, watchdog, should_stop):
        return {
            "status": "ok",
            "result": {"passed": True, "fp": job.spec.fingerprint},
        }


class GatedRunner(OkRunner):
    def __init__(self):
        self.gate = threading.Event()

    def run(self, job, watchdog, should_stop):
        self.gate.wait(timeout=30.0)
        return super().run(job, watchdog, should_stop)


def _serve(test, policy=None, runner=None, metrics=None):
    """Run ``await test(server)`` against a started ephemeral server."""

    async def go():
        supervisor = JobSupervisor(
            policy if policy is not None else ServerPolicy(workers=1),
            cache=ResultCache(None),
            runner=runner if runner is not None else OkRunner(),
            metrics=metrics,
        )
        server = JobServer(supervisor, metrics=metrics)
        await server.start()
        try:
            await test(server)
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )

    asyncio.run(go())


async def _until_done(server, job_id, timeout=30.0):
    clock = server.clock
    deadline = clock.monotonic() + timeout
    while clock.monotonic() < deadline:
        status, _h, data = await http_request(
            "127.0.0.1", server.port, "GET", f"/jobs/{job_id}"
        )
        assert status == 200
        job = json.loads(data)["job"]
        if job["state"] in ("done", "failed", "interrupted", "cancelled"):
            return job
        await asyncio.sleep(0.02)
    raise AssertionError("job never reached a terminal state")


class TestSubmitLifecycle:
    def test_submit_poll_and_cached_resubmit_byte_identical(self):
        async def test(server):
            status, _h, first = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            assert status == 202
            job = json.loads(first)["job"]
            assert job["cached"] is False
            done = await _until_done(server, job["id"])
            assert done["state"] == "done"
            # Resubmit: 200, cached marker, byte-identical result body.
            status2, _h2, second = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            assert status2 == 200
            job2 = json.loads(second)["job"]
            assert job2["cached"] is True
            canonical = lambda j: json.dumps(  # noqa: E731
                j["result"], sort_keys=True, separators=(",", ":")
            )
            assert canonical(job2) == canonical(done)
            assert job2["digest"] == done["digest"]
            from repro.serve.specs import result_digest

            assert result_digest(job2["result"]) == job2["digest"]

        _serve(test)

    def test_jobs_listing_and_missing_job(self):
        async def test(server):
            await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "GET", "/jobs"
            )
            assert status == 200
            assert len(json.loads(data)["jobs"]) == 1
            status404, _h, _d = await http_request(
                "127.0.0.1", server.port, "GET", "/jobs/job-9999"
            )
            assert status404 == 404

        _serve(test)

    def test_progress_endpoint_reports_state(self):
        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            await _until_done(server, job["id"])
            status, _h, progress = await http_request(
                "127.0.0.1", server.port, "GET",
                f"/jobs/{job['id']}/progress",
            )
            assert status == 200
            body = json.loads(progress)
            assert body["id"] == job["id"]
            assert "cells_completed" in body

        _serve(test)


class TestErrorMapping:
    def test_malformed_json_answers_400(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                raw_body=b"not json",
            )
            assert status == 400
            assert "error" in json.loads(data)

        _serve(test)

    def test_invalid_spec_answers_400_with_detail(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "chaos", "params": {"bogus": 1}},
            )
            assert status == 400
            assert "bogus" in json.loads(data)["error"]

        _serve(test)

    def test_out_of_range_chaos_param_answers_400(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "chaos", "params": {"check_interval": 0}},
            )
            assert status == 400
            assert "check_interval" in json.loads(data)["error"]

        _serve(test)

    def test_out_of_range_heal_param_answers_400(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "heal", "params": {"adversary": "bogus"}},
            )
            assert status == 400
            assert "unknown adversary 'bogus'" in json.loads(data)["error"]

        _serve(test)

    def test_param_of_another_json_type_answers_400(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "verify", "params": {"memoize": "off"}},
            )
            assert status == 400
            assert "bad verify param 'memoize'" in json.loads(data)["error"]

        _serve(test)

    def test_unknown_endpoint_404_and_wrong_method_405(self):
        async def test(server):
            status, _h, _d = await http_request(
                "127.0.0.1", server.port, "GET", "/nope"
            )
            assert status == 404
            status405, _h, _d = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs/job-0001"
            )
            assert status405 == 405

        _serve(test)

    def test_overload_answers_429_with_retry_after(self):
        runner = GatedRunner()

        async def test(server):
            # Worker busy + queue of 1 full -> third distinct spec shed.
            specs = [
                {"kind": "chaos",
                 "params": {"specs": ["none"], "base_seed": i}}
                for i in range(3)
            ]
            s1, _h, first = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=specs[0]
            )
            # Wait until the worker has popped the first job off the
            # queue, else the second submission races it for the slot.
            job_id = json.loads(first)["job"]["id"]
            for _ in range(500):
                _s, _h, data = await http_request(
                    "127.0.0.1", server.port, "GET", f"/jobs/{job_id}"
                )
                if json.loads(data)["job"]["state"] == "running":
                    break
                await asyncio.sleep(0.01)
            s2, _h, _d = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=specs[1]
            )
            s3, headers, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=specs[2]
            )
            assert (s1, s2) == (202, 202)
            assert s3 == 429
            assert float(headers["retry-after"]) == 1.0
            assert "retry" in json.loads(data)["error"]
            runner.gate.set()

        _serve(
            test,
            policy=ServerPolicy(workers=1, max_queue=1),
            runner=runner,
        )


class TestHealthAndMetrics:
    def test_healthz_shape(self):
        async def test(server):
            status, _h, data = await http_request(
                "127.0.0.1", server.port, "GET", "/healthz"
            )
            assert status == 200
            health = json.loads(data)
            assert health["status"] == "ok"
            assert set(health) == {"status", "jobs", "workers", "cache"}

        _serve(test)

    def test_metrics_exposition_counts_requests(self):
        metrics = MetricsRegistry()

        async def test(server):
            await http_request("127.0.0.1", server.port, "GET", "/healthz")
            status, headers, data = await http_request(
                "127.0.0.1", server.port, "GET", "/metrics"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = data.decode()
            assert "repro_serve_http_requests_total" in text
            assert "repro_serve_queue_depth" in text

        _serve(test, metrics=metrics)

    def test_metrics_404_without_registry(self):
        async def test(server):
            status, _h, _d = await http_request(
                "127.0.0.1", server.port, "GET", "/metrics"
            )
            assert status == 404

        _serve(test)


class TestSlowLoris:
    def test_stalled_request_cut_off_with_408(self):
        async def test(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"POST /jobs HT")  # ...and never finish
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=10.0)
            assert b" 408 " in data.split(b"\r\n", 1)[0]
            writer.close()

        _serve(test, policy=ServerPolicy(workers=1, read_timeout=0.2))

    def test_oversized_body_rejected_413(self):
        async def test(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
            )
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=10.0)
            assert b" 413 " in data.split(b"\r\n", 1)[0]
            writer.close()

        _serve(test)


def _serve_workdir(test, tmp_path, policy=None, runner=None):
    """Like :func:`_serve` but with a workdir-backed supervisor, so
    causal tracing (spills, trace ids, ``/trace``) is live."""

    async def go():
        supervisor = JobSupervisor(
            policy if policy is not None else ServerPolicy(workers=1),
            workdir=tmp_path,
            runner=runner if runner is not None else OkRunner(),
        )
        server = JobServer(supervisor)
        await server.start()
        try:
            await test(server)
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )

    asyncio.run(go())


class TestMetricsExposition:
    def test_prometheus_content_type_and_trailing_newline(self):
        metrics = MetricsRegistry()

        async def test(server):
            _s, headers, data = await http_request(
                "127.0.0.1", server.port, "GET", "/metrics"
            )
            # The exact exposition-format header scrapers key on.
            assert headers["content-type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            assert data.endswith(b"\n")
            assert not data.endswith(b"\n\n")

        _serve(test, metrics=metrics)


class TestLongPoll:
    def test_terminal_job_answers_immediately(self):
        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            await _until_done(server, job["id"])
            before = server.clock.monotonic()
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET",
                f"/jobs/{job['id']}/progress?wait=30",
            )
            assert status == 200
            assert json.loads(body)["state"] == "done"
            # Terminal state short-circuits the hold: no 30s park.
            assert server.clock.monotonic() - before < 10.0

        _serve(test)

    def test_wait_is_clamped_to_policy_ceiling(self):
        runner = GatedRunner()

        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            before = server.clock.monotonic()
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET",
                f"/jobs/{job['id']}/progress?wait=9999",
            )
            elapsed = server.clock.monotonic() - before
            assert status == 200
            assert json.loads(body)["state"] in ("queued", "running")
            # Held for ~long_poll_max (0.2s), not the requested 9999s.
            assert 0.1 <= elapsed < 10.0
            runner.gate.set()

        _serve(
            test,
            policy=ServerPolicy(
                workers=1, long_poll_max=0.2, poll_interval=0.02
            ),
            runner=runner,
        )

    def test_since_below_current_progress_returns_at_once(self):
        runner = GatedRunner()

        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET",
                f"/jobs/{job['id']}/progress?wait=30&since=-1",
            )
            assert status == 200  # 0 cells > since=-1 -> no hold
            runner.gate.set()

        _serve(
            test,
            policy=ServerPolicy(workers=1, long_poll_max=0.5),
            runner=runner,
        )

    def test_non_numeric_wait_rejected_400(self):
        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET",
                f"/jobs/{job['id']}/progress?wait=soon",
            )
            assert status == 400
            assert "numeric" in json.loads(body)["error"]

        _serve(test)

    def test_unknown_job_long_poll_404(self):
        async def test(server):
            status, _h, _d = await http_request(
                "127.0.0.1", server.port, "GET",
                "/jobs/job-9999/progress?wait=1",
            )
            assert status == 404

        _serve(test)


class TestTraceEndpoint:
    def test_trace_404_without_workdir(self):
        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            await _until_done(server, job["id"])
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET", f"/jobs/{job['id']}/trace"
            )
            assert status == 404
            assert "tracing disabled" in json.loads(body)["error"]

        _serve(test)

    def test_stitched_trace_covers_request_admission_attempt(self, tmp_path):
        async def test(server):
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC
            )
            job = json.loads(data)["job"]
            assert len(job["trace"]) == 16  # minted from the fingerprint
            await _until_done(server, job["id"])
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "GET", f"/jobs/{job['id']}/trace"
            )
            assert status == 200
            events = json.loads(body)["traceEvents"]
            names = {e["name"] for e in events if e["ph"] == "X"}
            assert {"serve.request", "serve.admission",
                    "serve.attempt"} <= names
            # The admission flows from the request span: one s/f pair.
            assert any(e["ph"] == "s" for e in events)
            assert any(e["ph"] == "f" for e in events)

        _serve_workdir(test, tmp_path)

    def test_trace_header_honored_and_validated(self, tmp_path):
        async def test(server):
            wanted = "deadbeefcafef00d"
            _s, _h, data = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs", body=SPEC,
                headers={"X-Repro-Trace-Id": wanted},
            )
            assert json.loads(data)["job"]["trace"] == wanted
            status, _h, body = await http_request(
                "127.0.0.1", server.port, "POST", "/jobs",
                body={"kind": "chaos",
                      "params": {"specs": ["none"], "base_seed": 9}},
                headers={"X-Repro-Trace-Id": "NOT-HEX!"},
            )
            assert status == 400
            assert "trace id" in json.loads(body)["error"]

        _serve_workdir(test, tmp_path)
