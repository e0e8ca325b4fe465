"""``serve-mixed``: a ``repro serve`` subprocess and one closed-loop client.

The server runs with its defaults (two supervisor workers).  One client
in this process keeps one request outstanding at a time.  Each pass
starts a fresh server (its set-up is one ``setup_s`` sample) and submits
the seed's distinct small ``zoo`` and ``chaos`` specs in order:

* cold: each spec is submitted and polled until it is ``done`` (it
  forks a worker and computes);
* warm: after each cold job, ``WARM_PER_JOB`` specs already done are
  resubmitted; each is a certified cache hit answered ``200`` without
  simulating.  Taking the hits between the cold jobs spreads them over
  the whole run.

A fresh server per pass means every pass computes the same specs cold,
so each spec's latency is a median over the passes (see
:class:`common.Passes`).  The spec mix is fixed (algorithm, adversary
and fault plan cycle in a fixed order); the seed only draws the specs'
``base_seed`` values, so every seed asks for the same amount of work on
different inputs.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import common

ALGORITHMS = (
    "epoch-sgd",
    "full-sgd",
    "hogwild",
    "leashed",
    "locked",
    "momentum",
    "staleness-aware",
)
CHAOS_PLANS = ("none", "stall")
COLD_SPECS = 110  # ten samples beyond the p90
WARM_PER_JOB = 5
MIN_PASSES = 3
POLL_S = 0.01
TERMINAL = ("done", "failed", "interrupted", "cancelled")
LAYERS = ("admission", "queue_wait", "spawn", "compute", "completion_lag", "hit_server")


def make_specs(seed: int, count: int = COLD_SPECS) -> List[Dict[str, Any]]:
    """``count`` distinct job specs for ``seed``."""
    rng = random.Random(f"serve-mixed:{seed}")
    specs = []
    for index, base in enumerate(rng.sample(range(1, 10**6), count)):
        turn = index // 2
        if index % 2 == 0:
            params = {
                "algorithms": [ALGORITHMS[turn % len(ALGORITHMS)]],
                "adversaries": [common.ADVERSARY_NAMES[turn % 5]],
                "seeds": 2,
                "base_seed": base,
                "iterations": 100,
            }
            specs.append({"kind": "zoo", "params": params})
        else:
            params = {
                "specs": [CHAOS_PLANS[turn % len(CHAOS_PLANS)]],
                "seeds": 1,
                "base_seed": base,
                "iterations": 120,
            }
            specs.append({"kind": "chaos", "params": params})
    return specs


def request(port: int, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
    """One ``Connection: close`` round trip."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, workdir: Any) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self._log = open(workdir / "server.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workdir", str(workdir)],
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            line = self.proc.stdout.readline() if self.proc.stdout else ""
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            while True:
                try:
                    if request(self.port, "GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > 60:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def _job(data: bytes) -> Dict[str, Any]:
    return json.loads(data.decode("utf-8"))["job"]


def _drive(
    port: int,
    specs: List[Dict[str, Any]],
    outcome: common.Outcome,
    label: str,
    tick: Optional[Callable[[], None]],
) -> Dict[str, Any]:
    """Every spec cold, each followed by ``WARM_PER_JOB`` cached resubmits
    of specs already done; every answer checked.  ``tick`` runs before
    each cold job, and the wall leaves it out."""
    from repro.serve.specs import result_digest

    common.quiesce()
    start = time.perf_counter()
    cold: List[float] = []
    warm: List[float] = []
    jobs: List[Dict[str, Any]] = []
    steps = 0
    aside = 0.0
    for index, spec in enumerate(specs):
        if tick is not None:
            begun = time.perf_counter()
            tick()
            aside += time.perf_counter() - begun
        submitted = time.perf_counter()
        status, data = request(port, "POST", "/jobs", spec)
        job = _job(data) if status == 202 else {"id": None, "state": "refused"}
        while job["state"] not in TERMINAL:
            time.sleep(POLL_S)
            status, data = request(port, "GET", f"/jobs/{job['id']}")
            if status != 200:
                break
            job = _job(data)
        done = time.perf_counter()
        # A failed job keeps its place, so spec i is unit i in every pass.
        cold.append(done - submitted)
        ok = job["state"] == "done" and result_digest(job["result"]) == job["digest"]
        outcome.check(
            ok, f"cold job {index} ended {job['state']} (status {status}, {label})"
        )
        if ok:
            steps += sum(row["steps"] for row in job["result"]["report"]["outcomes"])
            jobs.append({"id": job["id"], "digest": job["digest"], "spec": spec,
                         "submitted": submitted, "done": done})
        for turn in range(WARM_PER_JOB if jobs else 0):
            entry = jobs[(index * WARM_PER_JOB + turn) % len(jobs)]
            sent = time.perf_counter()
            status, data = request(port, "POST", "/jobs", entry["spec"])
            warm.append(time.perf_counter() - sent)
            hit = _job(data) if status == 200 else {}
            outcome.check(
                bool(hit.get("cached")) and hit.get("digest") == entry["digest"],
                f"warm resubmit of {entry['id']} answered {status} "
                f"cached={hit.get('cached')} ({label})",
            )
    return {
        "wall": time.perf_counter() - start - aside,
        "cold": cold,
        "warm": warm,
        "jobs": jobs,
        "steps": steps,
    }


def run_pass(
    specs: List[Dict[str, Any]],
    workdir: Any,
    outcome: common.Outcome,
    label: str,
    traced: bool = False,
    tick: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """One pass on a fresh server.  ``traced`` also reads the server's
    ``/metrics`` before and after and every job's ``/jobs/<id>/trace``."""
    server = Server(workdir)
    try:
        before = _prometheus(server.port) if traced else {}
        one = _drive(server.port, specs, outcome, label, tick)
        if traced:
            one["metrics"] = _prometheus(server.port)
            one["metrics_before"] = before
            one["traces"] = {}
            for entry in one["jobs"]:
                status, data = request(server.port, "GET", f"/jobs/{entry['id']}/trace")
                outcome.check(status == 200, f"trace of {entry['id']} answered {status}")
                if status == 200:
                    one["traces"][entry["id"]] = json.loads(data.decode("utf-8"))
    finally:
        server.stop()
    one["setup_s"] = server.setup_s
    return one


def measure(seed: int, seconds: float, workdir: Any) -> common.Outcome:
    """Untraced run: passes for ``seconds``, each on a fresh server."""
    outcome = common.Outcome()
    specs = make_specs(seed)
    passes = common.Passes()
    setup: List[float] = []
    warm: List[float] = []
    steps = 0
    started = time.perf_counter()
    while passes.more(started, seconds, MIN_PASSES):
        begun = time.perf_counter()
        label = f"pass {len(setup)}"
        one = run_pass(
            specs, workdir / f"server{len(setup)}", outcome, label, tick=passes.tick
        )
        setup.append(one["setup_s"])
        warm.extend(one["warm"])
        steps = one["steps"]
        passes.add(one["cold"], one["wall"], time.perf_counter() - begun)
    cold = passes.unit_medians()
    run_s = passes.wall()
    raw = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "steps_per_s": steps / run_s,
        "cold_job_p50_s": common.percentile(cold, 50),
        "cold_job_p90_s": common.percentile(cold, 90),
        "warm_hit_p50_s": statistics.median(warm),
        "peak_rss_mb": common.peak_rss_mb(include_self=False),
    }
    outcome.metrics = passes.at_reference_speed(raw)
    outcome.notes.append(
        f"serve-mixed passes={len(setup)} cold_jobs={len(cold)}x{len(setup)} "
        f"warm_hits={len(warm)} steps/pass={steps}"
    )
    outcome.notes.append(f"speed {passes.speed():.4f} raw {json.dumps(raw)}")
    return outcome


def _prometheus(port: int) -> Dict[str, float]:
    status, data = request(port, "GET", "/metrics")
    values: Dict[str, float] = {}
    if status != 200:
        return values
    for line in data.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                continue
    return values


def _file_lines(workdir: Any) -> Tuple[int, int, int]:
    """(journal files, journal lines, span-spill lines) under ``workdir``."""
    journals = list((workdir / "journal").glob("*.jsonl"))
    spills = list(workdir.glob("trace/*.jsonl")) + list(workdir.glob("jobs/*/*.spans.jsonl"))
    count = lambda path: len(path.read_bytes().splitlines())  # noqa: E731
    return len(journals), sum(map(count, journals)), sum(map(count, spills))


def _job_layers(one: Dict[str, Any]) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Serve-layer seconds from each job's stitched ``/trace`` spans."""
    totals = dict.fromkeys(LAYERS, 0.0)
    totals["attempts"] = 0
    events: List[Dict[str, Any]] = []
    origin = one["jobs"][0]["submitted"] if one["jobs"] else 0.0
    for lane, entry in enumerate(one["jobs"]):
        trace = one["traces"].get(entry["id"], {}).get("traceEvents", [])
        spans: Dict[str, List[Dict[str, Any]]] = {}
        for event in trace:
            if event.get("ph") == "X":
                spans.setdefault(event["name"], []).append(event)
        request_span = None
        for event in spans.get("serve.request", []):
            if event["args"].get("job") == entry["id"]:
                request_span = event
                totals["admission"] += event["dur"] / 1e6
            elif event["args"].get("status") == 200:
                totals["hit_server"] += event["dur"] / 1e6
        admission = spans.get("serve.admission", [None])[0]
        attempts = spans.get("serve.attempt", [])
        worker = spans.get("worker.run", [])
        totals["attempts"] += len(attempts)
        if request_span and admission and attempts and worker:
            run = worker[-1]
            totals["queue_wait"] += (attempts[0]["ts"] - admission["ts"]) / 1e6
            totals["spawn"] += (run["ts"] - attempts[-1]["ts"]) / 1e6
            totals["compute"] += run["dur"] / 1e6
            worker_end = (run["ts"] + run["dur"] - request_span["ts"]) / 1e6
            totals["completion_lag"] += entry["done"] - entry["submitted"] - worker_end
        shift = (entry["submitted"] - origin) * 1e6
        for event in trace:
            moved = dict(event, pid=1 + lane * 10 + int(event.get("pid", 0)))
            if "ts" in moved:
                moved["ts"] = round(moved["ts"] + shift, 1)
            events.append(moved)
    return totals, events


def trace(seed: int, workdir: Any, count: int = COLD_SPECS) -> Tuple[common.Outcome, Dict]:
    """Traced run: an untraced pass, then a pass that also fetches every
    job's ``/jobs/<id>/trace`` and the server's ``/metrics``."""
    outcome = common.Outcome()
    specs = make_specs(seed, count)
    plain = run_pass(specs, workdir / "plain", outcome, "untraced")
    traced = run_pass(specs, workdir / "traced", outcome, "traced", traced=True)
    journals, journal_lines, spill_lines = _file_lines(workdir / "traced")
    before, after = traced["metrics_before"], traced["metrics"]
    delta = lambda name: after.get(name, 0.0) - before.get(name, 0.0)  # noqa: E731
    totals, events = _job_layers(traced)
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    metrics.update(
        {
            "serve.requests": delta("repro_serve_http_requests_total"),
            "serve.refused": delta("repro_serve_jobs_rejected_total"),
            "serve.attempts": totals["attempts"],
            "serve.cache_hits": delta("repro_serve_cache_hits_total"),
            "serve.cache_misses": delta("repro_serve_jobs_submitted_total"),
            "durable.journal_records": journal_lines - journals,
            "durable.appends": journal_lines + spill_lines,
            "obs.trace_overhead": traced["wall"] / plain["wall"],
            "obs.layer_coverage": (sum(traced["cold"]) + sum(traced["warm"]))
            / traced["wall"],
        }
    )
    for name in LAYERS:
        metrics[f"serve.{name}_s"] = totals[name]
    outcome.metrics = metrics
    rows = {
        f"serve.{name}": (len(traced["jobs"]), totals[name], totals[name])
        for name in LAYERS[:-1]
    }
    rows["serve.hit_server"] = (len(traced["warm"]), totals["hit_server"], totals["hit_server"])
    outcome.notes.append(
        "serve-mixed per-step layers read 0: all simulation runs in server workers; "
        "serve layers come from the server's /jobs/<id>/trace spans and /metrics"
    )
    return outcome, {"layers": [], "events": events, "rows": rows, "cal": {}}
