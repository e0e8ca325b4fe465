"""Supervised job pool: admission control, retry ladder, drain.

This is the robustness core of ``repro.serve``.  The HTTP layer above
it is a thin translator; every guarantee the service makes lives here:

* **Bounded admission.**  The queue holds at most
  :attr:`ServerPolicy.max_queue` jobs.  A submission past that raises
  :class:`AdmissionError` (HTTP 429 + ``Retry-After``) instead of
  growing memory without bound — load is shed explicitly, never
  absorbed silently.
* **Coalescing.**  A submission whose fingerprint matches a queued or
  running job attaches to it instead of running twice; a fingerprint
  already in the :class:`~repro.serve.cache.ResultCache` is served
  instantly with ``cached: true``.  Duplicate floods therefore cost
  one run, total.
* **Supervision.**  Each worker thread owns one long-lived worker
  *process* (:mod:`repro.serve.worker`), forked with the thread's
  first job, and sends it job after job over a pipe; the outcome comes
  back over the same pipe.  One
  :class:`~repro.durable.watchdog.EnsembleWatchdog` per job spans all
  attempts, so the stall → reroute → abandon ladder and the wall-clock
  deadline cover the job, not the attempt.  A stalled worker is killed
  and rerouted (WD001); the spent budget abandons the job (WD002/
  WD003) as a structured timeout failure.  Only a worker that answered
  ``ok`` or a deterministic ``error`` runs the next job; any other end
  discards it, and the next attempt forks a fresh one.
* **Retry ladder.**  Crashed attempts (the worker died or closed its
  pipe without an outcome — SIGKILL, segfault, OOM — or reported an
  unexpected exception) respawn under a server-wide budget that mirrors
  the chaos :class:`~repro.faults.recovery.Respawner`'s
  ``max_respawns`` budget, after a **seeded
  deterministic** exponential backoff
  (:func:`repro.experiments.ensemble.backoff_delay`, seeded from the
  job fingerprint — no wall-clock entropy).  Deterministic errors
  (``ReproError`` in the spec itself) fail immediately: the same spec
  would fail the same way.
* **Drain.**  :meth:`JobSupervisor.drain` stops admissions, cancels
  queued jobs with a structured outcome, and SIGTERMs running workers,
  whose :class:`~repro.durable.signals.GracefulShutdown` stops them at
  the next cell boundary with the journal flushed — the job reports
  ``interrupted`` with a journal path from which ``--resume``
  reproduces the finished report byte-identically.  Idle workers are
  then killed and joined, so none outlives the server.

All timing goes through the injectable
:class:`~repro.serve.clock.ServeClock` (lint rule RPL106), which is
what makes every one of these behaviours unit-testable without real
sleeping.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError, ReproError
from repro.obs.causal import (
    TRACE_ID_RE,
    CausalRecorder,
    FlightRecorder,
    find_spills,
    mint_trace_id,
    span_id,
    stitch_spills,
)
from repro.serve.cache import ResultCache
from repro.serve.clock import ServeClock
from repro.serve.specs import JobSpec, parse_job_spec

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
INTERRUPTED = "interrupted"
CANCELLED = "cancelled"

_TERMINAL = (DONE, FAILED, INTERRUPTED, CANCELLED)


class AdmissionError(ReproError):
    """Queue full — the HTTP layer maps this to 429 + Retry-After."""

    def __init__(self, retry_after: float) -> None:
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full; retry after {retry_after:g}s"
        )


class DrainingError(ReproError):
    """Server is draining — the HTTP layer maps this to 503."""

    def __init__(self) -> None:
        super().__init__("server is draining; not accepting new jobs")


@dataclass(frozen=True)
class ServerPolicy:
    """Service-level limits (all wall-clock values in seconds).

    Attributes:
        max_queue: Bound on jobs waiting for a worker (429 past it).
        workers: Supervisor worker threads (= concurrent jobs).
        job_deadline: Total wall-clock budget per job across attempts
            (``None`` disables; maps to watchdog WD003).
        stall_timeout: Heartbeat window — no progress-file change for
            this long counts as a stall (``None`` disables; WD001).
        max_reroutes: Stalls answered with kill+respawn before the next
            stall abandons the job (WD002).
        max_attempts: Ceiling on attempts per job (crash respawns).
        respawn_budget: Server-wide crash respawn budget (lineage
            accounting: every crash anywhere draws from it).
        backoff_base: Base delay for the seeded exponential backoff
            between crash retries.
        poll_interval: Supervisor polling granularity.
        retry_after: Hint returned with 429 rejections.
        drain_grace: Seconds a SIGTERMed worker gets to reach a safe
            point before SIGKILL.
        read_timeout: HTTP request read budget (slow-loris cutoff).
        long_poll_max: Ceiling on ``GET /jobs/<id>/progress?wait=``
            long-poll holds (requests asking for more are clamped).
    """

    max_queue: int = 8
    workers: int = 2
    job_deadline: Optional[float] = None
    stall_timeout: Optional[float] = None
    max_reroutes: int = 1
    max_attempts: int = 3
    respawn_budget: int = 8
    backoff_base: float = 0.05
    poll_interval: float = 0.05
    retry_after: float = 1.0
    drain_grace: float = 5.0
    read_timeout: float = 5.0
    long_poll_max: float = 10.0


@dataclass
class Job:
    """One admitted submission and everything that happened to it."""

    id: str
    spec: JobSpec
    index: int
    state: str = QUEUED
    cached: bool = False
    attempts: int = 0
    result: Optional[Dict[str, Any]] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    journal_path: Optional[str] = None
    progress_path: Optional[str] = None
    worker_pid: Optional[int] = None
    trace_id: Optional[str] = None
    findings: List[str] = field(default_factory=list)

    def view(self) -> Dict[str, Any]:
        """JSON-safe status view (the ``GET /jobs/<id>`` body)."""
        view: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.kind,
            "fingerprint": self.spec.fingerprint,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
        }
        if self.digest is not None:
            view["digest"] = self.digest
        if self.result is not None:
            view["result"] = self.result
        if self.error is not None:
            view["error"] = self.error
        if self.journal_path is not None:
            view["journal"] = self.journal_path
        if self.worker_pid is not None:
            view["worker_pid"] = self.worker_pid
        if self.trace_id is not None:
            view["trace"] = self.trace_id
        if self.findings:
            view["findings"] = list(self.findings)
        return view


@dataclass(frozen=True)
class _Worker:
    proc: Any  # multiprocessing.Process running worker_main
    conn: Any  # the supervisor's end of its pipe


class ProcessJobRunner:
    """Runs attempts in long-lived worker processes, one per supervisor
    thread, under watchdog supervision.

    A thread's first attempt forks its worker
    (:func:`repro.serve.worker.worker_main`); later attempts send their
    job over the same worker's pipe and read its outcome back.  Returns
    an outcome dict: ``{"status": "ok"|"error"|"interrupted"|"crash"|
    "stalled"|"deadline", ...}``.  ``crash``/``stalled`` feed the
    supervisor's retry ladder; the rest are final for the job.  Only
    ``ok`` and ``error`` keep the worker; after any other outcome, or a
    drain stop, it is killed, so the next attempt forks a fresh one.
    ``on_start`` is called once per worker forked.
    """

    def __init__(
        self,
        policy: ServerPolicy,
        clock: ServeClock,
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        self._policy = policy
        self._clock = clock
        self._on_start = on_start
        self._lock = threading.Lock()
        self._workers: Dict[int, _Worker] = {}  # thread ident -> worker

    def run(
        self,
        job: Job,
        watchdog: Any,
        should_stop: Callable[[], bool],
    ) -> Dict[str, Any]:
        from multiprocessing.connection import wait

        from repro.durable.watchdog import ABANDON, REROUTE

        jobdir = pathlib.Path(str(job.progress_path)).parent
        # Trace context rides in the job message (not the environment)
        # so concurrent jobs can never race each other's context; ids
        # are derivable on both sides of the pipe.
        trace = None
        if job.trace_id is not None:
            trace = {
                "trace": job.trace_id,
                "role": "worker",
                "attempt": job.attempts,
                "parent": span_id(
                    job.trace_id, "serve.attempt", f"attempt-{job.attempts}"
                ),
                "spill": str(jobdir / f"attempt-{job.attempts}.spans.jsonl"),
                "flight": str(
                    jobdir / f"flight-worker-attempt-{job.attempts}.json"
                ),
            }
        worker = self._worker()
        job.worker_pid = worker.proc.pid
        progress_file = pathlib.Path(str(job.progress_path))
        last_progress = self._read_bytes(progress_file)
        outcome: Optional[Dict[str, Any]] = None
        keep = False
        try:
            worker.conn.send(
                (job.spec.payload(), job.journal_path, job.progress_path, trace)
            )
        except ConnectionError:
            pass  # died since _worker() looked: the wait below sees it
        try:
            while True:
                if should_stop():
                    worker.proc.terminate()  # SIGTERM -> GracefulShutdown
                    wait(
                        [worker.conn, worker.proc.sentinel],
                        self._policy.drain_grace,
                    )
                    outcome = self._reply(worker.conn)
                    break
                # A reply, EOF, or the worker's death.  The death is
                # also read through waitpid: processes the worker forked
                # (a ``jobs > 1`` spec's ensemble pool) inherit its pipe
                # end and its sentinel, and keep both open once it died.
                if wait(
                    [worker.conn, worker.proc.sentinel],
                    self._policy.poll_interval,
                ) or not worker.proc.is_alive():
                    outcome = self._reply(worker.conn)
                    keep = outcome is not None and outcome["status"] in (
                        "ok", "error"
                    )
                    break
                current = self._read_bytes(progress_file)
                if current != last_progress:
                    last_progress = current
                    watchdog.beat()
                    continue
                decision = watchdog.on_wait_elapsed(pending=1)
                if decision == REROUTE:
                    return {"status": "stalled"}
                if decision == ABANDON:
                    return {"status": "deadline"}
        finally:
            if not keep:
                self._discard(worker)
        if outcome is None:
            return {"status": "crash", "exitcode": worker.proc.exitcode}
        return outcome

    def close(self) -> None:
        """Stop every worker (all idle once the supervisor threads are
        joined)."""
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            self._stop(worker)

    def _worker(self) -> _Worker:
        """This thread's live worker, forked on first use or after its
        predecessor died."""
        import multiprocessing

        from repro.serve.worker import worker_main

        key = threading.get_ident()
        with self._lock:
            worker = self._workers.get(key)
        if worker is not None:
            if worker.proc.is_alive():
                return worker
            self._discard(worker)  # killed while idle
        context = multiprocessing.get_context()
        conn, child_conn = context.Pipe()
        proc = context.Process(
            target=worker_main, args=(child_conn,), daemon=False
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, conn)
        with self._lock:
            self._workers[key] = worker
            if self._on_start is not None:
                self._on_start()
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Kill this thread's worker; its next attempt forks afresh."""
        with self._lock:
            self._workers.pop(threading.get_ident(), None)
        self._stop(worker)

    @staticmethod
    def _stop(worker: _Worker) -> None:
        """Kill the worker and its process group: the processes a
        ``jobs > 1`` spec's ensemble pool forked would otherwise block
        forever on a task queue no one feeds."""
        worker.proc.kill()
        try:
            os.killpg(worker.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # no group left, or the worker died before forming one
        worker.proc.join()
        worker.conn.close()

    @staticmethod
    def _reply(conn: Any) -> Optional[Dict[str, Any]]:
        """The worker's outcome, or ``None`` if it died without one."""
        try:
            if conn.poll():
                return conn.recv()
        except (EOFError, OSError):
            pass
        return None

    @staticmethod
    def _read_bytes(path: pathlib.Path) -> bytes:
        try:
            return path.read_bytes()
        except OSError:
            return b""


class JobSupervisor:
    """Admission queue + worker threads + per-job escalation ladder."""

    def __init__(
        self,
        policy: Optional[ServerPolicy] = None,
        cache: Optional[ResultCache] = None,
        workdir: Optional[pathlib.Path] = None,
        clock: Optional[ServeClock] = None,
        metrics: Optional[Any] = None,
        runner: Optional[Any] = None,
    ) -> None:
        self.policy = policy if policy is not None else ServerPolicy()
        self.clock = clock if clock is not None else ServeClock()
        self.workdir = pathlib.Path(workdir) if workdir else None
        if self.workdir is not None:
            self.workdir.mkdir(parents=True, exist_ok=True)
        if cache is not None:
            self.cache = cache
        else:
            cache_dir = (
                self.workdir / "cache" if self.workdir is not None else None
            )
            self.cache = ResultCache(cache_dir)
        if runner is None and self.workdir is None:
            raise ConfigurationError(
                "a supervisor running jobs in worker processes needs a "
                "workdir for their journals and progress files"
            )
        # Causal tracing + flight recorder for the supervisor/server
        # process.  Both need a workdir (spill and dump files); without
        # one they stay None and every hook below is a no-op.
        self.causal: Optional[CausalRecorder] = None
        self.flight: Optional[FlightRecorder] = None
        if self.workdir is not None:
            self.causal = CausalRecorder(
                self.workdir / "trace" / "supervisor.spans.jsonl",
                role="supervisor",
                clock=self.clock.monotonic,
            )
            self.flight = FlightRecorder(context={"role": "supervisor"})
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}  # fingerprint -> active job
        self._counter = 0
        self._draining = False
        self._respawns_left = self.policy.respawn_budget
        self._threads: List[threading.Thread] = []
        self._metrics = metrics
        if metrics is not None:
            kwargs = {"deterministic": False}
            self._m = {
                "submitted": metrics.counter(
                    "repro_serve_jobs_submitted_total",
                    "job submissions admitted", **kwargs),
                "rejected": metrics.counter(
                    "repro_serve_jobs_rejected_total",
                    "submissions shed with 429", **kwargs),
                "completed": metrics.counter(
                    "repro_serve_jobs_completed_total",
                    "jobs finished ok", **kwargs),
                "failed": metrics.counter(
                    "repro_serve_jobs_failed_total",
                    "jobs failed terminally", **kwargs),
                "cancelled": metrics.counter(
                    "repro_serve_jobs_cancelled_total",
                    "queued jobs cancelled by drain", **kwargs),
                "retries": metrics.counter(
                    "repro_serve_job_retries_total",
                    "crash/stall respawns", **kwargs),
                "worker_starts": metrics.counter(
                    "repro_serve_worker_starts_total",
                    "worker processes forked", **kwargs),
                "cache_hits": metrics.counter(
                    "repro_serve_cache_hits_total",
                    "submissions served from the certified cache", **kwargs),
                "cache_mismatches": metrics.gauge(
                    "repro_serve_cache_mismatches",
                    "write-once digest collisions (determinism alarms)",
                    **kwargs),
                "queued": metrics.gauge(
                    "repro_serve_queue_depth", "jobs waiting", **kwargs),
                "running": metrics.gauge(
                    "repro_serve_jobs_running", "jobs executing", **kwargs),
            }
        else:
            self._m = None
        self.runner = (
            runner
            if runner is not None
            else ProcessJobRunner(
                self.policy,
                self.clock,
                on_start=lambda: self._count("worker_starts"),
            )
        )

    # ------------------------------------------------------------------
    def _count(self, name: str, value: Optional[float] = None) -> None:
        if self._m is None:
            return
        if value is None:
            self._m[name].inc()
        else:
            self._m[name].set(value)

    def _gauges(self) -> None:
        if self._m is not None:
            self._m["queued"].set(len(self._queue))
            self._m["running"].set(
                sum(1 for j in self._jobs.values() if j.state == RUNNING)
            )
            self._m["cache_mismatches"].set(self.cache.mismatches)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.policy.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def submit(
        self, payload: Mapping[str, Any], trace_id: Optional[str] = None
    ) -> Job:
        """Admit one submission (validation errors propagate as
        :class:`~repro.errors.ConfigurationError` → HTTP 400).

        ``trace_id`` is an externally supplied correlation id (the
        ``X-Repro-Trace-Id`` header); absent one, the job's trace id is
        minted deterministically from its fingerprint.
        """
        spec = parse_job_spec(dict(payload))
        if trace_id is not None and not TRACE_ID_RE.match(trace_id):
            raise ConfigurationError(
                f"invalid trace id {trace_id!r}: want 8-64 lowercase hex "
                f"characters"
            )
        tid = trace_id if trace_id is not None else mint_trace_id(
            spec.fingerprint
        )
        with self._lock:
            if self._draining:
                raise DrainingError()
            hit = self.cache.get(spec.fingerprint)
            if hit is not None:
                self._counter += 1
                job = Job(
                    id=f"job-{self._counter:04d}",
                    spec=spec,
                    index=self._counter,
                    state=DONE,
                    cached=True,
                    result=hit["result"],
                    digest=hit["digest"],
                    trace_id=tid,
                )
                self._jobs[job.id] = job
                self._count("cache_hits")
                return job
            existing = self._inflight.get(spec.fingerprint)
            if existing is not None:
                return existing
            if len(self._queue) >= self.policy.max_queue:
                self._count("rejected")
                raise AdmissionError(self.policy.retry_after)
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:04d}",
                spec=spec,
                index=self._counter,
                trace_id=tid,
            )
            if self.workdir is not None:
                jobdir = self.workdir / "jobs" / job.id
                jobdir.mkdir(parents=True, exist_ok=True)
                job.progress_path = str(jobdir / "progress.json")
                journal_dir = self.workdir / "journal"
                journal_dir.mkdir(parents=True, exist_ok=True)
                job.journal_path = str(
                    journal_dir / f"{spec.fingerprint}.jsonl"
                )
            queue_depth = len(self._queue)
            self._jobs[job.id] = job
            self._inflight[spec.fingerprint] = job
            self._queue.append(job)
            self._count("submitted")
            self._gauges()
            self._wakeup.notify()
        if self.causal is not None:
            now = self.clock.monotonic()
            self.causal.record(
                "serve.admission",
                trace=tid,
                parent=span_id(tid, "serve.request"),
                flow=span_id(tid, "serve.request"),
                t0=now,
                t1=now,
                job=job.id,
                queue=queue_depth,
            )
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def progress(self, job: Job) -> Dict[str, Any]:
        """Latest worker progress snapshot (obs metrics included)."""
        base = {"id": job.id, "state": job.state, "cells_completed": 0}
        if job.progress_path is None:
            return base
        try:
            snapshot = json.loads(
                pathlib.Path(job.progress_path).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return base
        base.update(snapshot)
        return base

    def trace_view(self, job: Job) -> Optional[Dict[str, Any]]:
        """Stitch every spill touching ``job`` into one Chrome/Perfetto
        ``traceEvents`` payload (the ``GET /jobs/<id>/trace`` body).

        Merges the server/supervisor spill with the job's per-attempt
        worker spills and filters by the job's trace id, so a retried
        job comes back as one causal timeline.  ``None`` when tracing
        is off (no workdir or no trace id).
        """
        if job.trace_id is None or self.workdir is None:
            return None
        paths = list(find_spills(self.workdir / "trace"))
        if job.progress_path is not None:
            jobdir = pathlib.Path(str(job.progress_path)).parent
            paths.extend(find_spills(jobdir))
        return stitch_spills(paths, mode="wall", trace_id=job.trace_id)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        return {
            "queued": states.count(QUEUED),
            "running": states.count(RUNNING),
            "done": states.count(DONE),
            "failed": states.count(FAILED),
            "interrupted": states.count(INTERRUPTED),
            "cancelled": states.count(CANCELLED),
        }

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop admissions, cancel the queue, stop running workers at
        their next safe point, wait for the worker threads, kill and
        join the idle worker processes, then close the span file."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            while self._queue:
                job = self._queue.popleft()
                job.state = CANCELLED
                job.error = "server draining; job cancelled before start"
                self._inflight.pop(job.spec.fingerprint, None)
                self._count("cancelled")
            self._gauges()
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(self.policy.drain_grace + 10.0)
        if isinstance(self.runner, ProcessJobRunner):
            self.runner.close()
        if self.causal is not None:
            self.causal.close()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._draining:
                    self._wakeup.wait(0.2)
                if self._draining and not self._queue:
                    return
                job = self._queue.popleft()
                job.state = RUNNING
                self._gauges()
            try:
                self._run_job(job)
            except Exception as error:  # defensive: never kill the loop
                job.state = FAILED
                job.error = f"supervisor failure: {error!r}"
                self._count("failed")
            finally:
                with self._lock:
                    self._inflight.pop(job.spec.fingerprint, None)
                    self._gauges()

    def _run_job(self, job: Job) -> None:
        from repro.durable.watchdog import EnsembleWatchdog, WatchdogPolicy
        from repro.experiments.ensemble import backoff_delay

        watchdog = EnsembleWatchdog(
            WatchdogPolicy(
                heartbeat_timeout=self.policy.stall_timeout,
                deadline=self.policy.job_deadline,
                max_reroutes=self.policy.max_reroutes,
            ),
            clock=self.clock.monotonic,
            metrics=self._metrics,
        )
        watchdog.start()
        backoff_seed = int(job.spec.fingerprint[:8], 16)
        tid = job.trace_id
        admission = span_id(tid, "serve.admission") if tid else None
        while True:
            job.attempts += 1
            t0 = self.clock.monotonic()
            outcome = self.runner.run(job, watchdog, self._should_stop)
            t1 = self.clock.monotonic()
            job.findings.extend(str(f) for f in watchdog.findings)
            watchdog.findings.clear()
            status = outcome.get("status")
            if self.causal is not None and tid is not None:
                # Attempt N flows from attempt N-1 (retries chain into
                # one causal timeline); the first flows from admission.
                flow = (
                    admission
                    if job.attempts == 1
                    else span_id(
                        tid, "serve.attempt", f"attempt-{job.attempts - 1}"
                    )
                )
                self.causal.record(
                    "serve.attempt",
                    key=f"attempt-{job.attempts}",
                    trace=tid,
                    parent=admission,
                    flow=flow,
                    t0=t0,
                    t1=t1,
                    job=job.id,
                    attempt=job.attempts,
                    status=status,
                )
            if self.flight is not None:
                self.flight.record(
                    "health",
                    "serve.attempt",
                    job=job.id,
                    attempt=job.attempts,
                    status=status,
                )
            if status == "ok":
                result = outcome["result"]
                mismatches_before = self.cache.mismatches
                job.digest = self.cache.put(job.spec.fingerprint, result)
                if (
                    self.flight is not None
                    and self.cache.mismatches > mismatches_before
                ):
                    # Determinism alarm: the same fingerprint produced
                    # different bytes than the cached run.
                    self.flight.record(
                        "alarm", "cache.mismatch", job=job.id
                    )
                    self._dump_flight(job, "digest-mismatch")
                job.result = result
                job.state = DONE
                self._count("completed")
                return
            if status == "interrupted":
                job.state = INTERRUPTED
                job.error = outcome.get("detail", "interrupted")
                job.journal_path = outcome.get("journal", job.journal_path)
                return
            if status == "error":
                job.state = FAILED
                job.error = (
                    f"{outcome.get('category', 'ReproError')}: "
                    f"{outcome.get('detail', '')}"
                )
                self._count("failed")
                return
            if status == "deadline":
                job.state = FAILED
                job.error = (
                    "job exceeded its wall-clock deadline "
                    "(watchdog WD002/WD003); journal kept for --resume"
                )
                self._count("failed")
                return
            if self._should_stop():
                # Crash observed while draining: keep the journal.
                job.state = INTERRUPTED
                job.error = "server draining; attempt stopped"
                return
            # crash or stall: the retry ladder.
            with self._lock:
                self._respawns_left -= 1
                budget_left = self._respawns_left
            retryable = (
                job.attempts < self.policy.max_attempts and budget_left >= 0
            )
            if not retryable:
                job.state = FAILED
                reason = (
                    "respawn budget exhausted"
                    if budget_left < 0
                    else f"failed after {job.attempts} attempt(s)"
                )
                job.error = f"worker {status} ({reason}); journal kept"
                self._count("failed")
                self._dump_flight(job, f"{status}-ladder-exhausted")
                return
            self._count("retries")
            delay = backoff_delay(
                self.policy.backoff_base,
                job.attempts,
                chunk_index=job.index,
                seed=backoff_seed,
            )
            if self.flight is not None:
                # The backoff delay is seeded from the fingerprint, so
                # this event (and the dump below) is deterministic
                # given the job's seed, SIGKILL timing notwithstanding.
                self.flight.record(
                    "health",
                    "serve.retry",
                    job=job.id,
                    attempt=job.attempts,
                    status=status,
                    delay=round(delay, 6),
                )
            reason = (
                "stall-reroute" if status == "stalled" else "retry-escalation"
            )
            self._dump_flight(job, reason)
            self.clock.sleep(delay)

    def _dump_flight(self, job: Job, reason: str) -> None:
        """Auto-dump the flight recorder next to the job's artifacts."""
        if self.flight is None or job.progress_path is None:
            return
        jobdir = pathlib.Path(str(job.progress_path)).parent
        try:
            self.flight.dump(
                jobdir / f"flight-supervisor-attempt-{job.attempts}.json",
                reason,
            )
        except OSError:
            pass  # a failed dump must never take down the ladder

    def _should_stop(self) -> bool:
        with self._lock:
            return self._draining
