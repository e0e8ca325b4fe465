"""Long-lived worker process behind one supervisor thread.

Each supervisor thread owns one worker process, forked with the
thread's first job (:class:`~repro.serve.supervisor.ProcessJobRunner`).
The runner sends it job after job over a ``multiprocessing`` pipe;
:func:`worker_main` runs each with :func:`run_job` and sends the
outcome back over the same pipe.  The process boundary is the fault
isolation the service model needs: a worker that segfaults, gets
SIGKILLed by the chaos harness, stalls or hits a deadline is discarded
without taking the server down, the retry runs in a freshly forked
worker, and everything the dead one had finished lives in the job's
journal, so the retry resumes instead of restarting.

Protocol with the supervisor:

* Request: ``(payload, journal_path, progress_path, trace)``.
* Reply: ``{"status": "ok"|"error"|"interrupted"|"crash", ...}``.
  ``ok`` carries the result; ``error`` is a deterministic failure (no
  retry — the same spec would fail the same way); ``interrupted``
  stopped at a safe point with the journal resumable; ``crash`` is an
  unexpected exception.  EOF on the pipe, or the process ending without
  a reply, is a crash too.  The supervisor alone decides whether the
  worker runs another job (only after ``ok`` or ``error``).
* ``progress_path``: rewritten after every completed grid cell with
  ``{"cells_completed", "metrics"}``.  Doubles as the supervisor's
  heartbeat: a changing progress file beats the job's watchdog.
* ``trace``: optional :class:`~repro.obs.causal.TraceContext` payload.
  When present the worker appends the job's spans to the attempt's spill
  file — the ``worker.run`` span flows from the supervisor's attempt
  span, and ``run_ensemble`` emits per-seed/per-chunk records under
  it — and arms a :class:`~repro.obs.causal.FlightRecorder` that
  dumps the last N events on an in-process crash.

Each job gets its own metrics registry, and what it installs
process-wide — its causal and flight recorders and its
:class:`~repro.durable.signals.GracefulShutdown` signal handlers — is
removed when the job ends, so job N+1 never records into job N's
spill.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import signal
import stat
import sys
import traceback
from contextlib import nullcontext
from typing import Any, Dict, Mapping, Optional


def _write_json(path: pathlib.Path, payload: Mapping[str, Any]) -> None:
    from repro.durable.atomic_io import atomic_write

    text = json.dumps(dict(payload), sort_keys=True, separators=(",", ":"))
    atomic_write(path, text.encode("utf-8"))


def worker_main(conn: Any) -> None:
    """Process entry point: run the jobs sent on ``conn`` until EOF."""
    # Lead a process group of our own, which a ``jobs > 1`` spec's
    # ensemble pool joins: killing the group reaps the pool with us.
    os.setpgid(0, 0)
    _release_inherited_sockets(keep=conn.fileno())
    # Idle, the worker has nothing to save: SIGTERM ends it and a
    # terminal Ctrl-C is the server's to handle.  Each job's
    # GracefulShutdown takes both signals over while it runs.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    gc.freeze()  # the inherited server heap is never garbage
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return  # the supervisor closed the pipe, or died
        outcome = run_job(*request)
        try:
            conn.send(outcome)
        except OSError:
            return
        gc.collect()


def _release_inherited_sockets(keep: int) -> None:
    """Point every inherited socket except ``keep`` at ``/dev/null``.

    A forked worker holds copies of the server's listening socket, of
    its open client connections and of sibling workers' pipe ends.  A
    worker that outlives its first job would keep a connection the
    server closed open for the client, and keep a sibling from seeing
    EOF when the server dies.  ``dup2`` rather than ``close`` keeps
    each descriptor number taken, so an inherited object that still
    owns one can never close a reused number.  The fork sentinel is a
    pipe, not a socket: closing it would tell the supervisor this
    worker died.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            fd = int(name)
            if fd in (keep, devnull):
                continue
            try:
                mode = os.fstat(fd).st_mode
            except OSError:
                continue  # the listing's own descriptor, closed by now
            if stat.S_ISSOCK(mode):
                os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def run_job(
    payload: Mapping[str, Any],
    journal_path: Optional[str],
    progress_path: str,
    trace: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one job spec payload to completion in this process; returns
    its outcome dict (see the module docstring)."""
    from repro.durable.signals import GracefulShutdown
    from repro.errors import InterruptedRunError, ReproError
    from repro.obs.causal import (
        CausalRecorder,
        FlightRecorder,
        TraceContext,
        install_causal_recorder,
        install_flight_recorder,
    )
    from repro.obs.registry import MetricsRegistry
    from repro.serve.clock import ServeClock
    from repro.serve.specs import (
        execute_spec,
        journal_fingerprint,
        parse_job_spec,
    )

    progress_file = pathlib.Path(progress_path)
    metrics = MetricsRegistry()

    context = TraceContext.from_payload(trace)
    causal = None
    flight = None
    if context is not None:
        flight = FlightRecorder(
            context={
                "trace": context.trace_id,
                "role": context.role,
                "attempt": context.attempt,
            }
        )
        install_flight_recorder(flight)
        if context.spill is not None:
            causal = CausalRecorder(
                context.spill,
                role=context.role,
                trace_id=context.trace_id,
                attempt=context.attempt,
                parent_id=context.parent_id,
                clock=ServeClock().monotonic,
                flight=flight,
            )
            install_causal_recorder(causal)
        flight.record(
            "health", "worker.start", attempt=context.attempt
        )

    def on_progress(cells: int) -> None:
        if flight is not None:
            flight.record(
                "metric", "worker.progress", volatile=True, cells=cells
            )
        _write_json(
            progress_file,
            {
                "cells_completed": cells,
                "metrics": metrics.snapshot(deterministic_only=False),
            },
        )

    def dump_flight(reason: str) -> None:
        if flight is not None and context is not None and context.flight:
            try:
                flight.dump(context.flight, reason)
            except OSError:
                pass  # a failed dump must never mask the real outcome

    run_span = (
        causal.span(
            "worker.run",
            key=f"attempt-{context.attempt}",
            flow=context.parent_id,
        )
        if causal is not None and context is not None
        else nullcontext()
    )
    journal = None
    try:
        spec = parse_job_spec(dict(payload))
        if journal_path is not None:
            from repro.durable.journal import RunJournal

            journal = RunJournal.open(
                journal_path, journal_fingerprint(spec), resume=True
            )
        with GracefulShutdown(install=True) as shutdown:
            with run_span:
                result = execute_spec(
                    payload,
                    journal=journal,
                    shutdown=shutdown,
                    metrics=metrics,
                    progress=on_progress,
                )
        outcome: Dict[str, Any] = {"status": "ok", "result": result}
    except InterruptedRunError as error:
        if flight is not None:
            flight.record("health", "worker.interrupted")
        outcome = {
            "status": "interrupted",
            "detail": str(error),
            "journal": journal_path,
        }
    except ReproError as error:
        if flight is not None:
            flight.record(
                "health", "worker.error", category=type(error).__name__
            )
        dump_flight("error")
        outcome = {
            "status": "error",
            "category": type(error).__name__,
            "detail": str(error),
        }
    except Exception as error:  # crash: the supervisor retries elsewhere
        if flight is not None:
            flight.record(
                "health", "worker.crash", category=type(error).__name__
            )
        dump_flight("crash")
        traceback.print_exc(file=sys.stderr)
        outcome = {
            "status": "crash",
            "category": type(error).__name__,
            "detail": str(error),
        }
    finally:
        if journal is not None:
            journal.close()
        if causal is not None:
            causal.close()
        install_causal_recorder(None)
        install_flight_recorder(None)
    return outcome
