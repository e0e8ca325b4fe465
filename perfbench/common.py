"""Shared plumbing: metric catalogue, set-up timing, percentiles, memory.

The metric lists here are the benchmark's contract; ``BENCHMARK.json``
repeats them and ``run.py`` refuses to print a result that misses one.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric; every workload reports all.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("cold_job_p50_s", "s"),
    ("cold_job_p90_s", "s"),
    ("warm_hit_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

ADVERSARY_NAMES = (
    "round-robin",
    "random",
    "bounded-delay",
    "stale-attack",
    "contention-max",
)
OP_NAMES = (
    "read",
    "write",
    "fetch_add",
    "compare_and_swap",
    "dcss",
    "guarded_fetch_add",
)

#: (name, unit, better) of every per-layer metric of a traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"sched.select_ns.{a}", "ns", "lower") for a in ADVERSARY_NAMES),
    ("sched.select_share", "ratio", "lower"),
    ("runtime.steps", "count", "lower"),
    ("runtime.fast_loop_steps", "count", "higher"),
    ("runtime.step_loop_steps", "count", "lower"),
    ("runtime.loop_s", "s", "lower"),
    ("runtime.resume_ns_per_step", "ns", "lower"),
    ("runtime.stop_check_ns", "ns", "lower"),
    *((f"shm.ops.{op}", "count", "lower") for op in OP_NAMES),
    ("shm.dispatch_ns", "ns", "lower"),
    ("shm.log_records", "count", "lower"),
    ("objectives.gradient_calls", "count", "lower"),
    ("objectives.gradient_ns", "ns", "lower"),
    ("core.runs", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.records_s", "s", "lower"),
    ("core.trajectory_s", "s", "lower"),
    ("analysis.sanitizer_ops", "count", "lower"),
    ("analysis.sanitizer_ns_per_op", "ns", "lower"),
    ("analysis.certify_s", "s", "lower"),
    ("analysis.findings", "count", "lower"),
    ("experiments.ensemble_calls", "count", "lower"),
    ("experiments.pool_starts", "count", "lower"),
    ("experiments.chunks", "count", "lower"),
    ("experiments.chunk_retries", "count", "lower"),
    ("experiments.overhead_s", "s", "lower"),
    ("experiments.worker_busy_frac", "ratio", "higher"),
    ("durable.journal_records", "count", "lower"),
    ("durable.journal_s", "s", "lower"),
    ("durable.appends", "count", "lower"),
    ("serve.requests", "count", "lower"),
    ("serve.refused", "count", "lower"),
    ("serve.attempts", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.admission_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.spawn_s", "s", "lower"),
    ("serve.compute_s", "s", "lower"),
    ("serve.completion_lag_s", "s", "lower"),
    ("serve.hit_server_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.layer_coverage", "ratio", "higher"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; note it if it failed."""
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"FAILED ({failed}): {what}")


def quiesce() -> None:
    """Settle the process and the disk before a timed segment.

    Collect garbage and freeze what survives, so collections inside the
    segment scan only what it allocates, not the heap earlier passes
    left; then flush dirty pages, so the segment's fsyncs do not queue
    behind writeback of files earlier passes wrote."""
    gc.collect()
    gc.freeze()
    os.sync()


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


#: Typical :class:`Yardstick` loop time on the 2-vCPU virtual machine
#: the baseline was taken on (it read 1.2-2.3 ms there).
REFERENCE_LOOP_S = 0.002
YARDSTICK_ITERATIONS = 20_000


class Yardstick:
    """A fixed pure-Python loop that runs no ``repro`` code, timed on
    each CPU this process may use in turn.

    The shared host's vCPUs slow down independently of each other, and
    the program's processes (server, pool workers) run on all of them,
    so the loop is pinned to each CPU in turn and :meth:`loop_s`
    averages the CPUs' medians.  The affinity is restored after each
    sample, so nothing the program starts inherits the pin.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        #: ``[cpu, seconds]`` per sample (lists, so they travel as JSON).
        self.samples: List[List[float]] = []

    def __call__(self) -> None:
        cpu = self.cpus[len(self.samples) % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            start = time.perf_counter()
            total = 0
            for i in range(YARDSTICK_ITERATIONS):
                total += i * i % 7
            self.samples.append([cpu, time.perf_counter() - start])
        finally:
            os.sched_setaffinity(0, self.cpus)

    def loop_s(self) -> float:
        """Mean over CPUs of the median loop time on each."""
        by_cpu: Dict[float, List[float]] = {}
        for cpu, seconds in self.samples:
            by_cpu.setdefault(cpu, []).append(seconds)
        return statistics.mean(statistics.median(times) for times in by_cpu.values())


class Passes:
    """Unit times of repeated passes over the same units.

    The shared host slows by up to about 1.8x in bursts of one to three
    seconds, so one pass's wall time or one short batch of samples
    mostly measures where the bursts fell.  Every pass of a run times
    the same units in the same order (one E5 ensemble run, one grid
    cell, one served job), and each figure is built from each unit's
    median over the passes, which a burst in a minority of passes does
    not move.
    """

    def __init__(self) -> None:
        self.units: List[List[float]] = []
        self.outside: List[float] = []
        self.durations: List[float] = []
        #: Call :attr:`tick` before each unit a pass runs in this process.
        self.tick = Yardstick()

    def speed(self) -> float:
        """How much faster than the reference this run's machine ran."""
        return REFERENCE_LOOP_S / self.tick.loop_s()

    def add(
        self,
        units: Sequence[float],
        wall: float,
        duration: float,
        samples: Sequence[List[float]] = (),
    ) -> None:
        """One pass: its unit times, its wall time (units plus what lies
        between them), its whole duration (set-up sample included) and
        the :class:`Yardstick` samples a fresh interpreter took for it."""
        if self.units and len(units) != len(self.units[0]):
            raise RuntimeError(
                f"pass ran {len(units)} units, the first ran {len(self.units[0])}"
            )
        self.units.append(list(units))
        self.outside.append(wall - sum(units))
        self.durations.append(duration)
        self.tick.samples.extend(samples)

    def more(self, started: float, seconds: float, minimum: int) -> bool:
        """Whether another pass is due: fewer than ``minimum`` so far, or
        a typical pass still fits in ``seconds`` from ``started``."""
        if len(self.units) < minimum:
            return True
        typical = statistics.median(self.durations)
        return time.perf_counter() - started + typical <= seconds

    def at_reference_speed(self, figures: Dict[str, float]) -> Dict[str, float]:
        """``figures`` as the reference machine would read them: each
        ``*_s`` time times :meth:`speed`, each ``*_per_s`` rate over it.

        The host's speed drifts by up to about 1.7x over minutes, which
        per-unit medians cannot remove, because a whole run can fall in
        a slow stretch.  The yardstick slows with it, so scaled
        figures compare across runs; a change to ``repro`` code moves
        the unit times and not the yardstick.
        """
        speed = self.speed()
        return {
            name: value / speed if name.endswith("_per_s")
            else value * speed if name.endswith("_s")
            else value
            for name, value in figures.items()
        }

    def unit_medians(self) -> List[float]:
        return [statistics.median(column) for column in zip(*self.units)]

    def wall(self) -> float:
        """One pass's wall time: the unit medians plus the median time
        outside the units."""
        return sum(self.unit_medians()) + statistics.median(self.outside)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` and this package first
    on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_fresh(snippet: str, module: str, function: str, *args: object) -> Tuple[float, Any]:
    """``perfbench.<module>.<function>(*args)`` in a fresh interpreter.

    The child first runs ``snippet`` (the workload's imports and
    config) and says so; the seconds until then are the set-up sample.
    Running each pass in its own interpreter matters because one
    process runs the same Python code up to about 8 % faster or slower
    than the next even at the same machine speed, and a median over
    several processes does not keep that luck.  ``args`` must be
    literals; the result travels back as JSON.
    """
    code = (
        f"{snippet}\nimport json, sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
        f"from perfbench.{module} import {function}\n"
        f"print(json.dumps({function}(*{args!r})))\n"
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline() if proc.stdout is not None else ""
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=170)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{module}.{function} failed (exit {proc.returncode}):\n{err}")
    return setup_s, json.loads(out.splitlines()[-1])


def peak_rss_mb(include_self: bool = True) -> float:
    """Largest peak RSS among this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(children, own) / 1024.0  # ru_maxrss is KiB on Linux


def calibration_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop (machine-speed yardstick)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> Dict[str, object]:
    """Recorded beside each run's metrics; not gated."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "calibration_s": round(calibration_s(), 6),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
