"""``e5-quick``: ``repro.experiments.e5_upper_bound.run(E5Config.quick())``.

Serial, no pool, no op log, no sanitizer: the per-step layers with
nothing else in the way.  A *cold job* is one seeded simulation run of
E5's ensembles (every ``run_lock_free_sgd`` / ``run_sequential_sgd``
call); a *warm hit* is ``repro report`` answering E5's verdict from the
stored artifact, which runs no simulation at all.  Every pass runs the
same cold jobs in the same order (with its own ``base_seed``, in its own
interpreter); the warm hits are taken a few at a time after each cold
job, so they are spread over the whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
from unittest import mock

from perfbench import common, probes

SETUP_SNIPPET = (
    "from repro.experiments.e5_upper_bound import E5Config, run\n"
    "config = E5Config.quick()\n"
)
MIN_PASSES = 3
#: ``repro report`` answers after each cold job (52 cold jobs a pass).
WARM_PER_JOB = 10


#: ``base_seed`` values on which E5's quick preset PASSes.  E5's verdict
#: is a statistical test, and a few seeds FAIL it (907501 and 171491 do:
#: their delay-bound-160 runs never reach the target), which would make
#: every run that drew one incorrect; these were each checked to PASS.
BASE_SEEDS = (
    872918, 747473, 823631, 111852, 739299, 27620, 650671, 195451,
    227288, 535144, 738350, 567389, 507437, 670652, 225429, 243181,
    629198, 168887, 734053, 84815, 15465, 751582, 844807, 665876,
    627974, 301848, 772781, 737455, 894223, 991532, 413323, 95151,
)


def make_config(seed: int, index: int = 0, quick: Any = None):
    """E5's quick preset with the ``index``-th pass's ``base_seed``:
    the workload seed picks where in :data:`BASE_SEEDS` a run starts.

    E5's early-stop runs last as long as their seed makes them, so one
    ``base_seed`` fixes which of them are long; each pass takes its own,
    and each cold job's median over the passes mixes several.
    """
    from repro.experiments.e5_upper_bound import E5Config

    config = (quick or E5Config.quick)()
    start = random.Random(f"e5-quick:{seed}").randrange(len(BASE_SEEDS))
    config.base_seed = BASE_SEEDS[(start + index) % len(BASE_SEEDS)]
    return config


def run_pass(
    config: Any,
    warm: Optional[Callable[[], None]] = None,
    tick: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """One E5 run, each cold job timed.  ``tick`` runs before and
    ``warm`` after each cold job, outside its timing; the pass's wall
    leaves both out."""
    import repro.experiments.e5_upper_bound as e5

    latencies: List[float] = []
    steps = [0]
    aside = [0.0]

    def timed(fn, count_steps: bool):
        def wrapper(*args, **kwargs):
            if tick is not None:
                start = time.perf_counter()
                tick()
                aside[0] += time.perf_counter() - start
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            latencies.append(time.perf_counter() - start)
            if count_steps:
                steps[0] += result.sim_steps
            if warm is not None:
                start = time.perf_counter()
                warm()
                aside[0] += time.perf_counter() - start
            return result

        return wrapper

    common.quiesce()
    with mock.patch.object(
        e5, "run_lock_free_sgd", timed(e5.run_lock_free_sgd, True)
    ), mock.patch.object(
        e5, "run_sequential_sgd", timed(e5.run_sequential_sgd, False)
    ):
        start = time.perf_counter()
        result = e5.run(config)
        wall = time.perf_counter() - start
    return {
        "wall": wall - aside[0],
        "steps": steps[0],
        "latencies": latencies,
        "text": result.render(plot=False),
        "passed": bool(result.passed),
    }


def store_artifact(text: str, workdir: Any) -> str:
    """Store E5's report as ``repro run --out`` does; returns the directory."""
    from repro.durable.atomic_io import atomic_write

    artifacts = pathlib.Path(workdir) / "e5-artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)
    atomic_write(artifacts / "E5.txt", (text + "\n").encode("utf-8"))
    return str(artifacts)


class WarmHits:
    """``repro report`` answering from a stored artifact; argument
    parsing is set-up, not part of the answer."""

    def __init__(self, directory: str, per_call: int) -> None:
        self.args = argparse.Namespace(dir=directory)
        self.per_call = per_call
        self.latencies: List[float] = []
        self.wrong = 0

    def __call__(self) -> None:
        from repro.cli import cmd_report

        for _ in range(self.per_call):
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cmd_report(self.args)
            self.latencies.append(time.perf_counter() - start)
            lines = [line.split() for line in sink.getvalue().splitlines()]
            if code != 0 or ["E5", "PASS"] not in lines:
                self.wrong += 1


def fresh_pass(seed: int, index: int, artifacts: Optional[str]) -> Dict[str, Any]:
    """Pass ``index`` of a run, with warm hits from ``artifacts`` if
    given; :func:`measure` runs it in a fresh interpreter."""
    tick = common.Yardstick()
    warm = WarmHits(artifacts, WARM_PER_JOB) if artifacts else None
    one = run_pass(make_config(seed, index), warm, tick)
    one.update(
        samples=tick.samples,
        warm=warm.latencies if warm else [],
        wrong=warm.wrong if warm else 0,
    )
    return one


def measure(seed: int, seconds: float, workdir: Any) -> common.Outcome:
    """Untraced run: E5 passes for ``seconds``, each in a fresh
    interpreter (its start-up is one set-up sample) and each with its own
    ``base_seed``.  The first pass's report is the artifact the warm
    hits of the later passes read."""
    outcome = common.Outcome()
    passes = common.Passes()
    setup: List[float] = []
    steps: List[int] = []
    warm: List[float] = []
    artifacts: Optional[str] = None
    started = time.perf_counter()
    while passes.more(started, seconds, MIN_PASSES):
        begun = time.perf_counter()
        index = len(setup)
        setup_s, one = common.run_fresh(
            SETUP_SNIPPET, "e5_quick", "fresh_pass", seed, index, artifacts
        )
        setup.append(setup_s)
        passes.add(one["latencies"], one["wall"], time.perf_counter() - begun, one["samples"])
        steps.append(one["steps"])
        warm.extend(one["warm"])
        outcome.check(one["passed"], f"E5 verdict FAIL in pass {index}")
        outcome.count(len(one["warm"]), one["wrong"], "wrong repro report answers")
        if artifacts is None:
            artifacts = store_artifact(one["text"], workdir)
    run_s = passes.wall()
    cold = passes.unit_medians()
    raw = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "steps_per_s": statistics.median(steps) / run_s,
        "cold_job_p50_s": common.percentile(cold, 50),
        "cold_job_p90_s": common.percentile(cold, 90),
        "warm_hit_p50_s": statistics.median(warm),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    outcome.metrics = passes.at_reference_speed(raw)
    outcome.notes.append(
        f"e5-quick passes={len(setup)} cold_jobs={len(cold)}x{len(setup)} "
        f"warm_hits={len(warm)} steps/pass={statistics.median(steps)}"
    )
    outcome.notes.append(f"speed {passes.speed():.4f} raw {json.dumps(raw)}")
    return outcome


def trace(seed: int, workdir: Any, quick: Any = None) -> Tuple[common.Outcome, Dict]:
    """Traced run: a pass with every probe on, between two untraced
    passes (the first also pays the process's warm-up)."""
    outcome = common.Outcome()
    config = make_config(seed, quick=quick)
    cal = probes.calibrate()
    plain = run_pass(config)
    with probes.LayerProbes() as layer:
        start = time.perf_counter_ns()
        traced = run_pass(config)
        traced_ns = time.perf_counter_ns() - start
    after = run_pass(config)
    for name, one in (("untraced", plain), ("traced", traced), ("untraced", after)):
        outcome.check(one["passed"], f"E5 verdict FAIL ({name})")
        outcome.check(one["text"] == plain["text"], f"{name} E5 report bytes differ")
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    metrics.update(probes.layer_metrics(layer, layer, cal))
    metrics["obs.trace_overhead"] = traced_ns / 1e9 / ((plain["wall"] + after["wall"]) / 2)
    metrics["obs.layer_coverage"] = layer.covered_ns() / traced_ns
    outcome.metrics = metrics
    if layer.missing:
        outcome.notes.append(f"probes not installed: {', '.join(layer.missing)}")
    outcome.notes.append(
        f"calibration: wrapper {cal['wrapper_ns']:.0f} ns, clock {cal['clock_ns']:.0f} ns"
    )
    return outcome, {"layers": [layer], "cal": cal}
