"""``zoo-grid``: ``repro zoo`` over every algorithm x every adversary.

Sanitizer on, ``--journal`` on, ``--jobs 2``, ``--base-seed`` from the
workload seed.  A *cold job* is one grid cell (one algorithm x adversary
seed ensemble, computed through its own process pool); a *warm hit* is
the same cell answered from the finished journal by ``repro zoo
--resume``, which recomputes nothing (a few answers after each grid).

Per-step layers come from a serial traced pass (``--jobs 1``) in this
process: the ``--jobs 2`` workers are forked, and numbers they gather
never reach the parent.  The traced ``--jobs 2`` pass carries only the
campaign-level probes (pool, ensemble, journal).
"""

from __future__ import annotations

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

ADVERSARIES = "round-robin,random,bounded-delay,stale-attack,contention-max"
SEEDS_PER_CELL = 3
ITERATIONS = 300
JOBS = 2
MIN_PASSES = 3
#: Warm ``--resume`` answers of the whole grid after each cold grid.
WARM_RESUMES = 3


def setup_snippet(seed: int) -> str:
    return (
        "from repro.cli import build_parser\n"
        "from repro.core.algorithm import algorithm_names\n"
        "from repro.experiments.e13_algorithm_zoo import ZooConfig, ZooWorkload\n"
        f"args = build_parser().parse_args({grid_argv(seed, JOBS, 'j', 'o')!r})\n"
        "ZooConfig(algorithms=algorithm_names(),\n"
        "          adversaries=tuple(args.adversaries.split(',')),\n"
        "          seeds=tuple(range(args.base_seed, args.base_seed + args.seeds)),\n"
        "          workload=ZooWorkload(num_threads=args.threads,\n"
        "                               iterations=args.iterations),\n"
        "          jobs=args.jobs)\n"
    )


def base_seed(seed: int) -> int:
    return random.Random(f"zoo-grid:{seed}").randrange(10**6)


def grid_argv(
    seed: int,
    jobs: int,
    journal: str,
    out: str,
    algorithms: str = "all",
    adversaries: str = ADVERSARIES,
    seeds: int = SEEDS_PER_CELL,
    iterations: int = ITERATIONS,
) -> List[str]:
    return [
        "zoo",
        "--algorithms", algorithms,
        "--adversaries", adversaries,
        "--seeds", str(seeds),
        "--iterations", str(iterations),
        "--base-seed", str(base_seed(seed)),
        "--jobs", str(jobs),
        "--journal", journal,
        "--out", out,
    ]


def run_grid(
    argv: List[str], resume: bool = False, tick: Optional[Callable[[], None]] = None
) -> Dict[str, Any]:
    """One ``repro zoo`` invocation in this process, per-cell timed;
    ``tick`` runs before each cell, and the wall leaves it out."""
    import repro.experiments.e13_algorithm_zoo as e13
    from repro.cli import main

    cells: List[float] = []
    aside = [0.0]
    ensemble = e13.run_ensemble

    def timed(*args: Any, **kwargs: Any):
        if tick is not None:
            start = time.perf_counter()
            tick()
            aside[0] += time.perf_counter() - start
        start = time.perf_counter()
        result = ensemble(*args, **kwargs)
        cells.append(time.perf_counter() - start)
        return result

    stdout, stderr = io.StringIO(), io.StringIO()
    common.quiesce()
    with mock.patch.object(e13, "run_ensemble", timed), contextlib.redirect_stdout(
        stdout
    ), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = main(argv + (["--resume"] if resume else []))
        wall = time.perf_counter() - start
    out = argv[argv.index("--out") + 1]
    report = b""
    if not resume:
        with open(f"{out}/zoo_report.json", "rb") as handle:
            report = handle.read()
    return {
        "code": code,
        "wall": wall - aside[0],
        "cells": cells,
        "text": stdout.getvalue(),
        "json": report,
    }


def check_report(outcome: common.Outcome, grid: Dict[str, Any], label: str) -> int:
    """Count each (algorithm, adversary, seed) outcome; return total steps."""
    outcome.check(grid["code"] == 0, f"repro zoo exit code {grid['code']} ({label})")
    rows = json.loads(grid["json"])["outcomes"]
    bad = sum(
        1
        for row in rows
        if row["sanitizer_findings"]
        or any(status == "violated" for _lemma, status in row["certificates"])
    )
    outcome.count(len(rows), bad, f"zoo cells failing a certificate or sanitizer ({label})")
    return sum(row["steps"] for row in rows)


def fresh_pass(seed: int, index: int, workdir: str) -> Dict[str, Any]:
    """Pass ``index`` of a run: a cold grid, then ``WARM_RESUMES`` warm
    ``--resume`` answers from its journal; :func:`measure` runs it in a
    fresh interpreter."""
    tick = common.Yardstick()
    tag = pathlib.Path(workdir) / f"pass{index}"
    argv = grid_argv(seed, JOBS, str(tag / "journal.jsonl"), str(tag))
    grid = run_grid(argv, tick=tick)
    resumes = [run_grid(argv, resume=True, tick=tick) for _ in range(WARM_RESUMES)]
    return {
        "code": grid["code"],
        "wall": grid["wall"],
        "cells": grid["cells"],
        "json": grid["json"].decode("utf-8"),
        "text": grid["text"],
        "warm": [
            {"cells": one["cells"], "wall": one["wall"],
             "ok": one["code"] == 0 and one["text"] == grid["text"]}
            for one in resumes
        ],
        "samples": tick.samples,
    }


def measure(seed: int, seconds: float, workdir: Any) -> common.Outcome:
    """Untraced run: passes for ``seconds``, each in a fresh interpreter
    (its start-up is one set-up sample).  The ``--jobs 1`` byte check
    runs in :func:`trace`."""
    outcome = common.Outcome()
    snippet = setup_snippet(seed)
    passes, warm = common.Passes(), common.Passes()
    setup: List[float] = []
    first: Dict[str, Any] = {}
    steps = 0
    started = time.perf_counter()
    while passes.more(started, seconds, MIN_PASSES):
        begun = time.perf_counter()
        label = f"pass {len(setup)}"
        setup_s, grid = common.run_fresh(
            snippet, "zoo_grid", "fresh_pass", seed, len(setup), str(workdir)
        )
        setup.append(setup_s)
        steps = check_report(outcome, grid, label)
        first = first or grid
        outcome.check(grid["json"] == first["json"], f"zoo report bytes differ, {label}")
        outcome.check(
            grid["text"] == first["text"], f"zoo grid answer differs, {label}"
        )
        for resumed in grid["warm"]:
            warm.add(resumed["cells"], resumed["wall"], 0.0)
            outcome.check(
                resumed["ok"], f"zoo --resume answer differs from the grid, {label}"
            )
        passes.add(grid["cells"], grid["wall"], time.perf_counter() - begun, grid["samples"])
    run_s = passes.wall()
    cold = passes.unit_medians()
    hits = warm.unit_medians()
    raw = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "steps_per_s": steps / run_s,
        "cold_job_p50_s": common.percentile(cold, 50),
        "cold_job_p90_s": common.percentile(cold, 90),
        "warm_hit_p50_s": common.percentile(hits, 50),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    outcome.metrics = passes.at_reference_speed(raw)
    outcome.notes.append(
        f"zoo-grid base_seed={base_seed(seed)} passes={len(setup)} "
        f"cold_cells={len(cold)}x{len(setup)} warm_cells={len(hits)}x{len(warm.units)} "
        f"steps/pass={steps}"
    )
    outcome.notes.append(f"speed {passes.speed():.4f} raw {json.dumps(raw)}")
    return outcome


def trace(seed: int, workdir: Any, **grid: Any) -> Tuple[common.Outcome, Dict]:
    """Traced run: untraced and traced grids at ``--jobs 2`` and 1."""
    outcome = common.Outcome()
    cal = probes.calibrate()
    runs: Dict[str, Dict[str, Any]] = {}
    layers: Dict[str, probes.LayerProbes] = {}
    for jobs in (JOBS, 1):
        for traced in (False, True):
            tag = workdir / f"j{jobs}-{'traced' if traced else 'plain'}"
            argv = grid_argv(seed, jobs, str(tag / "journal.jsonl"), str(tag), **grid)
            if traced:
                with probes.LayerProbes(per_step=jobs == 1) as layer:
                    runs[tag.name] = run_grid(argv)
                layers[tag.name] = layer
            else:
                runs[tag.name] = run_grid(argv)
            check_report(outcome, runs[tag.name], tag.name)
    reference = runs[f"j{JOBS}-plain"]["json"]
    for name, one in runs.items():
        outcome.check(one["json"] == reference, f"zoo report bytes differ ({name})")
    campaign, serial = layers[f"j{JOBS}-traced"], layers["j1-traced"]
    metrics = dict.fromkeys(common.PER_LAYER_UNITS, 0.0)
    metrics.update(probes.layer_metrics(serial, campaign, cal))
    metrics["obs.trace_overhead"] = runs["j1-traced"]["wall"] / runs["j1-plain"]["wall"]
    metrics["obs.layer_coverage"] = min(
        campaign.covered_ns() / 1e9 / runs[f"j{JOBS}-traced"]["wall"],
        serial.covered_ns() / 1e9 / runs["j1-traced"]["wall"],
    )
    outcome.metrics = metrics
    missing = sorted(set(campaign.missing + serial.missing))
    if missing:
        outcome.notes.append(f"probes not installed: {', '.join(missing)}")
    outcome.notes.append(
        "zoo-grid per-step layers: serial traced pass (--jobs 1) in this process; "
        f"pool layers: traced --jobs {JOBS} pass; untraced grid wall "
        f"--jobs {JOBS} {runs[f'j{JOBS}-plain']['wall']:.3f}s, "
        f"--jobs 1 {runs['j1-plain']['wall']:.3f}s"
    )
    return outcome, {"layers": [campaign, serial], "cal": cal}
