"""The repo benchmark: run one named workload with a seed, check it, report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e5-quick --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload with the layer probes on and prints every per-layer metric,
writing a Chrome/Perfetto trace and a self-time table under
``.perfbench-out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it are for people: failures, the workload inputs, and the
machine yardstick (calibration loop time, nproc, Python and numpy).
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("e5-quick", "zoo-grid", "serve-mixed")


def _workload_module(name: str):
    import importlib

    return importlib.import_module("perfbench." + name.replace("-", "_"))


def _write_trace_artifacts(name: str, seed: int, artifacts: dict) -> str:
    """The traced run's Chrome/Perfetto trace and self-time table."""
    from perfbench import probes

    cal = artifacts["cal"]
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    stem = out / f"{name}-seed{seed}"
    events = []
    sections = []
    for pid, layer in enumerate(artifacts.get("layers", [])):
        events.extend(layer.chrome_trace(pid=pid))
        sections.append(
            f"pass {pid} ({'all probes' if layer.per_step else 'campaign probes'})\n"
            + probes.self_time_table(probes.self_time_rows(layer, cal))
        )
    events.extend(artifacts.get("events", []))
    if artifacts.get("rows"):
        sections.append("served jobs\n" + probes.self_time_table(artifacts["rows"]))
    probes.write_trace(f"{stem}.trace.json", events)
    with open(f"{stem}.selftime.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    return str(stem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    module = _workload_module(args.workload)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome, artifacts = module.trace(args.seed, workdir)
            catalogue = [(name, unit) for name, unit, _b in common.PER_LAYER]
        else:
            outcome = module.measure(args.seed, args.seconds, workdir)
            artifacts = None
            catalogue = list(common.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [name for name, _unit in catalogue if name not in outcome.metrics]
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(note)
    if artifacts is not None:
        stem = _write_trace_artifacts(args.workload, args.seed, artifacts)
        print(f"trace: {stem}.trace.json, self time: {stem}.selftime.txt")
    print("env " + json.dumps(common.environment(), sort_keys=True))
    attempted = max(1, outcome.attempted)
    print(f"failed_frac {outcome.failed / attempted:.6g} ratio")
    for name, unit in catalogue:
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in catalogue
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
