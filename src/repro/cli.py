"""Command-line interface: ``python -m repro``.

Lets a downstream user regenerate any paper artifact without writing
code::

    python -m repro list
    python -m repro run E2                 # quick preset
    python -m repro run E5 --scale full    # EXPERIMENTS.md-scale
    python -m repro run all --out results/ # every experiment, files per id
    python -m repro chaos --seeds 4        # seeded fault campaign
    python -m repro zoo                    # every algorithm x every adversary
    python -m repro sanitize               # race/staleness sanitizer presets
    python -m repro lint src/repro         # program-DSL / determinism lint
    python -m repro serve --port 8321      # supervised job server (HTTP)
    python -m repro loadtest --self-host   # chaos-load the server
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import Dict, Optional, Tuple

from repro.experiments import (
    a1_ablations,
    a2_consistency,
    e1_sequential,
    e2_lower_bound,
    e3_good_bad,
    e4_indicator_sum,
    e5_upper_bound,
    e6_bound_comparison,
    e7_full_sgd,
    e8_tradeoff,
    e9_staleness_aware,
    e10_momentum,
    e11_dense_gradients,
    e12_sparsity,
    e13_algorithm_zoo,
    e14_resilience,
    e15_verify,
    f1_figure,
)
from repro.experiments.grid import campaign_names, get_campaign

#: Experiment id -> (driver module, config class).
REGISTRY: Dict[str, Tuple[object, type]] = {
    "E1": (e1_sequential, e1_sequential.E1Config),
    "E2": (e2_lower_bound, e2_lower_bound.E2Config),
    "E3": (e3_good_bad, e3_good_bad.E3Config),
    "E4": (e4_indicator_sum, e4_indicator_sum.E4Config),
    "E5": (e5_upper_bound, e5_upper_bound.E5Config),
    "E6": (e6_bound_comparison, e6_bound_comparison.E6Config),
    "E7": (e7_full_sgd, e7_full_sgd.E7Config),
    "E8": (e8_tradeoff, e8_tradeoff.E8Config),
    "E9": (e9_staleness_aware, e9_staleness_aware.E9Config),
    "E10": (e10_momentum, e10_momentum.E10Config),
    "E11": (e11_dense_gradients, e11_dense_gradients.E11Config),
    "E12": (e12_sparsity, e12_sparsity.E12Config),
    "E13": (e13_algorithm_zoo, e13_algorithm_zoo.ZooConfig),
    "E14": (e14_resilience, e14_resilience.HealGridConfig),
    "E15": (e15_verify, e15_verify.VerifyConfig),
    "F1": (f1_figure, f1_figure.F1Config),
    "A1": (a1_ablations, a1_ablations.A1Config),
    "A2": (a2_consistency, a2_consistency.A2Config),
}


def _experiment_title(module) -> str:
    """First sentence of the driver module's docstring."""
    doc = (module.__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the experiment registry."""
    width = max(len(k) for k in REGISTRY)
    for key, (module, _config) in REGISTRY.items():
        print(f"{key.ljust(width)}  {_experiment_title(module)}")
    return 0


def _write_text_atomic(path: pathlib.Path, text: str) -> None:
    """Persist a CLI artifact via the durable temp+fsync+rename path, so
    an interrupt mid-write never leaves a torn file."""
    from repro.durable.atomic_io import atomic_write

    atomic_write(path, text.encode("utf-8"))


def preset(config_cls: type, scale: str, jobs: Optional[int] = None):
    """``config_cls``'s ``full()`` or ``quick()`` preset, with ``jobs``
    set on configs that have it (``None`` keeps the preset's).
    Campaign configs are frozen, hence ``dataclasses.replace``."""
    config = config_cls.full() if scale == "full" else config_cls.quick()
    if jobs is not None and hasattr(config, "jobs"):
        config = dataclasses.replace(config, jobs=jobs)
    return config


def _run_one(
    key: str,
    scale: str,
    out_dir: Optional[pathlib.Path],
    plot: bool,
    jobs: Optional[int] = None,
):
    module, config_cls = REGISTRY[key]
    result = module.run(preset(config_cls, scale, jobs))
    text = result.render(plot=plot)
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(out_dir / f"{key}.txt", text + "\n")
    return result


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or ``all``) and print/persist its artifact."""
    keys = list(REGISTRY) if args.experiment.lower() == "all" else [
        args.experiment.upper()
    ]
    unknown = [k for k in keys if k not in REGISTRY]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(REGISTRY)})",
            file=sys.stderr,
        )
        return 2
    out_dir = pathlib.Path(args.out) if args.out else None
    all_passed = True
    obs_lines = []
    for key in keys:
        result = _run_one(key, args.scale, out_dir, not args.no_plot, args.jobs)
        all_passed = all_passed and result.passed
        obs = getattr(result, "obs", None)
        if obs is not None:
            obs_lines.append(
                {
                    "kind": "experiment",
                    "id": key,
                    "passed": result.passed,
                    "metrics": obs.get("aggregate", obs),
                }
            )
        print()
    if args.metrics is not None:
        from repro.obs.snapshot import write_snapshot_jsonl

        write_snapshot_jsonl(args.metrics, obs_lines)
        print(
            f"metric snapshot ({len(obs_lines)} line(s)) written to "
            f"{args.metrics}",
            file=sys.stderr,
        )
        if not obs_lines:
            print(
                "note: none of the selected experiments export "
                "observability metrics (currently E4 and E5 do)",
                file=sys.stderr,
            )
    return 0 if all_passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Summarize verdicts from a directory of <id>.txt artifacts."""
    directory = pathlib.Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    rows = []
    for key in REGISTRY:
        artifact = directory / f"{key}.txt"
        if not artifact.exists():
            rows.append((key, "missing"))
            continue
        text = artifact.read_text()
        if "verdict: PASS" in text:
            rows.append((key, "PASS"))
        elif "verdict: FAIL" in text:
            rows.append((key, "FAIL"))
        else:
            rows.append((key, "unknown"))
    width = max(len(k) for k, _ in rows)
    failures = 0
    for key, verdict in rows:
        print(f"{key.ljust(width)}  {verdict}")
        if verdict == "FAIL":
            failures += 1
    present = sum(1 for _k, v in rows if v in ("PASS", "FAIL"))
    print(f"\n{present} artifacts, {failures} failing")
    return 1 if failures else 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Render a metric-snapshot file (``--metrics`` output) for humans.

    ``--format text`` (default) prints per-cell summaries plus ASCII
    histogram bars; ``--format prom`` re-renders every metrics block as
    a Prometheus text exposition.  Pure rendering over a deterministic
    file — the output is deterministic too.
    """
    from repro.errors import ReproError
    from repro.obs.snapshot import load_snapshot_jsonl, prometheus_exposition
    from repro.obs.top import render_snapshot_lines

    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"no such snapshot file: {path}", file=sys.stderr)
        return 2
    try:
        lines = load_snapshot_jsonl(path)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.format == "prom":
        # Per-cell blocks would collide on metric names; the exposition
        # renders the roll-up lines only (aggregate / experiment).
        blocks = []
        for line in lines:
            if line.get("kind") not in ("aggregate", "experiment"):
                continue
            metrics = line.get("metrics")
            if not isinstance(metrics, dict) or not metrics:
                continue
            label = line.get("id")
            header = f"# {line['kind']}" + (f" {label}" if label else "")
            blocks.append(header + "\n" + prometheus_exposition(metrics))
        if not blocks:
            print("no aggregate metrics blocks in snapshot", file=sys.stderr)
            return 1
        print("\n".join(blocks), end="")
    else:
        print(render_snapshot_lines(lines))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically lint program/experiment sources for DSL misuse and
    determinism hazards.  Exit code 1 on any finding, 0 when clean."""
    from repro.analysis.lint import lint_paths, render_findings

    paths = [pathlib.Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    text = render_findings(findings)
    print(text)
    if args.out is not None:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(out_dir / "lint_report.txt", text + "\n")
    return 1 if findings else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the supervised job server until SIGINT/SIGTERM, then drain.

    Exit codes: 0 clean drain, 2 configuration error.
    """
    import asyncio

    from repro.durable.signals import GracefulShutdown
    from repro.obs.registry import MetricsRegistry
    from repro.serve.server import JobServer
    from repro.serve.supervisor import JobSupervisor, ServerPolicy

    if args.workers < 1 or args.queue_size < 1 or args.max_attempts < 1:
        print(
            "--workers, --queue-size and --max-attempts must be >= 1",
            file=sys.stderr,
        )
        return 2
    policy = ServerPolicy(
        max_queue=args.queue_size,
        workers=args.workers,
        job_deadline=args.job_deadline,
        stall_timeout=args.stall_timeout,
        max_attempts=args.max_attempts,
        respawn_budget=args.respawn_budget,
    )
    workdir = pathlib.Path(args.workdir)
    metrics = MetricsRegistry()
    supervisor = JobSupervisor(policy, workdir=workdir, metrics=metrics)
    server = JobServer(
        supervisor, host=args.host, port=args.port, metrics=metrics
    )

    async def _serve() -> None:
        with GracefulShutdown() as shutdown:
            await server.start()
            print(
                f"serving on http://{server.host}:{server.port} "
                f"(workdir {workdir})",
                flush=True,
            )
            await server.run_until_shutdown(shutdown)

    asyncio.run(_serve())
    counts = supervisor.counts()
    print(
        f"drained: {counts['done']} done, {counts['failed']} failed, "
        f"{counts['interrupted']} interrupted (journals kept), "
        f"{counts['cancelled']} cancelled",
        flush=True,
    )
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Chaos-load a job server and check the acceptance property.

    With ``--self-host`` a private server is started (and drained) in
    process; otherwise an already-running ``--host``/``--port`` is the
    target.  Exit codes: 0 acceptance property held, 1 degraded, 2
    configuration error.
    """
    import asyncio
    import json as json_module
    import tempfile

    from repro.obs.registry import MetricsRegistry
    from repro.serve.loadgen import LoadGenerator, LoadPlan

    plan = LoadPlan(
        spec={
            "kind": "chaos",
            "params": {
                "specs": ["none"],
                "seeds": args.seeds,
                "iterations": args.iterations,
            },
        },
        requests=args.requests,
        duplicates=args.duplicates,
        malformed=args.malformed,
        slow_loris=args.slow_loris,
        kill_workers=args.kill_workers,
    )

    async def _run() -> "object":
        if not args.self_host:
            generator = LoadGenerator(args.host, args.port, plan)
            return await generator.run_async()
        from repro.serve.server import JobServer
        from repro.serve.supervisor import JobSupervisor, ServerPolicy

        workdir = pathlib.Path(
            args.workdir
            if args.workdir is not None
            else tempfile.mkdtemp(prefix="repro-loadtest-")
        )
        metrics = MetricsRegistry()
        supervisor = JobSupervisor(
            ServerPolicy(max_queue=args.queue_size, workers=args.workers),
            workdir=workdir,
            metrics=metrics,
        )
        server = JobServer(supervisor, metrics=metrics)
        await server.start()
        try:
            generator = LoadGenerator("127.0.0.1", server.port, plan)
            return await generator.run_async()
        finally:
            await server.stop()
            await asyncio.get_event_loop().run_in_executor(
                None, supervisor.drain
            )

    report = asyncio.run(_run())
    print(report.render())
    if args.out is not None:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text_atomic(
            out_dir / "loadtest_report.json",
            json_module.dumps(report.summary(), indent=2, sort_keys=True)
            + "\n",
        )
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Stitch causal span spills into one Chrome/Perfetto trace file.

    ``path`` may be a single ``*.spans.jsonl`` spill, a directory (a
    serve workdir or one job's directory — spills are found
    recursively), or a job journal file (its serve workdir is scanned).
    Exit codes: 0 wrote a trace, 1 no spans found, 2 bad path.
    """
    from repro.obs.causal import (
        SPILL_SUFFIX,
        find_spills,
        read_spills,
        stitch_records,
        write_stitched_trace,
    )

    root = pathlib.Path(args.path)
    if not root.exists():
        print(f"no such path: {root}", file=sys.stderr)
        return 2
    if root.is_file():
        if root.name.endswith(SPILL_SUFFIX):
            spills = [root]
        else:
            # A journal (workdir/journal/<fp>.jsonl): scan its workdir.
            spills = find_spills(root.parent.parent)
    else:
        spills = find_spills(root)
    records = read_spills(spills)
    if args.trace_id is not None:
        records = [r for r in records if r.get("trace") == args.trace_id]
    if not records:
        print(
            f"no span records under {root} "
            f"(looked at {len(spills)} spill file(s))",
            file=sys.stderr,
        )
        return 1
    payload = stitch_records(records, mode=args.mode)
    out = pathlib.Path(args.out)
    write_stitched_trace(out, payload)
    traces = sorted({str(r.get("trace")) for r in records})
    lanes = sorted(
        {(str(r.get("role", "?")), int(r.get("attempt", 0) or 0)) for r in records}
    )
    flows = sum(1 for r in records if r.get("flow"))
    print(
        f"stitched {len(records)} span(s) from {len(spills)} spill(s) "
        f"across {len(lanes)} lane(s), {flows} flow link(s), "
        f"{len(traces)} trace(s) -> {out} [{args.mode}]"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'The Convergence of SGD in Asynchronous "
        "Shared Memory' (PODC 2018): run any of the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the available experiments"
    )
    list_parser.set_defaults(func=cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run an experiment (or 'all') and print its artifact"
    )
    run_parser.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(REGISTRY)}) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="preset size: quick (seconds) or full (EXPERIMENTS.md scale)",
    )
    run_parser.add_argument(
        "--out", default=None, help="directory to write <id>.txt artifacts to"
    )
    run_parser.add_argument(
        "--no-plot", action="store_true", help="omit the ASCII figure"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for Monte-Carlo ensembles on experiments "
        "that support them (1 = serial, 0 = one per CPU); results are "
        "identical for any value",
    )
    run_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write a deterministic metric-snapshot JSONL of the "
        "experiments' observability exports (inspect with 'repro obs')",
    )
    run_parser.set_defaults(func=cmd_run)

    # chaos, sanitize, zoo, heal, verify: one subcommand per campaign.
    for name in campaign_names():
        get_campaign(name).add_parser(subparsers)

    obs_parser = subparsers.add_parser(
        "obs",
        help="render a --metrics snapshot file (text summaries + ASCII "
        "histograms, or a Prometheus exposition)",
    )
    obs_parser.add_argument(
        "path", help="snapshot JSONL written by run/chaos/sanitize --metrics"
    )
    obs_parser.add_argument(
        "--format", choices=("text", "prom"), default="text",
        help="text (default): human summaries + histogram bars; "
        "prom: Prometheus text exposition of the roll-up blocks",
    )
    obs_parser.set_defaults(func=cmd_obs)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically lint sources for program-DSL misuse and "
        "determinism hazards",
    )
    lint_parser.add_argument(
        "paths", nargs="+",
        help="files or directories to lint (e.g. src/repro)",
    )
    lint_parser.add_argument(
        "--out", default=None,
        help="directory to write lint_report.txt to",
    )
    lint_parser.set_defaults(func=cmd_lint)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the supervised simulation job server (HTTP/JSON)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 picks an ephemeral port, printed on start)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent jobs (supervisor worker threads)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=8,
        help="admission queue bound (429 past it)",
    )
    serve_parser.add_argument(
        "--job-deadline", type=float, default=None,
        help="per-job wall-clock deadline in seconds (watchdog WD003)",
    )
    serve_parser.add_argument(
        "--stall-timeout", type=float, default=None,
        help="per-job heartbeat window in seconds (watchdog WD001)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per job before a crash becomes a failure",
    )
    serve_parser.add_argument(
        "--respawn-budget", type=int, default=8,
        help="server-wide crash respawn budget",
    )
    serve_parser.add_argument(
        "--workdir", default="serve-data",
        help="journals, progress files and the result cache live here",
    )
    serve_parser.set_defaults(func=cmd_serve)

    loadtest_parser = subparsers.add_parser(
        "loadtest",
        help="chaos-load a job server and check the acceptance property",
    )
    loadtest_parser.add_argument(
        "--host", default="127.0.0.1", help="target server address"
    )
    loadtest_parser.add_argument(
        "--port", type=int, default=8321, help="target server port"
    )
    loadtest_parser.add_argument(
        "--self-host", action="store_true",
        help="start (and drain) a private in-process server to test",
    )
    loadtest_parser.add_argument(
        "--workers", type=int, default=2,
        help="self-hosted server worker threads",
    )
    loadtest_parser.add_argument(
        "--queue-size", type=int, default=8,
        help="self-hosted server admission bound",
    )
    loadtest_parser.add_argument(
        "--workdir", default=None,
        help="self-hosted server workdir (default: fresh temp dir)",
    )
    loadtest_parser.add_argument(
        "--requests", type=int, default=3, help="distinct valid submissions"
    )
    loadtest_parser.add_argument(
        "--duplicates", type=int, default=5,
        help="duplicate submissions of one spec (cache flood)",
    )
    loadtest_parser.add_argument(
        "--malformed", type=int, default=3,
        help="malformed submissions (must all answer 400)",
    )
    loadtest_parser.add_argument(
        "--slow-loris", type=int, default=2,
        help="connections that stall mid-request (must be cut off)",
    )
    loadtest_parser.add_argument(
        "--kill-workers", type=int, default=0,
        help="SIGKILL this many running workers mid-job",
    )
    loadtest_parser.add_argument(
        "--seeds", type=int, default=2, help="seeds per submitted job"
    )
    loadtest_parser.add_argument(
        "--iterations", type=int, default=60,
        help="iterations per submitted job",
    )
    loadtest_parser.add_argument(
        "--out", default=None,
        help="directory to write loadtest_report.json to",
    )
    loadtest_parser.set_defaults(func=cmd_loadtest)

    trace_parser = subparsers.add_parser(
        "trace",
        help="stitch causal span spills (serve workdir, job dir, spill "
        "file, or journal) into one Chrome/Perfetto trace",
    )
    trace_parser.add_argument(
        "path",
        help="spill file (*.spans.jsonl), serve workdir/job directory, "
        "or job journal",
    )
    trace_parser.add_argument(
        "--mode", choices=("wall", "logical"), default="wall",
        help="wall (default): causal timeline with flow arrows; "
        "logical: deterministic projection (byte-comparable across "
        "--jobs values and journal resumes)",
    )
    trace_parser.add_argument(
        "--trace-id", default=None,
        help="only stitch records of this trace id",
    )
    trace_parser.add_argument(
        "--out", default="trace.json",
        help="output file (default: trace.json)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    report_parser = subparsers.add_parser(
        "report", help="summarize verdicts from a directory of artifacts"
    )
    report_parser.add_argument(
        "dir",
        nargs="?",
        default="benchmarks/results",
        help="artifact directory (default: benchmarks/results)",
    )
    report_parser.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Campaign commands replay ``argv`` in the resume line they print.
    args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    return args.func(args)
