"""The campaign registry: one grid engine for every campaign kind.

A *campaign* grids one module-level worker over cells × seeds and folds
the outcomes into a deterministic report.  The five kinds —
``chaos`` (:mod:`repro.faults.campaign`), ``sanitize``
(:mod:`repro.analysis.presets`), ``zoo`` (:mod:`~repro.experiments.
e13_algorithm_zoo`), ``heal`` (:mod:`~repro.experiments.e14_resilience`)
and ``verify`` (:mod:`repro.verify.engine`) — are each one registered
:class:`Campaign` subclass declaring only what differs per kind:

* its config, built by :meth:`Campaign.build` from canonical params;
* its cells (:meth:`Campaign.cells`: namespace, worker, key) and
  the span each cell runs under (:meth:`Campaign.cell_span`);
* its outcome codec (:meth:`Campaign.encode` / :meth:`Campaign.decode`);
* its report (:meth:`Campaign.report`), per-cell telemetry and
  ``--metrics`` snapshot lines;
* its own CLI flags and how they map to params;
* its serve parameter table (:attr:`Campaign.serve_params`).

Everything else is written once here: the grid loop (one
:class:`~repro.experiments.ensemble.EnsemblePool` per grid, one
:func:`~repro.experiments.ensemble.run_ensemble` call per cell), the
jobs-excluded journal fingerprint, the partial report an interrupt
flushes, the report files, the ``repro <kind>`` subcommand and its
handler.  :mod:`repro.serve.specs` reads the same registry, so a new
kind is one class — no edits to ``cli.py`` or ``serve/specs.py``.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import shlex
import sys
from dataclasses import asdict
from typing import (
    Any,
    Callable,
    ClassVar,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
)

from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsemblePool, run_ensemble


def str_list(value: Any) -> Tuple[str, ...]:
    """Serve coercion for list params (they arrive as JSON arrays)."""
    return tuple(str(item) for item in value)


def comma_names(text: str) -> List[str]:
    """A CLI comma list (``"a, b,"``) as its non-empty names."""
    return [name.strip() for name in text.split(",") if name.strip()]


def grid_seeds(params: Mapping[str, Any]) -> Tuple[int, ...]:
    """``params["seeds"]`` consecutive seeds from ``params["base_seed"]``."""
    base = params["base_seed"]
    return tuple(range(base, base + params["seeds"]))


class Cell(NamedTuple):
    """One grid row: a seed ensemble of one worker."""

    #: Journal namespace isolating this row's seeds.
    namespace: str
    #: ``run_one(seed)``: a ``functools.partial`` of a module-level
    #: worker, so it pickles into the pool.
    run_one: Callable[[int], Any]
    #: The row's coordinates (e.g. ``(algorithm, adversary)``), for
    #: :meth:`Campaign.cell_span`.
    key: Tuple[Any, ...]


class Campaign:
    """One campaign kind.  Register subclasses with
    :func:`register_campaign`; the registry holds one instance each."""

    #: Registry name: the CLI subcommand and the serve job kind.
    name: ClassVar[str] = ""
    #: The subcommand's one-line help.
    help: ClassVar[str] = ""
    #: Report files are ``<report_name>.{txt,json}`` under ``--out``.
    report_name: ClassVar[str] = ""
    #: CLI ``--seeds`` and ``--base-seed`` defaults.
    cli_seeds: ClassVar[Tuple[int, int]] = (1, 1)
    #: What one ``--seeds`` ensemble covers, for the flag's help.
    seeds_per: ClassVar[str] = "cell"
    #: ``(name, help)`` of the counter each finished cell bumps.
    cells_metric: ClassVar[Tuple[str, str]] = ("", "")
    #: ``--metrics`` help; ``None`` means the kind writes no snapshot
    #: and has neither ``--metrics`` nor ``--metrics-interval``.
    metrics_help: ClassVar[Optional[str]] = None
    #: Serve params, in canonical order: name -> (default, coercion).
    #: Defaults are the served job's, which differ from the CLI's.
    serve_params: ClassVar[Dict[str, Tuple[Any, Callable[[Any], Any]]]] = {}

    # ------------------------------------------------------------------
    # Declared per kind
    # ------------------------------------------------------------------
    def build(
        self, params: Mapping[str, Any], jobs: int = 1, collect_obs: bool = False
    ) -> Any:
        """The config canonical ``params`` denote (validated: bad names
        raise :class:`~repro.errors.ConfigurationError`).  Kinds without
        per-cell observability ignore ``collect_obs``."""
        raise NotImplementedError

    def cells(self, config: Any) -> Iterator[Cell]:
        """The grid's rows, in report order."""
        raise NotImplementedError

    def cell_span(self, config: Any, cell: Cell) -> ContextManager[Any]:
        """The ``trace_span`` one row runs under (a literal span name)."""
        raise NotImplementedError

    def encode(self, outcome: Any) -> Any:
        """One outcome as a JSON-safe journal payload."""
        raise NotImplementedError

    def decode(self, payload: Any) -> Any:
        """Exact inverse of :meth:`encode`."""
        raise NotImplementedError

    def report(self, config: Any, outcomes: List[Any]) -> Any:
        """Fold grid-ordered outcomes into the report (``render()``,
        ``to_json()``, ``passed``)."""
        raise NotImplementedError

    def telemetry(self, registry: Any, outcome: Any) -> None:
        """Publish one fresh cell's kind-specific metrics (beyond
        :attr:`cells_metric`)."""

    def snapshot_lines(self, report: Any) -> List[Dict[str, Any]]:
        """The deterministic ``--metrics`` snapshot of a report."""
        raise NotImplementedError

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """The kind's own CLI flags."""
        raise NotImplementedError

    def params_from_args(self, args: argparse.Namespace) -> Dict[str, Any]:
        """Canonical params from the kind's flags (comma lists split,
        aliases such as ``all`` expanded, ``--no-*`` flags negated)."""
        raise NotImplementedError

    def run_cell(self, run_one: Callable[[int], Any], seeds: Any, **kwargs: Any):
        """The one per-cell call of the grid loop."""
        return run_ensemble(run_one, seeds, **kwargs)

    # ------------------------------------------------------------------
    # Written once
    # ------------------------------------------------------------------
    def fingerprint(self, config: Any) -> str:
        """Stable fingerprint of everything that determines results.

        ``jobs`` is excluded: parallelism changes wall-clock time, never
        results, so a journal written under ``--jobs 4`` resumes under
        ``--jobs 1`` (and vice versa).
        """
        from repro.durable.journal import config_fingerprint

        payload = asdict(config)
        payload.pop("jobs", None)
        return config_fingerprint(payload)

    def run(
        self,
        config: Any,
        journal: Optional[Any] = None,
        shutdown: Optional[Any] = None,
        metrics: Optional[Any] = None,
        progress: Optional[Callable[[int, Any], None]] = None,
    ) -> Any:
        """Execute the whole grid and fold its report.

        Every row's seed ensemble goes through :meth:`run_cell` with one
        pool held for the grid, so ``config.jobs`` parallelizes with
        results byte-identical to a serial run.  With a ``journal``
        (opened against :meth:`fingerprint`) finished cells are recorded
        as they land and skipped on resume, byte-identically;
        ``shutdown`` stops at the next cell boundary by raising
        :class:`~repro.errors.InterruptedRunError`.  ``metrics`` (a
        :class:`~repro.obs.registry.MetricsRegistry`) receives ensemble
        counters plus :meth:`telemetry`; ``progress(seed, outcome)``
        fires per fresh cell.  None of this changes report bytes.
        """
        from repro.obs.registry import live_registry

        registry = live_registry(metrics)

        def note_cell(seed: int, outcome: Any) -> None:
            if registry is not None:
                self.telemetry(registry, outcome)
                registry.counter(*self.cells_metric).inc()
            if progress is not None:
                progress(seed, outcome)

        outcomes: List[Any] = []
        with EnsemblePool(config.jobs, len(config.seeds)) as pool:
            for cell in self.cells(config):
                with self.cell_span(config, cell):
                    outcomes.extend(
                        self.run_cell(
                            cell.run_one,
                            config.seeds,
                            jobs=config.jobs,
                            journal=journal,
                            namespace=cell.namespace,
                            encode=self.encode,
                            decode=self.decode,
                            shutdown=shutdown,
                            metrics=metrics,
                            progress=note_cell,
                            pool=pool,
                        )
                    )
        return self.report(config, outcomes)

    def partial_report(self, config: Any, journal: Any) -> Any:
        """Report over only the cells ``journal`` holds, in grid order —
        what an interrupted run flushes; the resumed report extends it."""
        outcomes: List[Any] = []
        for cell in self.cells(config):
            done = journal.completed(cell.namespace)
            outcomes.extend(
                self.decode(done[seed]) for seed in config.seeds if seed in done
            )
        return self.report(config, outcomes)

    # ------------------------------------------------------------------
    # The ``repro <kind>`` subcommand
    # ------------------------------------------------------------------
    def add_parser(self, subparsers: Any) -> None:
        """Add ``repro <name>``: the kind's flags, then the shared ones."""
        parser = subparsers.add_parser(self.name, help=self.help)
        self.add_arguments(parser)
        seeds, base_seed = self.cli_seeds
        parser.add_argument(
            "--seeds", type=int, default=seeds, metavar="N",
            help=f"seeds per {self.seeds_per} (default {seeds})",
        )
        parser.add_argument(
            "--base-seed", type=int, default=base_seed, metavar="S",
            help=f"first seed of each cell's ensemble (default {base_seed})",
        )
        parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes for the grid (1 = serial, 0 = one per "
            "CPU); reports are byte-identical for any value",
        )
        parser.add_argument(
            "--out", default=None,
            help=f"directory to write {self.report_name}.{{txt,json}} to",
        )
        parser.add_argument(
            "--journal", default=None, metavar="PATH",
            help="durable run journal (JSONL): completed cells are recorded "
            "as they finish, so a killed run can be resumed",
        )
        parser.add_argument(
            "--resume", action="store_true",
            help="resume from --journal, skipping already-completed cells; "
            "the final report is byte-identical to an uninterrupted run",
        )
        if self.metrics_help is not None:
            parser.add_argument(
                "--metrics", default=None, metavar="PATH",
                help=self.metrics_help,
            )
            parser.add_argument(
                "--metrics-interval", type=float, default=None, metavar="SECS",
                help="render a live 'repro top'-style text view to stderr at "
                "most every SECS seconds (wall clock; telemetry only)",
            )
        parser.set_defaults(func=self.command)

    def command(self, args: argparse.Namespace) -> int:
        """Run the grid from parsed flags; print and persist the report.

        Exit codes: 0 when the report passes, 1 when it fails, 2 for a
        bad config or journal, 130 when SIGINT/SIGTERM stopped the run
        at a cell boundary (a partial report is flushed to ``--out`` and
        the exact resume command is printed).  ``args.argv`` is the
        invocation's own argv, which the resume command replays.
        """
        from repro.durable.signals import GracefulShutdown
        from repro.errors import InterruptedRunError
        from repro.obs.spans import SpanRecorder, set_span_recorder

        snapshot = getattr(args, "metrics", None)
        interval = getattr(args, "metrics_interval", None)
        trace = getattr(args, "trace", None)
        try:
            config = self.build(
                self.params_from_args(args),
                jobs=1 if args.jobs is None else args.jobs,
                collect_obs=snapshot is not None,
            )
        except ConfigurationError as error:
            print(str(error), file=sys.stderr)
            return 2
        registry = top = None
        if snapshot is not None or interval is not None:
            from repro.obs.registry import MetricsRegistry
            from repro.obs.top import TopView

            registry = MetricsRegistry()
            if interval is not None:
                top = TopView(registry, interval=interval, title=f"repro {self.name}")

        def on_cell(_seed: int, _outcome: Any) -> None:
            if top is not None:
                top.maybe_render()

        journal, exit_code = _open_journal(args, self.fingerprint(config))
        if exit_code is not None:
            return exit_code
        recorder = None
        try:
            if trace is not None:
                recorder = SpanRecorder()
                set_span_recorder(recorder)
            with GracefulShutdown() as shutdown:
                report = self.run(
                    config,
                    journal=journal,
                    shutdown=shutdown,
                    metrics=registry,
                    progress=on_cell,
                )
        except InterruptedRunError as error:
            print(f"\ninterrupted: {error}", file=sys.stderr)
            if journal is not None:
                self._flush_partial(args, config, journal)
            return 130
        finally:
            if journal is not None:
                journal.close()
            if recorder is not None:
                set_span_recorder(None)
                recorder.write_chrome_trace(trace)
                print(f"chrome trace written to {trace}", file=sys.stderr)
        if top is not None:
            top.maybe_render(force=True)
        print(report.render())
        if snapshot is not None:
            from repro.obs.snapshot import write_snapshot_jsonl

            lines = self.snapshot_lines(report)
            write_snapshot_jsonl(snapshot, lines)
            print(
                f"metric snapshot ({len(lines)} line(s)) written to "
                f"{snapshot}; inspect with: python -m repro obs {snapshot}",
                file=sys.stderr,
            )
        if args.out is not None:
            write_reports(report, args.out, self.report_name)
        return 0 if report.passed else 1

    def _flush_partial(
        self, args: argparse.Namespace, config: Any, journal: Any
    ) -> None:
        """Interrupt epilogue: the partial report and the resume command."""
        if args.out is not None:
            stem = f"{self.report_name}.partial"
            write_reports(self.partial_report(config, journal), args.out, stem)
            print(f"partial report written to {args.out}/{stem}.*", file=sys.stderr)
        argv = list(args.argv)
        if "--resume" not in argv:
            argv.append("--resume")
        print(
            f"{journal.total_completed} completed cell(s) are journaled in "
            f"{journal.path}; resume with:\n  "
            + shlex.join(["python", "-m", "repro", *argv]),
            file=sys.stderr,
        )


def _open_journal(args: argparse.Namespace, fingerprint: str):
    """Open the ``--journal`` (honouring ``--resume``) or return an error
    exit code.  Returns ``(journal_or_None, exit_code_or_None)``."""
    from repro.errors import ReproError

    if args.journal is None:
        if args.resume:
            print("--resume requires --journal PATH", file=sys.stderr)
            return None, 2
        return None, None
    from repro.durable.journal import RunJournal

    try:
        journal = RunJournal.open(args.journal, fingerprint, resume=args.resume)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return None, 2
    for finding in journal.findings:
        print(str(finding), file=sys.stderr)
    if args.resume and journal.total_completed:
        print(
            f"resuming: {journal.total_completed} cell(s) already journaled "
            f"in {args.journal}",
            file=sys.stderr,
        )
    return journal, None


def write_report(report: Any, path: Any, fmt: str = "json") -> None:
    """Atomically persist a grid report as ``json`` (``to_json()``) or
    ``txt`` (``render()``), via :func:`repro.durable.atomic_io.
    atomic_write` — a crash mid-write never leaves a torn report."""
    from repro.durable.atomic_io import atomic_write

    if fmt == "json":
        text = report.to_json()
    elif fmt == "txt":
        text = report.render() + "\n"
    else:
        raise ConfigurationError(f"unknown report format: {fmt!r}")
    atomic_write(path, text.encode("utf-8"))


def write_reports(report: Any, out_dir: Any, stem: str) -> None:
    """``<out_dir>/<stem>.txt`` and ``<stem>.json``."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / f"{stem}.txt", "txt")
    write_report(report, out / f"{stem}.json", "json")


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Campaign] = {}

#: The built-in kinds and their modules, in serve ``JOB_KINDS`` order
#: (fixed here: which module is imported first depends on the caller).
_BUILTINS: Dict[str, str] = {
    "chaos": "repro.faults.campaign",
    "sanitize": "repro.analysis.presets",
    "zoo": "repro.experiments.e13_algorithm_zoo",
    "heal": "repro.experiments.e14_resilience",
    "verify": "repro.verify.engine",
}
_builtins_loaded = False


def register_campaign(cls: Type[Campaign]) -> Type[Campaign]:
    """Class decorator: register one instance of ``cls`` under
    ``cls.name``."""
    if not cls.name:
        raise ConfigurationError(
            f"{cls.__name__} must set a non-empty registry name"
        )
    if cls.name in _REGISTRY:
        raise ConfigurationError(
            f"campaign name {cls.name!r} already registered "
            f"(by {type(_REGISTRY[cls.name]).__name__})"
        )
    _REGISTRY[cls.name] = cls()
    return cls


def _load_builtins() -> None:
    """Import the built-in kinds' modules so their classes register
    (idempotent; lazy to avoid import cycles)."""
    global _builtins_loaded
    if not _builtins_loaded:
        for module in _BUILTINS.values():
            importlib.import_module(module)
        _builtins_loaded = True


def campaign_names() -> Tuple[str, ...]:
    """Registered kinds: the built-ins in ``JOB_KINDS`` order, then any
    others in registration order."""
    _load_builtins()
    return tuple(_BUILTINS) + tuple(
        name for name in _REGISTRY if name not in _BUILTINS
    )


def get_campaign(name: str) -> Campaign:
    """The registered campaign called ``name``."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r} (choose from "
            f"{', '.join(campaign_names())})"
        ) from None
