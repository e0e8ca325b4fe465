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
* its outcome dataclass (:attr:`Campaign.outcome_type`), from which
  the journal codec is derived;
* its report (:meth:`Campaign.report`), a declaration on
  :class:`GridReport` (table columns, detail lines, ``@gate``
  properties), plus per-cell telemetry and ``--metrics`` snapshot
  lines;
* its parameters (:attr:`Campaign.params`, one :class:`Param` each).

Everything else is written once here: from the params, the ``repro
<kind>`` flags and their parsing, the serve schema and ``repro run``'s
presets (:meth:`Campaign.preset`); the grid loop (one
:class:`~repro.experiments.ensemble.EnsemblePool` per grid, one
:func:`~repro.experiments.ensemble.run_ensemble` call per cell), the
outcome codec (:meth:`Campaign.encode` / :meth:`Campaign.decode`), the
report's table, verdict and sorted-key JSON, the jobs-excluded journal
fingerprint, the partial report an interrupt flushes, the report files,
the ``repro <kind>`` subcommand and its handler.
:mod:`repro.serve.specs` reads the same registry, so a new kind is one
class — no edits to ``cli.py`` or ``serve/specs.py``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import pathlib
import shlex
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
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
    Sequence,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.metrics.report import Table


def grid_seeds(params: Mapping[str, Any]) -> Tuple[int, ...]:
    """``params["seeds"]`` consecutive seeds from ``params["base_seed"]``."""
    base = params["base_seed"]
    return tuple(range(base, base + params["seeds"]))


def check_workload(threads: int, iterations: int) -> None:
    """Refuse a grid workload with no thread or a negative budget."""
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")


#: What a served value of each scalar :attr:`Param.type` must be.
_JSON_TYPES = {int: "a JSON integer", str: "a JSON string", bool: "a JSON boolean"}


@dataclass(frozen=True)
class Param:
    """One campaign parameter, declared once in :attr:`Campaign.params`.

    Its ``repro <kind>`` flag, the canonical value parsed from that
    flag, its served schema entry and its CLI default all derive from
    this one entry.
    """

    #: The canonical and served name.
    name: str
    #: The served job's default (a tuple for a list param).
    default: Any
    #: ``int``, ``str`` or ``bool``; for a list param, the callable
    #: returning its valid names.
    type: Any
    #: The flag's help.
    help: str
    #: The CLI default where it differs from :attr:`default`; a list
    #: param's is its flag text.
    cli_default: Any = None
    #: The flag where it is not ``--<name>`` (``--no-<name>`` for a bool
    #: whose CLI default is true).
    flag: Optional[str] = None
    #: The flag's metavar (an int's is ``N`` unless given).
    metavar: Optional[str] = None
    #: The flag's choices.
    choices: Optional[Tuple[str, ...]] = None
    #: Flag texts standing for a whole list (``all``, ``default``), each
    #: with the callable returning that list, called only when parsed.
    aliases: Mapping[str, Callable[[], Any]] = field(default_factory=dict)

    @property
    def is_list(self) -> bool:
        return self.type not in _JSON_TYPES

    @property
    def cli(self) -> Any:
        """The CLI default (a list param's flag text)."""
        if self.cli_default is not None:
            return self.cli_default
        return ",".join(self.default) if self.is_list else self.default

    @property
    def option(self) -> str:
        """The flag's option string."""
        if self.flag is not None:
            return self.flag
        stem = self.name.replace("_", "-")
        return f"--no-{stem}" if self.type is bool and self.cli else f"--{stem}"

    @property
    def dest(self) -> str:
        """The flag's ``argparse`` dest."""
        return self.option[2:].replace("-", "_")

    @property
    def cli_value(self) -> Any:
        """The canonical value of the CLI default."""
        return self.from_flag(self.cli) if self.is_list else self.cli

    def add_flag(self, parser: argparse.ArgumentParser) -> None:
        if self.type is bool:
            parser.add_argument(self.option, action="store_true", help=self.help)
            return
        parser.add_argument(
            self.option,
            type=int if self.type is int else None,
            default=self.cli,
            metavar=self.metavar or ("N" if self.type is int else None),
            choices=None if self.choices is None else list(self.choices),
            help=self.help,
        )

    def from_flag(self, value: Any) -> Any:
        """The canonical value of the flag's parsed ``value``: a comma
        list (``"a, b,"``) split into its non-empty names or an alias
        expanded, a ``--no-*`` switch negated."""
        if self.type is bool:
            return not value if self.cli else value
        if not self.is_list:
            return value
        if value in self.aliases:
            return list(self.aliases[value]())
        return [name.strip() for name in value.split(",") if name.strip()]

    def coerce(self, value: Any) -> Any:
        """A served JSON value as this param's value.  Raises
        ``TypeError`` unless a list param's value is an array of
        strings and any other's is exactly of :attr:`type`: no boolean
        passes as an integer, no fraction is truncated."""
        if self.is_list:
            if isinstance(value, (list, tuple)) and all(
                isinstance(item, str) for item in value
            ):
                return tuple(value)
            raise TypeError(f"expected a JSON array of strings, got {value!r}")
        if type(value) is not self.type:
            raise TypeError(f"expected {_JSON_TYPES[self.type]}, got {value!r}")
        return value


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


# ----------------------------------------------------------------------
# The outcome codec
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _converter(hint: Any) -> Optional[Callable[[Any], Any]]:
    """How JSON data becomes a value of type ``hint``, built once per
    type; ``None`` where the data passes through untouched (scalars,
    ``Any``, plain dicts).  Lists become tuples again and dicts become
    the nested dataclass their field declares."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        converters = tuple(
            (field.name, _converter(hints[field.name]))
            for field in fields(hint)
        )

        def build(data: Mapping[str, Any]) -> Any:
            # A field the payload lacks (an older journal) takes its
            # default.
            return hint(
                **{
                    name: data[name] if convert is None else convert(data[name])
                    for name, convert in converters
                    if name in data
                }
            )

        return build
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        options = [arg for arg in args if arg is not type(None)]
        inner = _converter(options[0]) if len(options) == 1 else None
        if inner is None:
            return None
        return lambda data: None if data is None else inner(data)
    if origin is not tuple:
        return None
    if len(args) == 2 and args[1] is Ellipsis:
        item = _converter(args[0])
        if item is None:
            return tuple
        return lambda data: tuple(item(value) for value in data)
    items = tuple(_converter(arg) for arg in args)
    if all(convert is None for convert in items):
        return tuple
    return lambda data: tuple(
        value if convert is None else convert(value)
        for convert, value in zip(items, data)
    )


# ----------------------------------------------------------------------
# The report base
# ----------------------------------------------------------------------
class gate(property):
    """A :class:`GridReport` property that :attr:`~GridReport.passed`
    requires; the JSON report carries each gate's value too."""


@dataclass
class GridReport:
    """A campaign's report.  Subclasses declare their table (``title``,
    ``columns``, ``table_rows``), their :meth:`details` lines, their
    ``@gate`` properties and their JSON ``extras``; the rendering, the
    verdict and the deterministic JSON are written once here."""

    #: Grid-ordered cell outcomes.
    outcomes: List[Any]

    #: The table's title.
    title: ClassVar[str] = ""
    #: ``(header, cell)`` per column, where ``cell`` is a row's
    #: ``"attribute"`` or ``"attribute:format-spec"``, or a function of
    #: the row.
    columns: ClassVar[Tuple[Tuple[str, Any], ...]] = ()
    #: The attribute whose items are the table's rows.
    table_rows: ClassVar[str] = "summaries"
    #: Attributes the JSON carries beside the outcomes, gates and verdict.
    extras: ClassVar[Tuple[str, ...]] = ("summaries",)

    def details(self) -> List[str]:
        """Lines printed between the table and the verdict."""
        return []

    def gates(self) -> Dict[str, bool]:
        """Every ``@gate`` property, by name."""
        cls = type(self)
        return {
            name: getattr(self, name)
            for name in dir(cls)
            if isinstance(getattr(cls, name), gate)
        }

    @property
    def passed(self) -> bool:
        """Every gate holds."""
        return all(self.gates().values())

    def table(self, columns: Sequence[Tuple[str, Any]], title: str) -> Table:
        """The rows as a :class:`Table` of ``columns``, shaped like
        :attr:`columns` (``repro run`` tables pick some of them)."""
        table = Table([header for header, _ in columns], title=title)
        for row in getattr(self, self.table_rows):
            table.add_row([_table_cell(row, cell) for _, cell in columns])
        return table

    def render(self) -> str:
        """ASCII report (the CLI artifact): table, details, verdict."""
        table = self.table(self.columns, self.title)
        verdict = f"verdict: {'PASS' if self.passed else 'FAIL'}"
        return "\n".join([table.render(), *self.details(), verdict])

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no timestamps): reruns with
        the same config produce identical bytes.  Outcomes leave out
        ``obs``: observability metrics go to the snapshot file, never
        the report, so bytes match with and without ``collect_obs``.
        A non-finite float (a diverged cell's distance) is written as
        the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, so the
        file is valid JSON."""
        payload = {name: getattr(self, name) for name in self.extras}
        payload.update(self.gates(), passed=self.passed)
        payload["outcomes"] = [
            {key: value for key, value in asdict(o).items() if key != "obs"}
            for o in self.outcomes
        ]
        text = json.dumps(
            _json_safe(payload), indent=2, sort_keys=True, allow_nan=False
        )
        return text + "\n"


def _json_safe(value: Any) -> Any:
    """``value`` as plain JSON data: dataclasses as dicts, tuples as
    lists, and each non-finite float as its JSON-style name."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return _json_safe(asdict(value))
    return value


def _table_cell(row: Any, cell: Any) -> Any:
    """One :attr:`GridReport.columns` cell of ``row``."""
    if callable(cell):
        return cell(row)
    name, _, spec = cell.partition(":")
    value = getattr(row, name)
    return format(value, spec) if spec else value


class Campaign:
    """One campaign kind.  Register subclasses with
    :func:`register_campaign`; the registry holds one instance each."""

    #: Registry name: the CLI subcommand and the serve job kind.
    name: ClassVar[str] = ""
    #: The subcommand's one-line help.
    help: ClassVar[str] = ""
    #: Report files are ``<report_name>.{txt,json}`` under ``--out``.
    report_name: ClassVar[str] = ""
    #: The kind's params, in flag order (see :class:`Param`).  Every
    #: kind also takes ``seeds`` and ``base_seed``, declared by the two
    #: seed pairs below.
    params: ClassVar[Tuple[Param, ...]] = ()
    #: CLI ``--seeds`` and ``--base-seed`` defaults.
    cli_seeds: ClassVar[Tuple[int, int]] = (1, 1)
    #: Served ``seeds`` and ``base_seed`` defaults, where they differ
    #: from :attr:`cli_seeds`.
    serve_seeds: ClassVar[Optional[Tuple[int, int]]] = None
    #: What one ``--seeds`` ensemble covers, for the flag's help.
    seeds_per: ClassVar[str] = "cell"
    #: ``(name, help)`` of the counter each finished cell bumps.
    cells_metric: ClassVar[Tuple[str, str]] = ("", "")
    #: ``--metrics`` help; ``None`` means the kind writes no snapshot
    #: and has neither ``--metrics`` nor ``--metrics-interval``.
    metrics_help: ClassVar[Optional[str]] = None
    #: The dataclass one cell's worker returns; :meth:`decode` is
    #: derived from its field annotations.
    outcome_type: ClassVar[type]

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

    def report(self, config: Any, outcomes: List[Any]) -> Any:
        """Fold grid-ordered outcomes into the report (``render()``,
        ``to_json()``, ``passed``), usually a :class:`GridReport`."""
        raise NotImplementedError

    def telemetry(self, registry: Any, outcome: Any) -> None:
        """Publish one fresh cell's kind-specific metrics (beyond
        :attr:`cells_metric`)."""

    def snapshot_lines(self, report: Any) -> List[Dict[str, Any]]:
        """The deterministic ``--metrics`` snapshot of a report."""
        raise NotImplementedError

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Flags that are not params (none by default), added after
        the param flags and before the shared ones."""

    def run_cell(self, run_one: Callable[[int], Any], seeds: Any, **kwargs: Any):
        """The one per-cell call of the grid loop."""
        return run_ensemble(run_one, seeds, **kwargs)

    # ------------------------------------------------------------------
    # Written once
    # ------------------------------------------------------------------
    @functools.cached_property
    def _seed_params(self) -> Tuple[Param, Param]:
        """``seeds`` and ``base_seed``, from the two seed pairs."""
        seeds, base_seed = self.cli_seeds
        served_seeds, served_base = self.serve_seeds or self.cli_seeds
        return (
            Param(
                "seeds", served_seeds, int,
                f"seeds per {self.seeds_per} (default {seeds})",
                cli_default=seeds,
            ),
            Param(
                "base_seed", served_base, int,
                f"first seed of each cell's ensemble (default {base_seed})",
                cli_default=base_seed, metavar="S",
            ),
        )

    @functools.cached_property
    def all_params(self) -> Tuple[Param, ...]:
        """Every param in canonical order: the list params that span
        the grid, then ``seeds`` and ``base_seed``, then the rest."""
        return (
            *(param for param in self.params if param.is_list),
            *self._seed_params,
            *(param for param in self.params if not param.is_list),
        )

    @functools.cached_property
    def serve_params(self) -> Dict[str, Tuple[Any, Callable[[Any], Any]]]:
        """The served schema, in canonical order: name -> (default,
        coercion).  Served defaults differ from the CLI's."""
        return {
            param.name: (param.default, param.coerce) for param in self.all_params
        }

    def params_from_args(self, args: argparse.Namespace) -> Dict[str, Any]:
        """Canonical params from parsed ``repro <kind>`` flags."""
        return {
            param.name: param.from_flag(getattr(args, param.dest))
            for param in self.all_params
        }

    def preset(self, **overrides: Any) -> Any:
        """The config a bare ``repro <kind>`` builds, with ``overrides``
        of its params: how ``repro run`` writes E13–E15's presets."""
        params = {param.name: param.cli_value for param in self.all_params}
        return self.build({**params, **overrides})

    def encode(self, outcome: Any) -> Any:
        """One outcome as its JSON-safe journal payload."""
        return asdict(outcome)

    def decode(self, payload: Any) -> Any:
        """Exact inverse of :meth:`encode` after a JSON round trip, so
        journaled and freshly computed outcomes mix byte-identically."""
        return _converter(self.outcome_type)(payload)

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
        results byte-identical to a serial run.  Before each row the pool
        is told which row follows, so workers that would go idle at the
        row boundary start on that row's chunks; every row's outcomes are
        still collected by its own call, in grid order.  With a
        ``journal`` (opened against :meth:`fingerprint`) finished cells
        are recorded as their row collects them and skipped on resume,
        byte-identically; ``shutdown`` stops at the next cell boundary by
        raising :class:`~repro.errors.InterruptedRunError`.  ``metrics``
        (a :class:`~repro.obs.registry.MetricsRegistry`) receives
        ensemble counters plus :meth:`telemetry`; ``progress(seed,
        outcome)`` fires per fresh cell.  None of this changes report
        bytes.
        """

        def note_cell(seed: int, outcome: Any) -> None:
            if metrics is not None:
                self.telemetry(metrics, outcome)
                metrics.counter(*self.cells_metric).inc()
            if progress is not None:
                progress(seed, outcome)

        outcomes: List[Any] = []
        cells = list(self.cells(config))
        with EnsemblePool(config.jobs, len(config.seeds)) as pool:
            for cell, after in zip(cells, [*cells[1:], None]):
                if after is not None:
                    pool.follow(after.run_one, config.seeds, journal, after.namespace)
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
        for param in self.params:
            param.add_flag(parser)
        self.add_arguments(parser)
        for param in self._seed_params:
            param.add_flag(parser)
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
        invocation's own argv, which the resume command replays.  A
        kind that declares ``--trace PATH`` records the run's spans as
        :func:`_trace_spill` describes.
        """
        from repro.durable.signals import GracefulShutdown
        from repro.errors import InterruptedRunError

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

        fingerprint = self.fingerprint(config)
        journal, exit_code = _open_journal(args, fingerprint)
        if exit_code is not None:
            return exit_code
        try:
            with _trace_spill(trace, fingerprint), GracefulShutdown() as shutdown:
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


@contextmanager
def _trace_spill(trace: Optional[str], fingerprint: str) -> Iterator[None]:
    """With a ``--trace`` path, record the block's spans through a fresh
    ``cli`` causal recorder and, however the block ends, stitch its
    spill's wall-clock trace to ``trace``.

    The spill is ``trace`` with a ``.spans.jsonl`` suffix, emptied
    first so reruns never mix.  The trace id derives from the
    jobs-excluded fingerprint, so the spill's logical stitch is the
    same for every ``--jobs`` value.
    """
    if trace is None:
        yield
        return
    import time

    from repro.obs.causal import (
        SPILL_SUFFIX,
        CausalRecorder,
        install_causal_recorder,
        mint_trace_id,
        stitch_spills,
        write_stitched_trace,
    )

    spill = pathlib.Path(trace).with_suffix(SPILL_SUFFIX)
    spill.unlink(missing_ok=True)
    recorder = CausalRecorder(
        spill,
        role="cli",
        trace_id=mint_trace_id(fingerprint),
        clock=time.monotonic,  # repro: allow(RPD201)
    )
    install_causal_recorder(recorder)
    try:
        yield
    finally:
        install_causal_recorder(None)
        recorder.close()
        write_stitched_trace(trace, stitch_spills([spill]))
        print(f"chrome trace written to {trace} (spans: {spill})", file=sys.stderr)


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
