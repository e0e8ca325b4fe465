"""Fault campaigns: grid fault specs over seeds, report robustness.

A campaign is the chaos engine's Monte-Carlo layer: for every
:class:`~repro.faults.spec.FaultSpec` in the grid it runs a seed
ensemble of the standard Algorithm-1 workload under that spec — with
invariant monitors watching and (optionally) crash recovery respawning
victims — and aggregates a robustness report: survival rate, convergence
degradation versus fault intensity, recovered-thread counts, and every
invariant violation observed.

The grid is the registered ``chaos`` campaign (:class:`ChaosCampaign`,
see :mod:`repro.experiments.grid`), so campaigns parallelize across
processes exactly like the paper experiments and stay byte-identical to
serial execution.  All output is
deterministic given the config (no timestamps in the JSON), so a rerun
with the same seeds produces the same bytes — the property CI pins.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.algorithm import build_zoo_simulation, collect_iteration_records
from repro.core.epoch_sgd import LockFreeSGD
from repro.errors import ConfigurationError
from repro.experiments.grid import (
    Campaign,
    Cell,
    GridReport,
    Param,
    check_workload,
    gate,
    get_campaign,
    grid_seeds,
    register_campaign,
)
from repro.faults.monitors import default_monitors
from repro.faults.recovery import Respawner
from repro.faults.spec import (
    AdaptiveCrashSpec,
    BitFlipSpec,
    DroppedWriteSpec,
    DuplicateWriteSpec,
    FaultSpec,
    PoisonSpec,
    ProbabilisticCrashSpec,
    StallSpec,
    TornUpdateSpec,
)
from repro.heal.detectors import DetectorSuite
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.thread import ThreadState
from repro.sched.registry import build_scheduler


def preset_specs() -> Dict[str, FaultSpec]:
    """Named fault specs the CLI exposes (``--specs name,name,...``).

    Rates and budgets are tuned so every preset leaves survivors that
    converge on the standard workload — the point of the campaign is to
    *verify* that, seed by seed.
    """
    return {
        "none": FaultSpec("none", ()),
        "prob-crash": FaultSpec(
            "prob-crash",
            (ProbabilisticCrashSpec(rate=0.002, max_crashes=3, after_time=20),),
        ),
        "adaptive-crash": FaultSpec(
            "adaptive-crash",
            (AdaptiveCrashSpec(phase="update", max_crashes=2, after_time=50),),
        ),
        "stall": FaultSpec(
            "stall",
            (StallSpec(victims=(0,), start=40, duration=120, period=400),),
        ),
        "torn-update": FaultSpec(
            "torn-update",
            (TornUpdateSpec(rate=0.01, max_crashes=2, after_time=20),),
        ),
        "mixed": FaultSpec(
            "mixed",
            (
                ProbabilisticCrashSpec(rate=0.001, max_crashes=1, after_time=20),
                StallSpec(victims=(1,), start=100, duration=80, period=500),
                TornUpdateSpec(rate=0.005, max_crashes=1, after_time=20),
            ),
        ),
    }


def corruption_specs() -> Dict[str, FaultSpec]:
    """Named silent-data-corruption plans that fire hard in an unhealed
    run (``repro heal --plans`` takes the gentler
    :func:`repro.experiments.e14_resilience.heal_plan_specs`).

    Unlike :func:`preset_specs`, these are *not* tuned to converge on
    their own — a NaN-poisoned run diverges by construction; the chaos
    monitors are what should notice.  Corruption composes with
    scheduling faults (``sdc-mixed``).
    """
    return {
        "bit-flip": FaultSpec(
            "bit-flip",
            (BitFlipSpec(rate=0.004, max_corruptions=3, after_time=30),),
        ),
        "nan-poison": FaultSpec(
            "nan-poison",
            (PoisonSpec(rate=0.004, mode="nan", max_corruptions=3, after_time=30),),
        ),
        "inf-poison": FaultSpec(
            "inf-poison",
            (PoisonSpec(rate=0.004, mode="inf", max_corruptions=3, after_time=30),),
        ),
        "dup-write": FaultSpec(
            "dup-write",
            (DuplicateWriteSpec(rate=0.01, max_corruptions=4, after_time=30),),
        ),
        "drop-write": FaultSpec(
            "drop-write",
            (DroppedWriteSpec(rate=0.01, max_corruptions=4, after_time=30),),
        ),
        "sdc-mixed": FaultSpec(
            "sdc-mixed",
            (
                PoisonSpec(rate=0.002, mode="nan", max_corruptions=2, after_time=40),
                BitFlipSpec(rate=0.002, max_corruptions=2, after_time=40),
                ProbabilisticCrashSpec(rate=0.0005, max_crashes=1, after_time=40),
            ),
        ),
    }


@dataclass(frozen=True)
class ChaosWorkload:
    """The SGD workload every campaign cell runs.

    A small noisy quadratic under Algorithm 1 — cheap enough to grid,
    rich enough that crashes hit mid-iteration state (reads, updates,
    claimed counter slots).
    """

    dim: int = 2
    num_threads: int = 4
    step_size: float = 0.05
    iterations: int = 300
    noise_sigma: float = 0.2
    x0_scale: float = 2.0
    #: ``||x - x*||`` at or below which a run counts as converged.
    convergence_radius: float = 0.5

    def __post_init__(self) -> None:
        check_workload(self.num_threads, self.iterations)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a fault-spec grid times a seed list."""

    specs: Tuple[FaultSpec, ...]
    seeds: Tuple[int, ...]
    workload: ChaosWorkload = field(default_factory=ChaosWorkload)
    recover: bool = True
    max_respawns: Optional[int] = None
    monitors: bool = True
    check_interval: int = 64
    jobs: int = 1
    #: Collect per-cell paper-aligned observability metrics (τ histogram,
    #: window contention counts, lemma indicators — see
    #: :func:`repro.obs.paper.paper_metrics`).  Part of the journal
    #: fingerprint (it changes what workers compute), so a resumed
    #: ``--metrics`` campaign must keep passing ``--metrics``.
    collect_obs: bool = False

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("campaign needs at least one fault spec")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        if self.check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )


@dataclass(frozen=True)
class FaultRunOutcome:
    """One (spec, seed) cell — plain values only, so it crosses the
    process pool and serializes to JSON untouched."""

    spec: str
    seed: int
    threads: int  # total spawned, respawns included
    finished: int
    crashed: int
    respawned: int
    torn_updates: int
    skipped_crashes: int
    stall_reroutes: int
    iterations: int  # completed (recorded) iterations
    steps: int
    distance: float
    converged: bool
    violations: Tuple[str, ...]
    #: Crashes left unrecovered because the ``max_respawns`` budget ran
    #: out (from :class:`~repro.faults.recovery.Respawner`).
    respawn_denied: int = 0
    #: Per-lineage crash counts ``((root_thread_id, crashes), ...)``,
    #: sorted by root id — a lineage with count > 1 is a respawn that
    #: crashed again (a "doomed worker").
    crash_tally: Tuple[Tuple[int, int], ...] = ()
    #: Paper-aligned metrics of the cell (``collect_obs`` campaigns
    #: only).  Excluded from :meth:`GridReport.to_json`, so report
    #: bytes are identical with or without observability — metrics flow
    #: to the separate snapshot file instead.
    obs: Optional[Dict[str, Any]] = None


def _chaos_worker(
    config: CampaignConfig, spec_index: int, seed: int
) -> FaultRunOutcome:
    """Run one campaign cell (module-level: picklable for the pool)."""
    spec = config.specs[spec_index]
    workload = config.workload
    objective = IsotropicQuadratic(
        dim=workload.dim, noise=GaussianNoise(workload.noise_sigma)
    )
    engine = spec.build(
        build_scheduler("random", seed=seed),
        seed=seed,
        num_threads=workload.num_threads,
    )
    sim, model, _x0 = build_zoo_simulation(
        LockFreeSGD(),
        objective,
        engine,
        num_threads=workload.num_threads,
        step_size=workload.step_size,
        iterations=workload.iterations,
        x0=np.full(workload.dim, workload.x0_scale),
        seed=seed,
    )
    suite = DetectorSuite(default_monitors()) if config.monitors else None
    if suite is not None:
        sim.attach_analyzer(suite)
    # A respawn reruns the crashed thread's program from the start; with
    # recovery off the respawner still tallies every crash.
    respawner = Respawner(
        (lambda crashed: crashed.program) if config.recover else None,
        max_respawns=config.max_respawns,
    )
    sim.attach_analyzer(respawner)
    sim.run_analyzed(chunk=config.check_interval)

    final = model.snapshot()
    distance = float(objective.distance_to_opt(final))
    records = collect_iteration_records(sim)
    torn = sum(getattr(inj, "torn", 0) for inj in engine.injectors)
    reroutes = engine.stall_reroutes
    violations = tuple(str(v) for v in suite.findings) if suite else ()
    finished = sum(1 for t in sim.threads if t.state is ThreadState.FINISHED)
    obs: Optional[Dict[str, Any]] = None
    if config.collect_obs:
        from repro.obs.paper import paper_metrics

        obs = paper_metrics(records, num_threads=workload.num_threads)
    return FaultRunOutcome(
        spec=spec.name,
        seed=seed,
        threads=len(sim.threads),
        finished=finished,
        crashed=sim.crashed_count,
        respawned=len(respawner.respawned),
        torn_updates=torn,
        skipped_crashes=engine.skipped_crashes,
        stall_reroutes=reroutes,
        iterations=len(records),
        steps=sim.now,
        distance=distance,
        converged=distance <= workload.convergence_radius,
        violations=violations,
        respawn_denied=respawner.respawn_denied,
        crash_tally=tuple(sorted(respawner.crash_tally.items())),
        obs=obs,
    )


@dataclass(frozen=True)
class SpecSummary:
    """Aggregate robustness of one fault spec over its seed ensemble."""

    spec: str
    runs: int
    survival_rate: float  # mean fraction of threads that finished
    convergence_rate: float
    mean_distance: float
    mean_crashed: float
    mean_respawned: float
    torn_updates: int
    skipped_crashes: int
    violations: int
    #: Respawn requests the ``max_respawns`` budget denied, summed over
    #: the seed ensemble (satellite of the recovery report).
    respawn_denied: int = 0


@dataclass
class CampaignReport(GridReport):
    """Everything a campaign measured, renderable and serializable."""

    summaries: List[SpecSummary]

    title = "Chaos campaign: fault specs x seeds"
    columns = (
        ("spec", "spec"),
        ("runs", "runs"),
        ("survival", "survival_rate:.2f"),
        ("converged", "convergence_rate:.2f"),
        ("mean ||x-x*||", "mean_distance:.4f"),
        ("crashed", "mean_crashed:.2f"),
        ("respawned", "mean_respawned:.2f"),
        ("torn", "torn_updates"),
        ("budget-skips", "skipped_crashes"),
        ("denied", "respawn_denied"),
        ("violations", "violations"),
    )

    @gate
    def clean(self) -> bool:
        """No invariant monitor fired anywhere in the grid."""
        return all(not outcome.violations for outcome in self.outcomes)

    @gate
    def all_converged(self) -> bool:
        """Survivors converged in every cell."""
        return all(outcome.converged for outcome in self.outcomes)

    def details(self) -> List[str]:
        lines = []
        for outcome in self.outcomes:
            if outcome.respawn_denied or any(
                count > 1 for _, count in outcome.crash_tally
            ):
                tally = ", ".join(
                    f"{root}x{count}" for root, count in outcome.crash_tally
                )
                lines.append(
                    f"LINEAGES spec={outcome.spec} seed={outcome.seed}: "
                    f"denied={outcome.respawn_denied} crashes [{tally}]"
                )
        for outcome in self.outcomes:
            for violation in outcome.violations:
                lines.append(
                    f"VIOLATION spec={outcome.spec} seed={outcome.seed}: "
                    f"{violation}"
                )
        return lines


def summarize(outcomes: List[FaultRunOutcome]) -> List[SpecSummary]:
    """Collapse per-cell outcomes into per-spec rows (grid order)."""
    by_spec: Dict[str, List[FaultRunOutcome]] = {}
    for outcome in outcomes:
        by_spec.setdefault(outcome.spec, []).append(outcome)
    summaries = []
    for spec, cell in by_spec.items():
        survival = [o.finished / o.threads if o.threads else 0.0 for o in cell]
        summaries.append(
            SpecSummary(
                spec=spec,
                runs=len(cell),
                survival_rate=float(np.mean(survival)),
                convergence_rate=float(np.mean([o.converged for o in cell])),
                mean_distance=float(np.mean([o.distance for o in cell])),
                mean_crashed=float(np.mean([o.crashed for o in cell])),
                mean_respawned=float(np.mean([o.respawned for o in cell])),
                torn_updates=sum(o.torn_updates for o in cell),
                skipped_crashes=sum(o.skipped_crashes for o in cell),
                violations=sum(len(o.violations) for o in cell),
                respawn_denied=sum(o.respawn_denied for o in cell),
            )
        )
    return summaries


@register_campaign
class ChaosCampaign(Campaign):
    """``repro chaos``: fault specs x seeds under the random scheduler.

    Each spec's seed ensemble runs under a ``campaign.spec`` span.
    ``collect_obs`` configs publish each fresh cell's paper metrics to
    the live registry and write them to the ``--metrics`` snapshot.
    """

    name = "chaos"
    help = (
        "run a seeded fault campaign (fault specs x seeds) and report "
        "robustness"
    )
    report_name = "chaos_report"
    params = (
        Param(
            "specs", ("prob-crash", "torn-update"), preset_specs,
            "comma-separated fault spec presets (see repro.faults."
            "campaign.preset_specs): none, prob-crash, adaptive-crash, "
            "stall, torn-update, mixed",
            cli_default="prob-crash,adaptive-crash,stall,torn-update",
        ),
        Param("threads", 4, int, "SGD threads per run (default 4)"),
        Param(
            "iterations", 120, int,
            "global iteration budget per run (default 300)",
            cli_default=300, metavar="T",
        ),
        Param(
            "check_interval", 64, int,
            "steps between invariant checks / crash-recovery polls",
            metavar="K",
        ),
        Param(
            "recover", True, bool, "do not respawn crashed threads",
            flag="--no-recovery",
        ),
        Param(
            "monitors", True, bool,
            "disable invariant monitors (pure survival/convergence run)",
        ),
    )
    cli_seeds = (4, 1)
    serve_seeds = (2, 1)
    seeds_per = "spec"
    cells_metric = ("repro_campaign_cells_total", "campaign cells finished")
    metrics_help = (
        "collect paper-aligned run-time metrics (tau histogram, window "
        "contention, lemma indicators) and write a deterministic snapshot "
        "JSONL here (inspect with 'repro obs')"
    )
    outcome_type = FaultRunOutcome

    def build(self, params, jobs=1, collect_obs=False):
        presets = preset_specs()
        unknown = [name for name in params["specs"] if name not in presets]
        if unknown or not params["specs"]:
            raise ConfigurationError(
                f"unknown fault spec(s): {', '.join(unknown) or '(none given)'} "
                f"(choose from {', '.join(presets)})"
            )
        return CampaignConfig(
            specs=tuple(presets[name] for name in params["specs"]),
            seeds=grid_seeds(params),
            workload=ChaosWorkload(
                num_threads=params["threads"], iterations=params["iterations"]
            ),
            recover=params["recover"],
            monitors=params["monitors"],
            check_interval=params["check_interval"],
            jobs=jobs,
            collect_obs=collect_obs,
        )

    def cells(self, config):
        for index, spec in enumerate(config.specs):
            yield Cell(
                f"{index}:{spec.name}",
                functools.partial(_chaos_worker, config, index),
                (spec.name,),
            )

    def cell_span(self, config, cell):
        from repro.obs.causal import trace_span

        (spec,) = cell.key
        return trace_span("campaign.spec", spec=spec, seeds=len(config.seeds))

    def report(self, config, outcomes):
        return CampaignReport(outcomes=outcomes, summaries=summarize(outcomes))

    def telemetry(self, registry, outcome):
        if outcome.obs is not None:
            from repro.obs.paper import publish_paper_metrics

            publish_paper_metrics(registry, outcome.obs)

    def snapshot_lines(self, report):
        """One ``kind="cell"`` line per outcome carrying metrics (grid
        order) plus one ``kind="aggregate"`` roll-up."""
        from repro.obs.paper import merge_paper_metrics

        lines: List[Dict[str, Any]] = []
        cells = []
        for outcome in report.outcomes:
            if outcome.obs is None:
                continue
            cells.append(outcome.obs)
            lines.append(
                {
                    "kind": "cell",
                    "spec": outcome.spec,
                    "seed": outcome.seed,
                    "converged": outcome.converged,
                    "crashed": outcome.crashed,
                    "respawned": outcome.respawned,
                    "steps": outcome.steps,
                    "metrics": outcome.obs,
                }
            )
        lines.append({"kind": "aggregate", "metrics": merge_paper_metrics(cells)})
        return lines

    def add_arguments(self, parser):
        parser.add_argument(
            "--trace", default=None, metavar="PATH",
            help="record harness spans (campaign cells, runs, replays) and "
            "dump a Chrome-trace JSON here (load in chrome://tracing)",
        )


def run_campaign(
    config: CampaignConfig,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> CampaignReport:
    """Execute the full spec x seed grid and aggregate the report (see
    :meth:`repro.experiments.grid.Campaign.run`)."""
    return get_campaign("chaos").run(config, journal, shutdown, metrics, progress)
