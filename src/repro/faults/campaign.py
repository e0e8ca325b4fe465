"""Fault campaigns: grid fault specs over seeds, report robustness.

A campaign is the chaos engine's Monte-Carlo layer: for every
:class:`~repro.faults.spec.FaultSpec` in the grid it runs a seed
ensemble of the standard Algorithm-1 workload under that spec — with
invariant monitors watching and (optionally) crash recovery respawning
victims — and aggregates a robustness report: survival rate, convergence
degradation versus fault intensity, recovered-thread counts, and every
invariant violation observed.

Workers go through :func:`repro.experiments.ensemble.run_ensemble`, so
campaigns parallelize across processes exactly like the paper
experiments and stay byte-identical to serial execution.  All output is
deterministic given the config (no timestamps in the JSON), so a rerun
with the same seeds produces the same bytes — the property CI pins.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.epoch_sgd import EpochSGDProgram
from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.faults.monitors import MonitorSuite, default_monitors
from repro.faults.recovery import run_with_recovery
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
from repro.metrics.report import Table
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.events import IterationRecord
from repro.runtime.simulator import Simulator
from repro.runtime.thread import ThreadState
from repro.sched.registry import build_scheduler
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


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
    """Named silent-data-corruption plans (``repro heal --plans ...``).

    Unlike :func:`preset_specs`, these are *not* tuned to converge on
    their own — a NaN-poisoned run diverges by construction.  They are
    tuned so the heal layer's detectors catch every corruption within a
    chunk and the rollback ladder recovers, which is what E14 verifies.
    Corruption composes with scheduling faults (``sdc-mixed``).
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
    #: out (from :class:`~repro.faults.recovery.RecoveryReport`).
    respawn_denied: int = 0
    #: Per-lineage crash counts ``((root_thread_id, crashes), ...)``,
    #: sorted by root id — a lineage with count > 1 is a respawn that
    #: crashed again (a "doomed worker").
    crash_tally: Tuple[Tuple[int, int], ...] = ()
    #: Paper-aligned metrics of the cell (``collect_obs`` campaigns
    #: only).  Excluded from :meth:`CampaignReport.to_json`, so report
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
    memory = SharedMemory(record_log=False)
    model = AtomicArray.allocate(memory, workload.dim, name="model")
    model.load(np.full(workload.dim, workload.x0_scale))
    counter = AtomicCounter.allocate(memory, name="iteration_counter")
    engine = spec.build(
        build_scheduler("random", seed=seed),
        seed=seed,
        num_threads=workload.num_threads,
    )
    sim = Simulator(memory, engine, seed=seed)

    def make_program() -> EpochSGDProgram:
        return EpochSGDProgram(
            model=model,
            counter=counter,
            objective=objective,
            step_size=workload.step_size,
            max_iterations=workload.iterations,
        )

    for index in range(workload.num_threads):
        sim.spawn(make_program(), name=f"worker-{index}")

    suite = MonitorSuite(default_monitors()) if config.monitors else None
    factory = (lambda crashed: make_program()) if config.recover else None
    recovery = run_with_recovery(
        sim,
        program_factory=factory,
        max_respawns=config.max_respawns,
        check_interval=config.check_interval,
        monitors=suite,
    )

    final = model.snapshot()
    distance = float(objective.distance_to_opt(final))
    iterations = sum(1 for e in sim.trace if isinstance(e, IterationRecord))
    torn = sum(getattr(inj, "torn", 0) for inj in engine.injectors)
    reroutes = engine.stall_reroutes
    violations = tuple(str(v) for v in suite.violations) if suite else ()
    finished = sum(1 for t in sim.threads if t.state is ThreadState.FINISHED)
    obs: Optional[Dict[str, Any]] = None
    if config.collect_obs:
        from repro.obs.paper import paper_metrics

        records = sorted(
            (e for e in sim.trace if isinstance(e, IterationRecord)),
            key=lambda r: r.order_time,
        )
        obs = paper_metrics(records, num_threads=workload.num_threads)
    return FaultRunOutcome(
        spec=spec.name,
        seed=seed,
        threads=len(sim.threads),
        finished=finished,
        crashed=sim.crashed_count,
        respawned=recovery.recovered_count,
        torn_updates=torn,
        skipped_crashes=engine.skipped_crashes,
        stall_reroutes=reroutes,
        iterations=iterations,
        steps=sim.now,
        distance=distance,
        converged=distance <= workload.convergence_radius,
        violations=violations,
        respawn_denied=recovery.respawn_denied,
        crash_tally=tuple(sorted(recovery.crash_tally.items())),
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
class CampaignReport:
    """Everything a campaign measured, renderable and serializable."""

    outcomes: List[FaultRunOutcome]
    summaries: List[SpecSummary]

    @property
    def clean(self) -> bool:
        """No invariant monitor fired anywhere in the grid."""
        return all(not outcome.violations for outcome in self.outcomes)

    @property
    def all_converged(self) -> bool:
        """Survivors converged in every cell."""
        return all(outcome.converged for outcome in self.outcomes)

    @property
    def passed(self) -> bool:
        return self.clean and self.all_converged

    def render(self) -> str:
        """ASCII robustness report (the CLI artifact)."""
        table = Table(
            [
                "spec",
                "runs",
                "survival",
                "converged",
                "mean ||x-x*||",
                "crashed",
                "respawned",
                "torn",
                "budget-skips",
                "denied",
                "violations",
            ],
            title="Chaos campaign: fault specs x seeds",
        )
        for s in self.summaries:
            table.add_row(
                [
                    s.spec,
                    s.runs,
                    f"{s.survival_rate:.2f}",
                    f"{s.convergence_rate:.2f}",
                    f"{s.mean_distance:.4f}",
                    f"{s.mean_crashed:.2f}",
                    f"{s.mean_respawned:.2f}",
                    s.torn_updates,
                    s.skipped_crashes,
                    s.respawn_denied,
                    s.violations,
                ]
            )
        parts = [table.render()]
        for outcome in self.outcomes:
            if outcome.respawn_denied or any(
                count > 1 for _, count in outcome.crash_tally
            ):
                tally = ", ".join(
                    f"{root}x{count}" for root, count in outcome.crash_tally
                )
                parts.append(
                    f"LINEAGES spec={outcome.spec} seed={outcome.seed}: "
                    f"denied={outcome.respawn_denied} crashes [{tally}]"
                )
        for outcome in self.outcomes:
            for violation in outcome.violations:
                parts.append(
                    f"VIOLATION spec={outcome.spec} seed={outcome.seed}: "
                    f"{violation}"
                )
        parts.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no timestamps): reruns with
        the same config produce identical bytes."""
        outcomes = []
        for o in self.outcomes:
            row = asdict(o)
            # Observability metrics live in the snapshot file, never the
            # report: bytes stay identical with and without collect_obs.
            row.pop("obs", None)
            outcomes.append(row)
        payload = {
            "summaries": [asdict(s) for s in self.summaries],
            "outcomes": outcomes,
            "clean": self.clean,
            "all_converged": self.all_converged,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path: str, fmt: str = "json") -> None:
        """Atomically persist the report (``fmt`` = ``"json"``/``"txt"``).

        Goes through :func:`repro.durable.atomic_io.atomic_write`, so a
        crash mid-write leaves either the previous report or the new one
        — never a torn file.
        """
        from repro.durable.atomic_io import atomic_write

        if fmt == "json":
            text = self.to_json()
        elif fmt == "txt":
            text = self.render() + "\n"
        else:
            raise ConfigurationError(f"unknown report format: {fmt!r}")
        atomic_write(path, text.encode("utf-8"))


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


def campaign_fingerprint(config: CampaignConfig) -> str:
    """Stable fingerprint of everything that determines campaign results.

    ``jobs`` is deliberately excluded: parallelism changes wall-clock
    time, never results, so a journal written under ``--jobs 4`` must
    resume cleanly under ``--jobs 1`` (and vice versa).
    """
    from repro.durable.journal import config_fingerprint

    payload = asdict(config)
    payload.pop("jobs", None)
    return config_fingerprint(payload)


def outcome_to_payload(outcome: FaultRunOutcome) -> Dict[str, Any]:
    """JSON-safe journal payload for one campaign cell."""
    payload = asdict(outcome)
    payload["violations"] = list(outcome.violations)
    return payload


def outcome_from_payload(payload: Dict[str, Any]) -> FaultRunOutcome:
    """Inverse of :func:`outcome_to_payload` — exact reconstruction, so
    journaled and freshly computed outcomes mix byte-identically."""
    data = dict(payload)
    data["violations"] = tuple(data.get("violations", ()))
    # Journals written before the lineage fields existed decode with the
    # dataclass defaults.
    data.setdefault("respawn_denied", 0)
    data["crash_tally"] = tuple(
        (int(root), int(count)) for root, count in data.get("crash_tally", ())
    )
    data.setdefault("obs", None)
    return FaultRunOutcome(**data)


def _cell_namespace(spec_index: int, spec: FaultSpec) -> str:
    return f"{spec_index}:{spec.name}"


def report_from_outcomes(outcomes: List[FaultRunOutcome]) -> CampaignReport:
    """Aggregate cell outcomes into a report (grid order preserved)."""
    return CampaignReport(outcomes=outcomes, summaries=summarize(outcomes))


def partial_report(config: CampaignConfig, journal: Any) -> CampaignReport:
    """Report over only the cells the journal has — the artifact the CLI
    flushes when a campaign is interrupted.  Grid-ordered, so the final
    resumed report extends it deterministically."""
    outcomes: List[FaultRunOutcome] = []
    for spec_index, spec in enumerate(config.specs):
        done = journal.completed(_cell_namespace(spec_index, spec))
        for seed in config.seeds:
            if seed in done:
                outcomes.append(outcome_from_payload(done[seed]))
    return report_from_outcomes(outcomes)


def campaign_metrics_lines(
    config: CampaignConfig, outcomes: List[FaultRunOutcome]
) -> List[Dict[str, Any]]:
    """Snapshot-file lines for a ``collect_obs`` campaign.

    One ``kind="cell"`` line per outcome that carries metrics (grid
    order) plus one ``kind="aggregate"`` roll-up — the payload
    ``repro chaos --metrics`` writes via
    :func:`repro.obs.snapshot.write_snapshot_jsonl`.  Purely a function
    of the outcomes, hence deterministic.
    """
    from repro.obs.paper import merge_paper_metrics

    lines: List[Dict[str, Any]] = []
    cells = []
    for outcome in outcomes:
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


def run_campaign(
    config: CampaignConfig,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    watchdog_policy: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> CampaignReport:
    """Execute the full spec x seed grid and aggregate the report.

    Each spec's seed ensemble goes through :func:`run_ensemble`, so
    ``config.jobs`` parallelizes cells across processes with results
    byte-identical to a serial run.

    With a ``journal`` (a :class:`~repro.durable.journal.RunJournal`
    opened against :func:`campaign_fingerprint`), every finished cell is
    durably recorded as it lands and already-journaled cells are skipped
    on resume — the report is byte-identical to an uninterrupted run no
    matter how many kills happened in between, or what ``jobs`` each
    attempt used.  ``shutdown`` stops the grid at the next cell boundary
    by raising :class:`~repro.errors.InterruptedRunError`;
    ``watchdog_policy`` (a :class:`~repro.durable.watchdog.
    WatchdogPolicy`) guards each spec's pooled phase against stalls.

    ``metrics`` (a :class:`repro.obs.registry.MetricsRegistry`) feeds
    ensemble/watchdog telemetry and, for ``collect_obs`` configs, the
    merged paper metrics of each freshly finished cell; ``progress``
    (``progress(seed, outcome)``) fires per fresh cell — the live-view
    hook.  Each spec's ensemble runs under a ``campaign.spec`` span when
    a recorder is active.  None of this changes results or report bytes.
    """
    from repro.durable.watchdog import EnsembleWatchdog
    from repro.obs.paper import publish_paper_metrics
    from repro.obs.registry import live_registry
    from repro.obs.spans import trace_span

    registry = live_registry(metrics)

    def note_cell(seed: int, outcome: FaultRunOutcome) -> None:
        if registry is not None and outcome.obs is not None:
            publish_paper_metrics(registry, outcome.obs)
        if registry is not None:
            registry.counter(
                "repro_campaign_cells_total", "campaign cells finished"
            ).inc()
        if progress is not None:
            progress(seed, outcome)

    outcomes: List[FaultRunOutcome] = []
    with EnsemblePool(config.jobs, len(config.seeds)) as pool:
        for spec_index, spec in enumerate(config.specs):
            watchdog = (
                EnsembleWatchdog(watchdog_policy, metrics=metrics)
                if watchdog_policy is not None
                else None
            )
            with trace_span(
                "campaign.spec", spec=spec.name, seeds=len(config.seeds)
            ):
                outcomes.extend(
                    run_ensemble(
                        functools.partial(_chaos_worker, config, spec_index),
                        config.seeds,
                        jobs=config.jobs,
                        journal=journal,
                        namespace=_cell_namespace(spec_index, spec),
                        encode=outcome_to_payload,
                        decode=outcome_from_payload,
                        watchdog=watchdog,
                        shutdown=shutdown,
                        metrics=metrics,
                        progress=note_cell,
                        pool=pool,
                    )
                )
    return report_from_outcomes(outcomes)
