"""The verify grid: enumerate every schedule of every variant at scope.

Each (variant, seed) cell builds the same small workload the zoo grid
uses — an isotropic noisy quadratic — at *enumerable* scope (2–3
threads, a handful of iterations), then walks every
Mazurkiewicz-trace-distinct schedule with the sleep-set enumerator and
runs the per-schedule checkers on each complete schedule:

* the race/staleness sanitizer over the full operation log, and
* the Lemma 6.1/6.2/6.4 certifiers over the iteration records,
  restricted to the lemmas the variant declares applicable.

A schedule with any error finding or violated applicable certificate is
a **counterexample**; the engine re-executes it through
:class:`repro.sched.replay.PrefixReplayScheduler` and demands identical
findings and final state digest before reporting it (``replay_ok``).
Clean variants must produce zero counterexamples across the whole tree
— a universal certificate at scope; mutant variants
(:mod:`repro.verify.mutants`) must produce at least one, flagged by the
sanitizer — the oracle-agreement check that pins the sanitizer's
recall.

Cells run through :func:`repro.experiments.ensemble.run_ensemble`, so
the grid parallelizes across processes (``--jobs``) and journals for
kill/resume with byte-identical reports either way.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.lemmas import certify_run
from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.core.algorithm import (
    LEMMAS,
    Algorithm,
    algorithm_names,
    build_zoo_simulation,
    get_algorithm,
)
from repro.core.epoch_sgd import collect_iteration_records
from repro.errors import ConfigurationError, SchedulerError
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.simulator import Simulator
from repro.sched.base import Scheduler
from repro.sched.replay import PrefixReplayScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.verify.enumerator import enumerate_schedules
from repro.verify.mutants import get_mutant, mutant_names
from repro.verify.report import (
    Counterexample,
    VerifyCellOutcome,
    VerifyReport,
    outcome_from_payload,
    outcome_to_payload,
)
from repro.verify.smt import SmtConfig, run_smt_queries

#: The default variant panel: the two fetch&add-family algorithms the
#: acceptance gate names, plus both seeded mutants.
VERIFY_VARIANTS: Tuple[str, ...] = (
    "epoch-sgd",
    "hogwild",
    "mutant-torn-counter",
    "mutant-lost-update",
)


def verify_variant_names() -> Tuple[str, ...]:
    """Everything ``--variants`` accepts: registered algorithms plus
    the seeded mutants."""
    return tuple(sorted(set(algorithm_names()) | set(mutant_names())))


@dataclass(frozen=True)
class VerifyScope:
    """The enumerable workload every verify cell certifies.

    Deliberately tiny: the schedule tree is exponential in
    ``threads × steps``, and exhaustiveness — not statistics — is the
    product here.
    """

    dim: int = 2
    threads: int = 2
    iterations: int = 1
    step_size: float = 0.1
    noise_sigma: float = 0.2
    x0_scale: float = 1.0
    #: Per-schedule step budget.  Generous relative to the nominal
    #: scope because mutants can over-claim iterations (a torn counter
    #: duplicates indices, so more iterations run than T prescribes).
    max_steps: int = 48

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if self.threads < 1:
            raise ConfigurationError(
                f"threads must be >= 1, got {self.threads}"
            )
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if self.step_size <= 0:
            raise ConfigurationError(
                f"step_size must be > 0, got {self.step_size}"
            )
        if self.max_steps < 1:
            raise ConfigurationError(
                f"max_steps must be >= 1, got {self.max_steps}"
            )


@dataclass(frozen=True)
class VerifyConfig:
    """One verify run: variants x seeds, plus the SMT query grid."""

    variants: Tuple[str, ...] = VERIFY_VARIANTS
    seeds: Tuple[int, ...] = (1,)
    scope: VerifyScope = field(default_factory=VerifyScope)
    #: Also walk the unreduced tree to measure the POR reduction factor
    #: (doubles the work; the full tree is the expensive half).
    measure_full_tree: bool = True
    #: State-digest memoization in the reduced walk (see the soundness
    #: caveat in :mod:`repro.verify.enumerator`; off for certification).
    memoize: bool = False
    #: Counterexamples kept (and replay-verified) per cell.
    max_counterexamples: int = 3
    smt: SmtConfig = field(default_factory=SmtConfig)
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("verify needs at least one variant")
        if not self.seeds:
            raise ConfigurationError("verify needs at least one seed")
        unknown = set(self.variants) - set(verify_variant_names())
        if unknown:
            raise ConfigurationError(
                f"unknown variant(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(verify_variant_names())})"
            )
        if self.max_counterexamples < 1:
            raise ConfigurationError(
                f"max_counterexamples must be >= 1, "
                f"got {self.max_counterexamples}"
            )


def verify_fingerprint(config: VerifyConfig) -> str:
    """Stable fingerprint of everything that determines verify results
    (``jobs`` excluded: parallelism never changes results)."""
    from repro.durable.journal import config_fingerprint

    payload = asdict(config)
    payload.pop("jobs", None)
    return config_fingerprint(payload)


def _resolve_variant(name: str) -> Tuple[Algorithm, str, Optional[int]]:
    """``(algorithm, expectation, iterations_override)`` for a variant."""
    if name in mutant_names():
        spec = get_mutant(name)
        return spec.algorithm, "mutant", spec.min_iterations
    return get_algorithm(name), "clean", None


def _check_schedule(
    sim: Simulator, num_threads: int, applicable: Dict[str, bool]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Per-schedule checkers: ``(violation lines, violated lemmas)``.

    Runs the vector-clock sanitizer over the full operation log and the
    lemma certifiers over the iteration records; a line per error
    finding and per violated applicable certificate.
    """
    sanitizer = RaceStalenessSanitizer()
    sanitizer.on_attach(sim)
    sanitizer.drain(sim)
    sanitizer.finish(sim)
    lines = [str(f) for f in sanitizer.findings if f.severity == "error"]
    violated: List[str] = []
    records = collect_iteration_records(sim)
    for certificate in certify_run(records, num_threads=num_threads):
        if not applicable.get(certificate.lemma, False):
            continue
        if not certificate.holds:
            lines.append(str(certificate))
            violated.append(certificate.lemma)
    return tuple(lines), tuple(violated)


def _verify_worker(
    config: VerifyConfig, variant: str, seed: int
) -> VerifyCellOutcome:
    """Run one (variant, seed) enumeration cell (module-level: picklable
    for the pool)."""
    scope = config.scope
    algorithm, expectation, override = _resolve_variant(variant)
    iterations = max(scope.iterations, override or 0)
    applicable = algorithm.lemma_applicability()
    objective = IsotropicQuadratic(
        dim=scope.dim, noise=GaussianNoise(scope.noise_sigma)
    )

    def factory(scheduler: Scheduler) -> Simulator:
        sim, _model, _x0 = build_zoo_simulation(
            algorithm,
            objective,
            scheduler,
            num_threads=scope.threads,
            step_size=scope.step_size,
            iterations=iterations,
            x0=np.full(scope.dim, scope.x0_scale),
            seed=seed,
            record_log=True,
            record_iterations=True,
        )
        return sim

    counterexample_count = 0
    kept: List[Tuple[Tuple[int, ...], Tuple[str, ...], str]] = []
    violated_counts: Dict[str, int] = {lemma: 0 for lemma in LEMMAS}

    def on_schedule(sim: Simulator, schedule: Tuple[int, ...]) -> None:
        nonlocal counterexample_count
        lines, violated = _check_schedule(sim, scope.threads, applicable)
        for lemma in violated:
            violated_counts[lemma] += 1
        if not lines:
            return
        counterexample_count += 1
        if len(kept) < config.max_counterexamples:
            kept.append((schedule, lines, sim.state_digest()))

    result = enumerate_schedules(
        factory,
        max_steps=scope.max_steps,
        por=True,
        memoize=config.memoize,
        on_schedule=on_schedule,
    )
    interleavings = 0
    if config.measure_full_tree:
        full = enumerate_schedules(
            factory, max_steps=scope.max_steps, por=False
        )
        interleavings = full.stats.schedules

    counterexamples = tuple(
        Counterexample(
            schedule=schedule,
            findings=lines,
            replay_ok=_replays_identically(
                factory, scope.threads, applicable, schedule, lines, digest
            ),
        )
        for schedule, lines, digest in kept
    )
    sanitizer_agreement = expectation == "clean" or any(
        any("race-staleness" in line for line in cx.findings)
        for cx in counterexamples
    )
    certificates = tuple(
        (
            lemma,
            (
                f"violated:{violated_counts[lemma]}"
                if violated_counts[lemma]
                else "holds"
            )
            if applicable.get(lemma, False)
            else "n/a",
        )
        for lemma in LEMMAS
    )
    stats = result.stats
    return VerifyCellOutcome(
        variant=variant,
        seed=seed,
        expectation=expectation,
        threads=scope.threads,
        iterations=iterations,
        max_steps=scope.max_steps,
        schedules=stats.schedules,
        interleavings=interleavings,
        nodes=stats.nodes,
        sleep_skips=stats.sleep_skips,
        memo_skips=stats.memo_skips,
        budget_hits=stats.budget_hits,
        reduction_factor=(
            round(interleavings / stats.schedules, 4)
            if interleavings and stats.schedules
            else 0.0
        ),
        counterexample_count=counterexample_count,
        counterexamples=counterexamples,
        sanitizer_agreement=sanitizer_agreement,
        certificates=certificates,
    )


def _replays_identically(
    factory: Callable[[Scheduler], Simulator],
    num_threads: int,
    applicable: Dict[str, bool],
    schedule: Tuple[int, ...],
    expected_lines: Tuple[str, ...],
    expected_digest: str,
) -> bool:
    """Re-execute a counterexample schedule through
    :class:`PrefixReplayScheduler` and demand the identical findings and
    final state digest — the loud-replay guarantee the report relies on."""
    sim = factory(
        PrefixReplayScheduler(
            RoundRobinScheduler(), prefix=schedule, verify=False
        )
    )
    try:
        for _ in schedule:
            sim.step()
    except SchedulerError:
        return False
    if not sim.is_done:
        return False
    if sim.state_digest() != expected_digest:
        return False
    lines, _violated = _check_schedule(sim, num_threads, applicable)
    return lines == expected_lines


def _variant_namespace(variant: str) -> str:
    return f"variant/{variant}"


def report_from_outcomes(
    config: VerifyConfig, outcomes: List[VerifyCellOutcome]
) -> VerifyReport:
    """Attach the (deterministic, parent-process) SMT query results."""
    return VerifyReport(
        outcomes=outcomes, smt_results=run_smt_queries(config.smt)
    )


def partial_verify_report(config: VerifyConfig, journal: Any) -> VerifyReport:
    """Report over only the cells the journal has — the artifact the CLI
    flushes when a verify run is interrupted.  Grid-ordered."""
    outcomes: List[VerifyCellOutcome] = []
    for variant in config.variants:
        done = journal.completed(_variant_namespace(variant))
        for seed in config.seeds:
            if seed in done:
                outcomes.append(outcome_from_payload(done[seed]))
    return report_from_outcomes(config, outcomes)


def run_verify(
    config: VerifyConfig,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> VerifyReport:
    """Execute the variant x seed enumeration grid plus the SMT queries.

    Each variant's seed ensemble goes through :func:`run_ensemble`, so
    ``config.jobs`` parallelizes cells across processes with results
    byte-identical to a serial run, journaling for kill/resume.  The
    SMT queries run in the parent (they are cheap and deterministic).
    """
    from repro.obs.registry import live_registry
    from repro.obs.spans import trace_span

    registry = live_registry(metrics)

    def note_cell(seed: int, outcome: VerifyCellOutcome) -> None:
        if registry is not None:
            registry.counter(
                "repro_verify_cells_total", "verify cells finished"
            ).inc()
        if progress is not None:
            progress(seed, outcome)

    outcomes: List[VerifyCellOutcome] = []
    with EnsemblePool(config.jobs, len(config.seeds)) as pool:
        for variant in config.variants:
            with trace_span(
                "verify.cell", variant=variant, seeds=len(config.seeds)
            ):
                outcomes.extend(
                    run_ensemble(
                        functools.partial(_verify_worker, config, variant),
                        config.seeds,
                        jobs=config.jobs,
                        journal=journal,
                        namespace=_variant_namespace(variant),
                        encode=outcome_to_payload,
                        decode=outcome_from_payload,
                        shutdown=shutdown,
                        metrics=metrics,
                        progress=note_cell,
                        pool=pool,
                    )
                )
    return report_from_outcomes(config, outcomes)
