"""E15 — exhaustive small-scope certification (DESIGN.md §16).

The verification-tier experiment: enumerate every Mazurkiewicz-trace-
distinct schedule of the fetch&add-family variants at enumerable scope
(sleep-set POR over the concrete op footprints), certify the sanitizer
and the applicable lemma certificates on each, and demand

* zero counterexamples on clean variants — a *universal* certificate at
  scope, upgrading "no violation observed" to "no violation possible";
* at least one replay-verified, sanitizer-flagged counterexample on
  each seeded mutant — the oracle-agreement check pinning the
  sanitizer's recall;
* a POR reduction factor (full interleaving tree vs. reduced walk) of
  at least 2×, the evidence the pruning is doing real work;
* every SMT lemma query proved (Lemma 6.4 over the (n, τ_max) grid,
  Theorem 5.1 per α).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.grid import get_campaign
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import Table
from repro.verify.engine import (
    VERIFY_VARIANTS,
    VerifyConfig,
    VerifyScope,
)
from repro.verify.report import cell_passed

#: The acceptance floor for the POR reduction factor.
MIN_REDUCTION_FACTOR = 2.0


@dataclass
class E15Config:
    """Parameters of the E15 verification grid."""

    variants: List[str] = field(default_factory=lambda: list(VERIFY_VARIANTS))
    threads: int = 2
    iterations: int = 1
    num_seeds: int = 1
    base_seed: int = 1
    jobs: int = 1

    @classmethod
    def quick(cls) -> "E15Config":
        return cls()

    @classmethod
    def full(cls) -> "E15Config":
        return cls(num_seeds=2)


def to_verify_config(config: E15Config) -> VerifyConfig:
    """The engine config an :class:`E15Config` denotes."""
    return VerifyConfig(
        variants=tuple(config.variants),
        seeds=tuple(
            range(config.base_seed, config.base_seed + config.num_seeds)
        ),
        scope=VerifyScope(
            threads=config.threads, iterations=config.iterations
        ),
        jobs=config.jobs,
    )


def run(config: E15Config) -> ExperimentResult:
    """Execute E15: the variant x seed enumeration grid + SMT queries."""
    report = get_campaign("verify").run(to_verify_config(config))
    reduction_ok = all(
        o.reduction_factor >= MIN_REDUCTION_FACTOR
        for o in report.outcomes
        if o.interleavings
    )
    table = Table(
        [
            "variant",
            "seed",
            "expect",
            "schedules",
            "full tree",
            "reduction",
            "counterex",
            "verdict",
        ],
        title=(
            f"E15: exhaustive certification (n={config.threads}, "
            f"T={config.iterations}, {config.num_seeds} seed(s)/variant)"
        ),
    )
    for o in report.outcomes:
        table.add_row(
            [
                o.variant,
                o.seed,
                o.expectation,
                o.schedules,
                o.interleavings or "-",
                f"{o.reduction_factor:.2f}x" if o.reduction_factor else "-",
                o.counterexample_count or "none",
                "pass" if cell_passed(o) else "FAIL",
            ]
        )
    # The figure: per variant, schedules explored in the reduced vs the
    # full walk (xs index the variant panel).
    xs = list(range(len(report.outcomes)))
    series: Dict[str, List[float]] = {
        "por_schedules": [float(o.schedules) for o in report.outcomes],
        "full_interleavings": [
            float(o.interleavings) for o in report.outcomes
        ],
    }
    smt_proved = sum(1 for r in report.smt_results if r.proved)
    return ExperimentResult(
        experiment_id="E15",
        title="exhaustive small-scope certification — every schedule "
        "enumerated, every lemma query discharged",
        table=table,
        xs=[float(x) for x in xs],
        series=series,
        passed=report.passed and reduction_ok,
        notes=(
            "acceptance: clean variants certify across every trace-distinct "
            "schedule, each mutant yields a replay-verified counterexample "
            "the sanitizer flags, POR reduction >= "
            f"{MIN_REDUCTION_FACTOR:.0f}x, and all "
            f"{len(report.smt_results)} SMT queries prove "
            f"({smt_proved} proved)"
        ),
    )
