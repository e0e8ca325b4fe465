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

from typing import Dict, List

from repro.experiments.grid import get_campaign
from repro.experiments.runner import ExperimentResult
from repro.verify.engine import VerifyConfig
from repro.verify.report import VerifyReport

#: The acceptance floor for the POR reduction factor.
MIN_REDUCTION_FACTOR = 2.0


def run(config: VerifyConfig) -> ExperimentResult:
    """Execute E15: the variant x seed enumeration grid + SMT queries."""
    report = get_campaign("verify").run(config)
    reduction_ok = all(
        o.reduction_factor >= MIN_REDUCTION_FACTOR
        for o in report.outcomes
        if o.interleavings
    )
    table = report.table(
        [
            column
            for column in VerifyReport.columns
            if not column[0].startswith("lemma ")
        ],
        title=(
            f"E15: exhaustive certification (n={config.scope.threads}, "
            f"T={config.scope.iterations}, {len(config.seeds)} seed(s)/variant)"
        ),
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
