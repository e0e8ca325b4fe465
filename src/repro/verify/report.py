"""The verify tier's report model — one shape for both engines.

Like every campaign kind (:mod:`repro.experiments.grid`): frozen
plain-value outcome rows that cross the process pool untouched and
journal through the registry's one codec, grid-ordered aggregation, and
a :class:`~repro.experiments.grid.GridReport` whose deterministic JSON
(sorted keys, no timestamps) lets ``--jobs 1`` and ``--jobs N`` runs
compare with ``cmp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.algorithm import LEMMAS
from repro.experiments.grid import GridReport, gate
from repro.verify.smt import SmtResult


@dataclass(frozen=True)
class Counterexample:
    """A concrete schedule violating a certificate or sanitizer rule.

    ``schedule`` replays deterministically through
    :class:`repro.sched.replay.PrefixReplayScheduler`; ``replay_ok``
    records that the engine *did* replay it and reproduced the same
    findings and final state digest.
    """

    schedule: Tuple[int, ...]
    findings: Tuple[str, ...]
    replay_ok: bool


@dataclass(frozen=True)
class VerifyCellOutcome:
    """One (variant, seed) enumeration cell — plain values only."""

    variant: str
    seed: int
    #: ``"clean"`` (a registered algorithm: every schedule must certify)
    #: or ``"mutant"`` (a seeded bug: some schedule must not).
    expectation: str
    threads: int
    iterations: int
    max_steps: int
    #: Mazurkiewicz-trace representatives explored (sleep-set POR on).
    schedules: int
    #: Complete schedules of the unreduced tree (0 when not measured).
    interleavings: int
    nodes: int
    sleep_skips: int
    memo_skips: int
    #: Schedules truncated by ``max_steps`` — any non-zero value voids
    #: exhaustiveness and fails the cell.
    budget_hits: int
    #: ``interleavings / schedules`` (0.0 when the full tree was not
    #: measured).
    reduction_factor: float
    #: Schedules with at least one violation (kept or not).
    counterexample_count: int
    #: First few counterexamples in DFS order, replay-verified.
    counterexamples: Tuple[Counterexample, ...]
    #: Whether some kept counterexample carries a *sanitizer* finding —
    #: the oracle-agreement bit for mutants (the enumerator found the
    #: bug AND the dynamic analysis flags that same schedule).
    sanitizer_agreement: bool
    #: ``(lemma, status)`` per paper lemma aggregated over every
    #: explored schedule: ``"holds"``, ``"violated:<k>"`` (k schedules)
    #: or ``"n/a"`` (variant declares it structurally inapplicable).
    certificates: Tuple[Tuple[str, str], ...]


def cell_passed(outcome: VerifyCellOutcome) -> bool:
    """The cell-level verdict.

    A clean variant passes when enumeration was exhaustive (no budget
    hits) and **no** schedule produced a violation; a mutant passes when
    at least one counterexample exists, every kept one replayed
    deterministically, and the sanitizer flagged it (oracle agreement).
    """
    if outcome.budget_hits > 0:
        return False
    if outcome.expectation == "clean":
        return outcome.counterexample_count == 0 and all(
            not status.startswith("violated")
            for _lemma, status in outcome.certificates
        )
    return (
        outcome.counterexample_count >= 1
        and len(outcome.counterexamples) >= 1
        and all(c.replay_ok for c in outcome.counterexamples)
        and outcome.sanitizer_agreement
    )


@dataclass
class VerifyReport(GridReport):
    """Everything both engines proved (or failed to)."""

    smt_results: List[SmtResult]

    title = "Verification tier: exhaustive small-scope enumeration"
    table_rows = "outcomes"
    columns = (
        ("variant", "variant"),
        ("seed", "seed"),
        ("expect", "expectation"),
        ("schedules", "schedules"),
        ("full tree", lambda o: o.interleavings or "-"),
        (
            "reduction",
            lambda o: (
                f"{o.reduction_factor:.2f}x" if o.reduction_factor else "-"
            ),
        ),
        ("counterex", lambda o: o.counterexample_count or "none"),
        *(
            (f"lemma {lemma}", lambda o, i=i: o.certificates[i][1])
            for i, lemma in enumerate(LEMMAS)
        ),
        ("verdict", lambda o: "pass" if cell_passed(o) else "FAIL"),
    )
    extras = ("cell_verdicts", "smt_results")

    @property
    def cell_verdicts(self) -> List[Dict[str, Any]]:
        """Each cell's verdict (:func:`cell_passed`)."""
        return [
            {"variant": o.variant, "seed": o.seed, "passed": cell_passed(o)}
            for o in self.outcomes
        ]

    @gate
    def enumeration_ok(self) -> bool:
        """Every cell met its expectation (universal certificate on
        clean variants, replayable flagged counterexample on mutants)."""
        return all(cell_passed(o) for o in self.outcomes)

    @gate
    def smt_ok(self) -> bool:
        """No lemma query refuted (skipped-for-missing-solver is not a
        failure; the finite engines still decide every default query)."""
        return all(r.status != "refuted" for r in self.smt_results)

    def details(self) -> List[str]:
        lines = []
        for o in self.outcomes:
            for cx in o.counterexamples:
                replay = "replay ok" if cx.replay_ok else "REPLAY DIVERGED"
                lines.append(
                    f"COUNTEREXAMPLE {o.variant} seed={o.seed} "
                    f"schedule={list(cx.schedule)} ({replay})"
                )
                lines.extend(f"  {finding}" for finding in cx.findings)
        if self.smt_results:
            lines.append("SMT lemma queries (unsat means proved):")
            lines.extend(f"  {result}" for result in self.smt_results)
        return lines
