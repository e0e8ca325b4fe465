"""The verify tier's report model — one shape for both engines.

Mirrors the E13/E14 report discipline: frozen plain-value outcome rows
that cross the process pool untouched, exact payload codecs so
journaled and freshly computed cells mix byte-identically, grid-ordered
aggregation, and deterministic JSON (sorted keys, no timestamps) so
``--jobs 1`` and ``--jobs N`` runs compare with ``cmp``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

from repro.core.algorithm import LEMMAS
from repro.metrics.report import Table
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


def outcome_to_payload(outcome: VerifyCellOutcome) -> Dict[str, Any]:
    """JSON-safe journal payload for one verify cell."""
    return asdict(outcome)


def outcome_from_payload(payload: Dict[str, Any]) -> VerifyCellOutcome:
    """Inverse of :func:`outcome_to_payload` — exact reconstruction."""
    data = dict(payload)
    data["counterexamples"] = tuple(
        Counterexample(
            schedule=tuple(int(s) for s in row["schedule"]),
            findings=tuple(str(f) for f in row["findings"]),
            replay_ok=bool(row["replay_ok"]),
        )
        for row in data["counterexamples"]
    )
    data["certificates"] = tuple(
        (lemma, status) for lemma, status in data["certificates"]
    )
    return VerifyCellOutcome(**data)


def smt_to_payload(result: SmtResult) -> Dict[str, Any]:
    return asdict(result)


@dataclass
class VerifyReport:
    """Everything both engines proved (or failed to)."""

    outcomes: List[VerifyCellOutcome]
    smt_results: List[SmtResult]

    @property
    def enumeration_ok(self) -> bool:
        """Every cell met its expectation (universal certificate on
        clean variants, replayable flagged counterexample on mutants)."""
        return all(cell_passed(o) for o in self.outcomes)

    @property
    def smt_ok(self) -> bool:
        """No lemma query refuted (skipped-for-missing-solver is not a
        failure; the finite engines still decide every default query)."""
        return all(r.status != "refuted" for r in self.smt_results)

    @property
    def passed(self) -> bool:
        return self.enumeration_ok and self.smt_ok

    def render(self) -> str:
        """ASCII report (the CLI artifact)."""
        table = Table(
            [
                "variant",
                "seed",
                "expect",
                "schedules",
                "full tree",
                "reduction",
                "counterex",
                *[f"lemma {lemma}" for lemma in LEMMAS],
                "verdict",
            ],
            title="Verification tier: exhaustive small-scope enumeration",
        )
        for o in self.outcomes:
            table.add_row(
                [
                    o.variant,
                    o.seed,
                    o.expectation,
                    o.schedules,
                    o.interleavings or "-",
                    f"{o.reduction_factor:.2f}x" if o.reduction_factor else "-",
                    o.counterexample_count or "none",
                    *[status for _lemma, status in o.certificates],
                    "pass" if cell_passed(o) else "FAIL",
                ]
            )
        parts = [table.render()]
        for o in self.outcomes:
            for cx in o.counterexamples:
                replay = "replay ok" if cx.replay_ok else "REPLAY DIVERGED"
                parts.append(
                    f"COUNTEREXAMPLE {o.variant} seed={o.seed} "
                    f"schedule={list(cx.schedule)} ({replay})"
                )
                for finding in cx.findings:
                    parts.append(f"  {finding}")
        if self.smt_results:
            parts.append("SMT lemma queries (unsat means proved):")
            for result in self.smt_results:
                parts.append(f"  {result}")
        parts.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON — identical bytes across ``--jobs``."""
        payload = {
            "outcomes": [outcome_to_payload(o) for o in self.outcomes],
            "cell_verdicts": [
                {
                    "variant": o.variant,
                    "seed": o.seed,
                    "passed": cell_passed(o),
                }
                for o in self.outcomes
            ],
            "smt_results": [smt_to_payload(r) for r in self.smt_results],
            "enumeration_ok": self.enumeration_ok,
            "smt_ok": self.smt_ok,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
