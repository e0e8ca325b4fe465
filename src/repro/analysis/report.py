"""The shared finding/report model of the analysis layer.

Every checker in the repo — the runtime invariant monitors of
:mod:`repro.faults.monitors`, the race/staleness sanitizer, the lemma
certifiers and the static linter — reports problems in one shape:
:class:`Finding`.  One dataclass, one serializer, so a chaos robustness
report and a sanitizer report read the same and diff cleanly.

Reports are **deterministic by construction**: rendering and JSON
serialization sort keys, never embed timestamps or absolute paths, and
findings order by :func:`finding_sort_key` — rerunning the same seeded
analysis produces byte-identical output (the property CI pins).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

#: Finding severities, in increasing order of badness.  ``error``
#: findings fail a run; ``warning`` findings are surfaced but do not
#: flip the exit code on their own unless strict mode asks for it.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One detected problem, from any analyzer in the repo.

    Attributes:
        source: The analyzer that produced it (``"sanitizer"``,
            ``"monitor:<name>"``, ``"lint"``, ``"lemma"``).
        rule: Stable machine-readable rule id (``"RS001"``, ``"RPD201"``,
            ``"LEM62"``, a monitor name, ...).  Rule ids never change
            meaning across versions; see DESIGN.md §11 for the table.
        message: Human-readable description of what was found.
        severity: ``"error"`` or ``"warning"``.
        time: Logical simulation time of the finding, or ``-1`` when the
            finding is not tied to a step (static lint, final checks).
        thread_id: Offending simulated thread, or ``-1``.
        location: Where: ``"path.py:12"`` for static findings,
            ``"addr=5"`` / ``"segment[2]"`` for memory findings, empty
            when not applicable.
    """

    source: str
    rule: str
    message: str
    severity: str = "error"
    time: int = -1
    thread_id: int = -1
    location: str = ""

    def __str__(self) -> str:  # compact form for reports/CLI
        if self.time >= 0:
            return f"[{self.source} @ t={self.time}] {self.message}"
        if self.location:
            return f"{self.location}: {self.rule} {self.message}"
        return f"[{self.source}] {self.rule}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (the one serializer every report shares)."""
        return asdict(self)


def finding_from_dict(payload: Dict[str, object]) -> Finding:
    """Inverse of :meth:`Finding.as_dict` (unknown keys ignored) — the
    journal codec for resumable analysis runs."""
    return Finding(
        source=str(payload["source"]),
        rule=str(payload["rule"]),
        message=str(payload["message"]),
        severity=str(payload.get("severity", "error")),
        time=int(payload.get("time", -1)),
        thread_id=int(payload.get("thread_id", -1)),
        location=str(payload.get("location", "")),
    )


def finding_sort_key(finding: Finding) -> Tuple:
    """The canonical report order: by location, time, rule, thread,
    message — total, so equal finding sets render identically."""
    return (
        finding.location,
        finding.time,
        finding.rule,
        finding.thread_id,
        finding.message,
    )


@dataclass(frozen=True)
class LemmaCertificate:
    """A per-run certificate that one of the paper's structural lemmas
    held (or did not) on a measured trace.

    Attributes:
        lemma: Which lemma (``"6.1"``, ``"6.2"``, ``"6.4"``).
        holds: Whether the measured quantity respects the bound.
        measured: The measured extremal quantity (worst bad-window count
            for 6.2, max indicator sum for 6.4, violation count for 6.1).
        bound: The lemma's bound on that quantity.
        detail: Parameters the certificate was computed under, as a
            deterministic string (e.g. ``"n=4 K=2 windows=12"``).
    """

    lemma: str
    holds: bool
    measured: float
    bound: float
    detail: str = ""

    def __str__(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (
            f"lemma {self.lemma} {verdict}: measured {self.measured:g} "
            f"vs bound {self.bound:g}"
            + (f" ({self.detail})" if self.detail else "")
        )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def certificate_from_dict(payload: Dict[str, object]) -> LemmaCertificate:
    """Inverse of :meth:`LemmaCertificate.as_dict`."""
    return LemmaCertificate(
        lemma=str(payload["lemma"]),
        holds=bool(payload["holds"]),
        measured=float(payload["measured"]),
        bound=float(payload["bound"]),
        detail=str(payload.get("detail", "")),
    )


@dataclass
class RunAnalysis:
    """Everything the analysis layer measured about one seeded run."""

    label: str  # "<preset>/<scheduler>/seed=<s>" — unique within a report
    steps: int
    iterations: int
    findings: List[Finding] = field(default_factory=list)
    certificates: List[LemmaCertificate] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and all(c.holds for c in self.certificates)

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "steps": self.steps,
            "iterations": self.iterations,
            "findings": [f.as_dict() for f in sorted(self.findings, key=finding_sort_key)],
            "certificates": [c.as_dict() for c in self.certificates],
            "clean": self.clean,
        }


def run_analysis_from_dict(payload: Dict[str, object]) -> RunAnalysis:
    """Inverse of :meth:`RunAnalysis.as_dict` — reconstructs a run from
    its journaled payload.  Findings come back in canonical sorted order
    (the order ``as_dict`` emits), which renders and serializes
    identically to the original."""
    return RunAnalysis(
        label=str(payload["label"]),
        steps=int(payload["steps"]),
        iterations=int(payload["iterations"]),
        findings=[finding_from_dict(f) for f in payload.get("findings", [])],
        certificates=[
            certificate_from_dict(c) for c in payload.get("certificates", [])
        ],
    )


@dataclass
class AnalysisReport:
    """An aggregated, deterministic analysis report over one or more runs.

    ``passed`` is what the CLI exit code and CI pin: no findings at
    ``error`` severity anywhere and every lemma certificate holding.
    ``strict`` promotes warnings to failures.
    """

    runs: List[RunAnalysis] = field(default_factory=list)
    strict: bool = False

    @property
    def findings(self) -> List[Finding]:
        """All findings across runs, in canonical order."""
        collected = [f for run in self.runs for f in run.findings]
        collected.sort(key=finding_sort_key)
        return collected

    @property
    def certificates(self) -> List[LemmaCertificate]:
        return [c for run in self.runs for c in run.certificates]

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def passed(self) -> bool:
        if any(not c.holds for c in self.certificates):
            return False
        if self.count("error"):
            return False
        if self.strict and self.count("warning"):
            return False
        return True

    def render(self) -> str:
        """ASCII report (the CLI artifact); deterministic line order."""
        lines: List[str] = []
        width = max((len(r.label) for r in self.runs), default=0)
        for run in self.runs:
            status = "clean" if run.clean else (
                f"{len(run.findings)} finding(s)"
                if run.findings
                else "certificate violated"
            )
            lines.append(
                f"{run.label.ljust(width)}  steps={run.steps} "
                f"iterations={run.iterations}  {status}"
            )
            for certificate in run.certificates:
                lines.append(f"  {certificate}")
            for finding in sorted(run.findings, key=finding_sort_key):
                lines.append(f"  {finding.severity.upper()} {finding.rule}: {finding}")
        lines.append(
            f"{len(self.runs)} run(s), {self.count('error')} error(s), "
            f"{self.count('warning')} warning(s), "
            f"{sum(1 for c in self.certificates if not c.holds)} "
            f"certificate violation(s)"
        )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no timestamps): reruns with
        the same config produce identical bytes."""
        payload = {
            "runs": [run.as_dict() for run in self.runs],
            "errors": self.count("error"),
            "warnings": self.count("warning"),
            "strict": self.strict,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def merge_reports(
    reports: List[AnalysisReport], strict: Optional[bool] = None
) -> AnalysisReport:
    """Concatenate per-preset reports into one, preserving run order."""
    merged = AnalysisReport(strict=bool(strict) if strict is not None else any(
        r.strict for r in reports
    ))
    for report in reports:
        merged.runs.extend(report.runs)
    return merged
