"""repro.analysis — the repo's static and dynamic analysis layer.

Three analyzers share one report model (:mod:`repro.analysis.report`):

* :mod:`repro.analysis.sanitizer` — vector-clock race/staleness
  sanitizer over the simulator's operation stream (``repro sanitize``);
* :mod:`repro.analysis.lemmas` — post-hoc checkers certifying the
  paper's structural lemmas (6.1 total order, 6.2 window contention,
  6.4 indicator sums) on measured traces;
* :mod:`repro.analysis.lint` — static AST lint for program DSL misuse
  and determinism hazards (``repro lint``).

See DESIGN.md §11 for the architecture and the rule-id table.
"""

from repro.analysis.lemmas import (
    certificate_findings,
    certify_iteration_order,
    certify_lemma_6_2,
    certify_lemma_6_4,
    certify_run,
    iteration_order_findings,
)
from repro.analysis.lint import lint_paths, lint_source, render_findings
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    LemmaCertificate,
    RunAnalysis,
    certificate_from_dict,
    finding_from_dict,
    finding_sort_key,
    run_analysis_from_dict,
)
from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.runtime.simulator import Analyzer

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "LemmaCertificate",
    "RaceStalenessSanitizer",
    "RunAnalysis",
    "certificate_findings",
    "certify_iteration_order",
    "certify_lemma_6_2",
    "certificate_from_dict",
    "certify_lemma_6_4",
    "certify_run",
    "finding_from_dict",
    "finding_sort_key",
    "run_analysis_from_dict",
    "iteration_order_findings",
    "lint_paths",
    "lint_source",
    "render_findings",
]
