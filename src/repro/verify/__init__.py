"""Exhaustive small-scope certification (DESIGN.md §16).

Two engines share one report model:

* :mod:`repro.verify.enumerator` — a depth-first driver over the
  Simulator that visits every Mazurkiewicz-trace-distinct schedule at
  small scope (sleep-set partial-order reduction over concrete pending
  operations), running the race/staleness sanitizer and the Lemma
  6.1/6.2/6.4 certifiers on each complete schedule.
* :mod:`repro.verify.smt` — quantifier-free queries for the Lemma 6.4
  combinatorial inequality and the Theorem 5.1 fixed-α adversary,
  solved with z3 when the optional ``[verify]`` extra is installed and
  by exact finite-domain engines otherwise.

:mod:`repro.verify.engine` grids both over registered algorithm
variants plus seeded sanitizer mutants (:mod:`repro.verify.mutants`),
producing either a universal certificate or concrete counterexample
schedules that replay deterministically through
:class:`repro.sched.replay.PrefixReplayScheduler`.
"""

from repro.verify.enumerator import (
    EnumerationResult,
    EnumerationStats,
    enumerate_schedules,
)
from repro.verify.engine import (
    VerifyConfig,
    VerifyScope,
    verify_variant_names,
)
from repro.verify.independence import op_footprint, ops_conflict
from repro.verify.mutants import mutant_names
from repro.verify.report import VerifyCellOutcome, VerifyReport
from repro.verify.smt import (
    SmtConfig,
    SmtResult,
    check_lemma_6_4,
    check_theorem_5_1,
    run_smt_queries,
    solver_available,
)

__all__ = [
    "EnumerationResult",
    "EnumerationStats",
    "SmtConfig",
    "SmtResult",
    "VerifyCellOutcome",
    "VerifyConfig",
    "VerifyReport",
    "VerifyScope",
    "check_lemma_6_4",
    "check_theorem_5_1",
    "enumerate_schedules",
    "mutant_names",
    "op_footprint",
    "ops_conflict",
    "run_smt_queries",
    "solver_available",
    "verify_variant_names",
]
