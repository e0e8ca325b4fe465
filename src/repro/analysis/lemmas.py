"""Post-hoc lemma checkers: certify the paper's structural lemmas on
the measured trace of any run.

The convergence proof rests on three structural facts about executions,
all checkable from the :class:`~repro.runtime.events.IterationRecord`
stream alone:

* **Lemma 6.1** — iterations are totally ordered by their first model
  update, every claimed counter index is unique, and each record's
  internal timestamps are consistent (claim ≤ reads ≤ first update).
* **Lemma 6.2** — in every window of K·n consecutive iteration starts,
  fewer than n iterations are *bad* (overlap more than K·n starts).
* **Lemma 6.4** — the delay-sequence indicator sums satisfy
  ``Σ_m 1{τ_{t+m} ≥ m} ≤ 2√(τ_max·n)`` for every t.

:func:`certify_run` bundles the three into per-run
:class:`~repro.analysis.report.LemmaCertificate` objects; experiments
E4/E5 and the ``sanitize`` CLI attach them to their artifacts so every
published number ships with a machine-checked witness that the
execution it came from had the structure the theory assumes.

The Lemma 6.1 structural check is shared with the chaos engine: the
:class:`~repro.faults.monitors.IterationOrderMonitor` delegates to
:func:`iteration_order_findings`, so both layers flag the identical
conditions with the identical messages.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.analysis.report import Finding, LemmaCertificate
from repro.runtime.events import IterationRecord
from repro.theory.contention import (
    TraceTimes,
    lemma_6_2_window_counts,
    lemma_6_4_sums,
    thread_count,
)

#: Rule ids of the lemma checkers (see DESIGN.md §11 for the table).
RULE_ITERATION_ORDER = "LEM61"
RULE_WINDOW_CONTENTION = "LEM62"
RULE_INDICATOR_SUM = "LEM64"


def iteration_order_findings(
    records: Sequence[IterationRecord], source: str = "lemma"
) -> List[Finding]:
    """Lemma 6.1's structural conditions, checked record by record.

    Returns one :class:`Finding` per violated condition: duplicated
    order times (total order broken), doubly claimed counter indices,
    and internally inconsistent timestamps.  An empty list certifies
    the total order.
    """
    findings: List[Finding] = []

    def flag(record: IterationRecord, message: str) -> None:
        findings.append(
            Finding(
                source=source,
                rule=RULE_ITERATION_ORDER,
                message=message,
                time=record.order_time,
                thread_id=record.thread_id,
            )
        )

    seen_orders: dict = {}
    seen_indices: dict = {}
    for record in records:
        order = record.order_time
        if order in seen_orders:
            flag(
                record,
                f"iterations {seen_orders[order]} and {record.index} "
                f"share order time {order} (total order broken)",
            )
        seen_orders[order] = record.index
        if record.index in seen_indices:
            flag(record, f"iteration index {record.index} claimed twice")
        seen_indices[record.index] = True
        if record.read_start_time < record.start_time:
            flag(
                record,
                f"iteration {record.index} read before its claim "
                f"({record.read_start_time} < {record.start_time})",
            )
        if record.read_end_time < record.read_start_time:
            flag(
                record,
                f"iteration {record.index} read window inverted "
                f"({record.read_end_time} < {record.read_start_time})",
            )
        if (
            record.first_update_time is not None
            and record.first_update_time <= record.read_end_time
        ):
            flag(
                record,
                f"iteration {record.index} updated at "
                f"{record.first_update_time} before finishing its reads "
                f"at {record.read_end_time}",
            )
    return findings


def certify_iteration_order(
    records: Sequence[IterationRecord],
) -> LemmaCertificate:
    """Certificate form of Lemma 6.1: measured = violation count,
    bound = 0."""
    violations = iteration_order_findings(records)
    return LemmaCertificate(
        lemma="6.1",
        holds=not violations,
        measured=float(len(violations)),
        bound=0.0,
        detail=f"records={len(records)}",
    )


def certify_lemma_6_2(
    records: Sequence[IterationRecord],
    num_threads: int,
    window_multiplier: int = 2,
) -> LemmaCertificate:
    """Certify Lemma 6.2's "< n bad iterations per K·n window" bound.

    ``measured`` is the worst window's bad-iteration count; the lemma
    bounds it strictly below ``num_threads``.  Traces too short for a
    single window certify vacuously (0 windows, measured 0).
    """
    return lemma_6_2_certificate(
        lemma_6_2_window_counts(
            records, window_multiplier=window_multiplier, num_threads=num_threads
        ),
        num_threads=num_threads,
        window_multiplier=window_multiplier,
    )


def lemma_6_2_certificate(
    window_counts: Sequence[int], num_threads: int, window_multiplier: int
) -> LemmaCertificate:
    """:func:`certify_lemma_6_2` from the trace's per-window bad counts
    (:func:`~repro.theory.contention.lemma_6_2_window_counts`)."""
    worst = max(window_counts, default=0)
    return LemmaCertificate(
        lemma="6.2",
        holds=worst < num_threads,
        measured=float(worst),
        bound=float(num_threads),
        detail=(
            f"n={num_threads} K={window_multiplier} windows={len(window_counts)}"
        ),
    )


def certify_lemma_6_4(
    records: Sequence[IterationRecord],
) -> LemmaCertificate:
    """Certify Lemma 6.4's indicator-sum bound ``2√(τ_max·n)``.

    ``measured`` is ``max_t Σ_m 1{τ_{t+m} ≥ m}`` over the run's delay
    sequence; the bound uses the *measured* τ_max and thread count, so
    the certificate is honest about the execution it describes.
    """
    times = TraceTimes(records)
    contention = times.contention()
    return lemma_6_4_certificate(
        times.delays(),
        tau_max=int(contention.max()) if contention.size else 0,
        threads=thread_count(records),
    )


def lemma_6_4_certificate(
    delays: np.ndarray, tau_max: int, threads: int
) -> LemmaCertificate:
    """:func:`certify_lemma_6_4` from the trace's delay sequence, its
    measured τ_max and the number of threads that completed
    iterations."""
    if delays.size == 0:
        return LemmaCertificate(
            lemma="6.4", holds=True, measured=0.0, bound=0.0, detail="records=0"
        )
    sums = lemma_6_4_sums(delays)
    measured_tau_max = max(1, tau_max)
    n = max(1, threads)
    bound = 2.0 * math.sqrt(measured_tau_max * n)
    worst = float(sums.max())
    return LemmaCertificate(
        lemma="6.4",
        holds=worst <= bound + 1e-9,
        measured=worst,
        bound=float(bound),
        detail=f"tau_max={measured_tau_max} n={n}",
    )


def certify_run(
    records: Sequence[IterationRecord],
    num_threads: int,
    window_multiplier: int = 2,
) -> List[LemmaCertificate]:
    """The standard per-run certificate bundle: Lemmas 6.1, 6.2, 6.4."""
    return [
        certify_iteration_order(records),
        certify_lemma_6_2(
            records, num_threads=num_threads, window_multiplier=window_multiplier
        ),
        certify_lemma_6_4(records),
    ]


def certificate_findings(
    certificates: Sequence[LemmaCertificate], source: str = "lemma"
) -> List[Finding]:
    """One error finding per violated certificate (how certificate
    failures enter the shared report model)."""
    rules = {
        "6.1": RULE_ITERATION_ORDER,
        "6.2": RULE_WINDOW_CONTENTION,
        "6.4": RULE_INDICATOR_SUM,
    }
    return [
        Finding(
            source=source,
            rule=rules.get(c.lemma, "LEM"),
            message=str(c),
        )
        for c in certificates
        if not c.holds
    ]
