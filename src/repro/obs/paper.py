"""Paper-aligned derived metrics, streamed online.

The quantities the paper's analysis is stated in — per-update delay τ
(Theorem 5.1), interval contention and its maximum τ_max, per-``K·n``
window bad-iteration counts (Lemma 6.2), and the indicator sums
``Σ_m 1{τ_{t+m} ≥ m}`` (Lemma 6.4) — computed from the live
:class:`~repro.runtime.events.IterationRecord` stream of a run.

**Agreement with post-hoc certification is by construction**: the
heavy quantities are produced by the *same* code the
:mod:`repro.analysis.lemmas` certifiers run
(:class:`~repro.theory.contention.TraceTimes`' delays, contention and
window counts, :func:`~repro.theory.contention.lemma_6_4_sums`), and
the ``lemma_6_2``/``lemma_6_4`` entries of a snapshot are read straight
off :class:`~repro.analysis.report.LemmaCertificate` objects issued by
:func:`~repro.analysis.lemmas.lemma_6_2_certificate` /
:func:`~repro.analysis.lemmas.lemma_6_4_certificate`, the functions
:func:`~repro.analysis.lemmas.certify_lemma_6_2` /
:func:`~repro.analysis.lemmas.certify_lemma_6_4` issue theirs through.
A live counter disagreeing with the certificate for the same trace is
therefore impossible without a code bug — the cross-check test in
``tests/test_obs_paper.py`` pins it.

Everything returned is JSON-safe (ints, floats, bools, lists) and a
pure function of the record stream, so snapshots are deterministic and
survive journal round-trips byte-identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import TAU_BUCKETS, live_registry
from repro.runtime.events import IterationRecord


def tau_histogram_buckets(
    delays: Sequence[int], buckets: Tuple[float, ...] = TAU_BUCKETS
) -> List[List[object]]:
    """Cumulative ``le`` buckets of a delay sequence (+Inf last).

    ``buckets`` are ascending bounds; each delay lands in the first
    bucket whose bound it does not exceed.
    """
    slots = np.searchsorted(np.asarray(buckets, dtype=float), delays, side="left")
    counts = np.bincount(slots, minlength=len(buckets) + 1)
    out: List[List[object]] = [
        [int(bound) if float(bound).is_integer() else bound, cumulative]
        for bound, cumulative in zip(buckets, np.cumsum(counts[:-1]).tolist())
    ]
    out.append(["+Inf", len(delays)])
    return out


def paper_metrics(
    records: Sequence[IterationRecord],
    num_threads: int,
    window_multiplier: int = 2,
) -> Dict[str, object]:
    """One run's paper-aligned metric snapshot (deterministic, JSON-safe).

    Keys (all derived through the shared theory/certifier code paths):

    * ``iterations``, ``threads_observed`` — trace shape;
    * ``tau_max``, ``tau_avg`` — interval-contention extremes (§6.1);
    * ``delay_max``, ``tau_histogram`` — the per-iteration delay
      sequence τ_t and its fixed-bucket histogram;
    * ``window``, ``window_counts``, ``window_bad_max``,
      ``window_bound``, ``lemma_6_2_holds`` — per-``K·n``-window
      bad-iteration counts against Lemma 6.2's ``< n`` bound;
    * ``indicator_sum_max``, ``indicator_sum_bound``,
      ``lemma_6_4_holds`` — Lemma 6.4's indicator sums against
      ``2√(τ_max·n)``;
    * ``lemma_6_1_violations`` — Lemma 6.1 total-order violations.

    The records are sorted once (:class:`~repro.theory.contention.
    TraceTimes`), and the delays, the interval contention and the
    window counts are each computed once and shared by the snapshot
    and its certificates.
    """
    from repro.analysis.lemmas import (
        certify_iteration_order,
        lemma_6_2_certificate,
        lemma_6_4_certificate,
    )
    from repro.theory.contention import TraceTimes, thread_count

    times = TraceTimes(records)
    delays = times.delays()
    contention = times.contention()
    tau_max = int(contention.max()) if contention.size else 0
    threads = thread_count(records)
    window_counts = times.window_counts(window_multiplier, num_threads)
    cert_61 = certify_iteration_order(records)
    cert_62 = lemma_6_2_certificate(window_counts, num_threads, window_multiplier)
    cert_64 = lemma_6_4_certificate(delays, tau_max=tau_max, threads=threads)
    return {
        "iterations": len(records),
        "threads_observed": threads,
        "num_threads": int(num_threads),
        "tau_max": tau_max,
        "tau_avg": float(contention.mean()) if contention.size else 0.0,
        "delay_max": int(delays.max()) if delays.size else 0,
        "tau_histogram": tau_histogram_buckets(delays),
        "window": int(window_multiplier * num_threads),
        "window_counts": window_counts,
        "window_bad_max": float(cert_62.measured),
        "window_bound": float(cert_62.bound),
        "lemma_6_2_holds": bool(cert_62.holds),
        "indicator_sum_max": float(cert_64.measured),
        "indicator_sum_bound": float(cert_64.bound),
        "lemma_6_4_holds": bool(cert_64.holds),
        "lemma_6_1_violations": int(cert_61.measured),
    }


def merge_paper_metrics(cells: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-cell snapshots (max for extremes, sum for counts).

    Per-window count lists are not mergeable across runs and are
    dropped; the worst window (``window_bad_max``) survives.  The
    ``lemma_*_holds`` flags aggregate with ``all`` — one violated cell
    fails the aggregate.
    """
    cells = [c for c in cells if c]
    if not cells:
        return {}
    buckets = None
    for cell in cells:
        hist = cell.get("tau_histogram")
        if not hist:
            continue
        if buckets is None:
            buckets = [[le, 0] for le, _ in hist]
        for slot, (_le, cumulative) in zip(buckets, hist):
            slot[1] += cumulative
    return {
        "cells": len(cells),
        "iterations": sum(int(c.get("iterations", 0)) for c in cells),
        "tau_max": max(int(c.get("tau_max", 0)) for c in cells),
        "delay_max": max(int(c.get("delay_max", 0)) for c in cells),
        "tau_histogram": buckets if buckets is not None else [],
        "window_bad_max": max(float(c.get("window_bad_max", 0.0)) for c in cells),
        "indicator_sum_max": max(
            float(c.get("indicator_sum_max", 0.0)) for c in cells
        ),
        "indicator_sum_bound_max": max(
            float(c.get("indicator_sum_bound", 0.0)) for c in cells
        ),
        "lemma_6_1_violations": sum(
            int(c.get("lemma_6_1_violations", 0)) for c in cells
        ),
        "lemma_6_2_holds": all(bool(c.get("lemma_6_2_holds", True)) for c in cells),
        "lemma_6_4_holds": all(bool(c.get("lemma_6_4_holds", True)) for c in cells),
    }


def publish_paper_metrics(
    metrics: Optional[object], snapshot: Dict[str, object], prefix: str = "repro"
) -> None:
    """Push one run's :func:`paper_metrics` snapshot into a registry.

    Gauges keep running maxima (``tau_max``-style), counters accumulate
    across runs (iterations, lemma violations), and the τ histogram is
    re-observed bucket by bucket so a live ``repro top`` view can render
    it.  A ``None``/null registry is a no-op.
    """
    registry = live_registry(metrics)
    if registry is None or not snapshot:
        return
    registry.counter(
        f"{prefix}_iterations_total", "completed SGD iterations"
    ).inc(int(snapshot.get("iterations", 0)))
    registry.gauge(
        f"{prefix}_tau_max", "running max interval contention (paper tau_max)"
    ).max(int(snapshot.get("tau_max", 0)))
    registry.gauge(
        f"{prefix}_delay_max", "running max per-iteration delay tau_t"
    ).max(int(snapshot.get("delay_max", 0)))
    registry.gauge(
        f"{prefix}_window_bad_max",
        "worst Kn-window bad-iteration count (Lemma 6.2; bound is n)",
    ).max(float(snapshot.get("window_bad_max", 0.0)))
    registry.gauge(
        f"{prefix}_indicator_sum_max",
        "worst Lemma 6.4 indicator sum (bound is 2*sqrt(tau_max*n))",
    ).max(float(snapshot.get("indicator_sum_max", 0.0)))
    registry.counter(
        f"{prefix}_lemma_6_1_violations_total", "Lemma 6.1 order violations"
    ).inc(int(snapshot.get("lemma_6_1_violations", 0)))
    histogram = registry.histogram(
        f"{prefix}_tau_delay", buckets=TAU_BUCKETS,
        help="per-iteration delay tau_t distribution",
    )
    previous = 0
    for index, (_le, cumulative) in enumerate(snapshot.get("tau_histogram", [])):
        count = int(cumulative) - previous
        previous = int(cumulative)
        if count <= 0:
            continue
        # Re-observe a representative value per bucket: the bound itself
        # (or one past the last finite bound for the +Inf bucket).
        value = (
            float(TAU_BUCKETS[index])
            if index < len(TAU_BUCKETS)
            else float(TAU_BUCKETS[-1]) + 1.0
        )
        for _ in range(count):
            histogram.observe(value)


class PaperTracker:
    """Streaming tracker of the paper's run-time quantities.

    Feed iteration records as they materialize (whole-run or chunk by
    chunk); :meth:`snapshot` recomputes the derived quantities over
    everything ingested so far through the shared theory functions.
    Cheap running counters (iterations, running delay max) are updated
    per :meth:`ingest`; the heavy O(N log N) quantities are only
    computed when a snapshot is asked for.
    """

    def __init__(self, num_threads: int, window_multiplier: int = 2) -> None:
        self.num_threads = num_threads
        self.window_multiplier = window_multiplier
        self.records: List[IterationRecord] = []

    def ingest(self, records: Sequence[IterationRecord]) -> None:
        self.records.extend(records)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def snapshot(self) -> Dict[str, object]:
        """Recompute the full paper-metric snapshot over everything
        ingested so far.  Publishing into a registry is the caller's
        call (:func:`publish_paper_metrics` is one-shot per run — a
        tracker snapshotted repeatedly would double-count counters)."""
        return paper_metrics(
            self.records,
            num_threads=self.num_threads,
            window_multiplier=self.window_multiplier,
        )
