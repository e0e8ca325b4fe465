"""Contention analytics over execution traces.

Everything Section 6.1 defines, measured from the
:class:`~repro.runtime.events.IterationRecord` stream of a run:

* the total order on iterations by first model update (Lemma 6.1);
* interval contention ρ(θ) — the number of iterations executing
  concurrently with θ — and its extremes τ_max and τ_avg (with the
  Gibson–Gramoli sanity bound τ_avg ≤ 2n);
* the per-iteration delay sequence τ_t (how many recent iterations'
  updates the view v_t may be missing);
* Lemma 6.2's good/bad-iteration structure and Lemma 6.4's indicator
  sums Σ_m 1{τ_{t+m} ≥ m} ≤ 2√(τ_max·n) — the combinatorial facts the
  upper bound stands on, checked against real schedules.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.events import IterationRecord


class TraceTimes:
    """The timestamps the Section 6.1 quantities read, sorted once.

    Each attribute is an int64 array with one entry per iteration, in
    the paper's total order (first model update; ties keep the input
    order, as a stable sort does): ``order``, ``start``, ``end`` and
    ``read_start``.  ``sorted_start`` and ``sorted_end`` hold the start
    and end times ascending.
    One run's analysis (:func:`repro.obs.paper.paper_metrics`) builds
    one of these and derives every quantity from it, instead of
    sorting the records once per quantity.
    """

    def __init__(self, records: Sequence[IterationRecord]) -> None:
        order = np.array([r.order_time for r in records], dtype=np.int64)
        by_order = np.argsort(order, kind="stable")
        self.order = order[by_order]
        self.start = np.array(
            [r.start_time for r in records], dtype=np.int64
        )[by_order]
        self.end = np.array([r.end_time for r in records], dtype=np.int64)[by_order]
        self.read_start = np.array(
            [r.read_start_time for r in records], dtype=np.int64
        )[by_order]
        self.sorted_start = np.sort(self.start)
        self.sorted_end = np.sort(self.end)

    def contention(self) -> np.ndarray:
        """ρ(θ) per iteration (see :func:`interval_contention`)."""
        started_by_end = np.searchsorted(self.sorted_start, self.end, side="right")
        ended_before_start = np.searchsorted(
            self.sorted_end, self.start, side="left"
        )
        return started_by_end - ended_before_start - 1  # exclude θ itself

    def delays(self) -> np.ndarray:
        """τ_t per iteration (see :func:`delay_sequence`).

        τ_t counts, among the first t+1 iterations, those ending at or
        after iteration t's read start.  When every iteration has
        ``end >= order >= read_start``, no iteration later in the order
        can end before an earlier one starts reading, so the count may
        run over every iteration at once.  A trace breaking that
        condition takes the incremental loop.
        """
        count = self.order.size
        if np.all(self.end >= self.order) and np.all(self.order >= self.read_start):
            completed_before = np.searchsorted(
                self.sorted_end, self.read_start, side="left"
            )
            return np.arange(1, count + 1, dtype=np.int64) - completed_before
        delays = np.zeros(count, dtype=np.int64)
        ends_so_far: List[int] = []  # kept sorted
        for t, (end, read_start) in enumerate(
            zip(self.end.tolist(), self.read_start.tolist())
        ):
            bisect.insort(ends_so_far, end)
            delays[t] = (t + 1) - bisect.bisect_left(ends_so_far, read_start)
        return delays

    def window_counts(
        self, window_multiplier: int, num_threads: int, stride: int = 0
    ) -> List[int]:
        """Lemma 6.2's per-window bad counts (see
        :func:`lemma_6_2_window_counts`)."""
        if window_multiplier < 1:
            raise ConfigurationError(
                f"window_multiplier must be >= 1, got {window_multiplier}"
            )
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        starts = self.sorted_start
        total = starts.size
        window = window_multiplier * num_threads
        if total < window:
            return []
        # bad(θ): #starts strictly inside (θ.start, θ.end] exceeds K·n.
        started_by_end = np.searchsorted(starts, self.end, side="right")
        started_by_start = np.searchsorted(starts, self.start, side="right")
        is_bad = (started_by_end - started_by_start) > window
        bad_ends = np.sort(self.end[is_bad])
        # A window covers the start times of its K·n consecutive starts;
        # count the bad iterations completing inside that interval.
        lefts = np.arange(0, total - window + 1, stride if stride >= 1 else window)
        counts = np.searchsorted(
            bad_ends, starts[lefts + window - 1], side="right"
        ) - np.searchsorted(bad_ends, starts[lefts], side="left")
        return counts.tolist()


def iteration_intervals(
    records: Sequence[IterationRecord],
) -> np.ndarray:
    """(start_time, end_time) per iteration, sorted by the total order.

    Returns an array of shape (N, 2).
    """
    times = TraceTimes(records)
    return np.stack((times.start, times.end), axis=1)


def interval_contention(records: Sequence[IterationRecord]) -> np.ndarray:
    """ρ(θ) for every iteration: how many *other* iterations' [start, end]
    intervals intersect θ's.  Sorted by the total order.

    Computed in O(N log N) with sorted-boundary binary searches: the
    iterations overlapping θ are exactly those that start no later than
    θ ends and end no earlier than θ starts.
    """
    return TraceTimes(records).contention()


def tau_max(records: Sequence[IterationRecord]) -> int:
    """The maximum interval contention over all iterations (the paper's
    τ_max).  Zero for empty or single-iteration traces."""
    contention = interval_contention(records)
    return int(contention.max()) if contention.size else 0


def tau_avg(records: Sequence[IterationRecord]) -> float:
    """The average interval contention (the paper's τ_avg; always ≤ 2n by
    Gibson–Gramoli).  Zero for empty traces."""
    contention = interval_contention(records)
    return float(contention.mean()) if contention.size else 0.0


def thread_count(records: Sequence[IterationRecord]) -> int:
    """Number of distinct threads that completed iterations."""
    return len({r.thread_id for r in records})


def delay_sequence(records: Sequence[IterationRecord]) -> np.ndarray:
    """The per-iteration delay τ_t, in the total order.

    τ_t counts the iterations k ≤ t (in the total order) whose last model
    update had not yet landed when iteration t began reading its view —
    i.e. the iterations whose updates v_t may be missing.  τ_t ≥ 1 always
    (an iteration never sees its own update), matching the paper's
    convention that v_t misses updates "from only the last τ_t
    iterations".
    """
    return TraceTimes(records).delays()


def lemma_6_2_violations(
    records: Sequence[IterationRecord],
    window_multiplier: int,
    num_threads: int,
    stride: int = 0,
) -> List[Tuple[int, int]]:
    """Check Lemma 6.2 on a real trace.

    For every window of K·n consecutive iteration *starts* (K =
    ``window_multiplier``), count the iterations that are *bad* — more
    than K·n iterations start between their start and end — and that
    complete during the window's time interval.  The lemma says that
    count is < n for every window.

    Returns:
        A list of (window_start_rank, bad_count) pairs for windows where
        bad_count ≥ n.  An empty list means the lemma held everywhere.
    """
    counts = lemma_6_2_window_counts(
        records, window_multiplier, num_threads, stride=stride
    )
    step = stride if stride >= 1 else window_multiplier * num_threads
    return [
        (index * step, count)
        for index, count in enumerate(counts)
        if count >= num_threads
    ]


def max_incomplete_iterations(records: Sequence[IterationRecord]) -> int:
    """Lemma 6.1's second claim, measured: the maximum, over points in
    the execution, of the number of iterations that have performed their
    first model update but not yet their last.

    The lemma bounds this by n (each thread has at most one iteration in
    flight).  An iteration is *incomplete* on the half-open interval
    [first_update_time, end_time); zero-update iterations are never
    incomplete.
    """
    events = []  # (time, +1/-1)
    for record in records:
        if record.first_update_time is None:
            continue
        if record.end_time > record.first_update_time:
            events.append((record.first_update_time, 1))
            events.append((record.end_time, -1))
    # Process completions before starts at equal times (half-open).
    events.sort(key=lambda e: (e[0], e[1]))
    current = 0
    worst = 0
    for _time, delta in events:
        current += delta
        worst = max(worst, current)
    return worst


def lemma_6_2_window_counts(
    records: Sequence[IterationRecord],
    window_multiplier: int,
    num_threads: int,
    stride: int = 0,
) -> List[int]:
    """Per-window bad-iteration counts (Lemma 6.2's raw measurements).

    Same classification as :func:`lemma_6_2_violations`, but returns the
    bad count of *every* window checked, in start-order — the live
    contention telemetry (``repro.obs``) streams exactly this list, and
    :func:`lemma_6_2_max_bad` reduces it to the certified extremes.

    Returns an empty list when the trace is too short for even one
    window.
    """
    return TraceTimes(records).window_counts(
        window_multiplier, num_threads, stride=stride
    )


def lemma_6_2_max_bad(
    records: Sequence[IterationRecord],
    window_multiplier: int,
    num_threads: int,
    stride: int = 0,
) -> Tuple[int, int]:
    """The worst window's bad-iteration count, plus the window count.

    Same classification as :func:`lemma_6_2_violations` but reports the
    maximum observed bad count (the lemma says it stays < n) so tables
    can show the measured margin, not just pass/fail.

    Returns:
        (max_bad_count, windows_checked); (0, 0) when the trace is too
        short for even one window.
    """
    counts = lemma_6_2_window_counts(
        records, window_multiplier, num_threads, stride=stride
    )
    if not counts:
        return 0, 0
    return max(counts), len(counts)


def lemma_6_4_sums(delays: np.ndarray) -> np.ndarray:
    """S_t = Σ_{m≥1} 1{τ_{t+m} ≥ m} for every position t.

    The sum naturally truncates at the end of the trace and, because
    τ ≤ τ_max, at m = τ_max.  Lemma 6.4 bounds every S_t by 2√(τ_max·n).
    """
    delays = np.asarray(delays, dtype=np.int64)
    total = delays.size
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    horizon = int(delays.max())
    sums = np.zeros(total, dtype=np.int64)
    for m in range(1, horizon + 1):
        # positions t with t+m < total contribute 1{delays[t+m] >= m}.
        indicator = delays[m:] >= m
        sums[: total - m] += indicator
    return sums


def lemma_6_4_bound(records: Sequence[IterationRecord]) -> Tuple[float, float]:
    """Measured max Σ_m 1{τ_{t+m} ≥ m} versus the 2√(τ_max·n) bound.

    Returns:
        (max_sum, bound) — the lemma predicts max_sum ≤ bound.
    """
    times = TraceTimes(records)
    delays = times.delays()
    if delays.size == 0:
        return 0.0, 0.0
    sums = lemma_6_4_sums(delays)
    measured_tau_max = int(times.contention().max())
    n = max(1, thread_count(records))
    bound = 2.0 * math.sqrt(max(measured_tau_max, 1) * n)
    return float(sums.max()), bound
