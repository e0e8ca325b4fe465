"""The one-pass record analysis equals the loops it replaced, bit for bit.

The accumulator trajectory, the delay sequence, the Lemma 6.2 window
counts, the τ histogram and the whole ``paper_metrics`` snapshot are
computed with numpy over arrays sorted once.  The record-by-record
loops they replaced are kept below as oracles, and hypothesis draws the
record lists they must agree on: empty lists, single records,
zero-update iterations, rejected adds, records without a gradient, ties
in order time, and timestamps that break the delay sequence's
``end >= order >= read_start`` precondition.
"""

import bisect
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.lemmas import certify_iteration_order
from repro.core.results import accumulator_trajectory
from repro.errors import ConfigurationError
from repro.obs.paper import paper_metrics, tau_histogram_buckets
from repro.obs.registry import TAU_BUCKETS
from repro.runtime.events import IterationRecord
from repro.theory.contention import (
    delay_sequence,
    interval_contention,
    lemma_6_2_violations,
    lemma_6_2_window_counts,
    lemma_6_4_sums,
)

DIM = 3


# ----------------------------------------------------------------------
# Oracles: the loops the numpy versions replaced.
# ----------------------------------------------------------------------
def oracle_trajectory(x0, records):
    x0 = np.asarray(x0, dtype=float)
    trajectory = np.empty((len(records) + 1, x0.size))
    trajectory[0] = x0
    current = x0.copy()
    for t, record in enumerate(records, start=1):
        if record.gradient is not None:
            delta = -record.step_size * record.gradient
            if record.applied is not None:
                delta = delta * np.asarray(record.applied, dtype=float)
            current = current + delta
        trajectory[t] = current
    return trajectory


def oracle_ordered(records):
    return sorted(records, key=lambda r: r.order_time)


def oracle_contention(records):
    intervals = np.array(
        [[r.start_time, r.end_time] for r in oracle_ordered(records)],
        dtype=np.int64,
    ).reshape(-1, 2)
    if intervals.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.sort(intervals[:, 0])
    ends = np.sort(intervals[:, 1])
    started_by_end = np.searchsorted(starts, intervals[:, 1], side="right")
    ended_before_start = np.searchsorted(ends, intervals[:, 0], side="left")
    return started_by_end - ended_before_start - 1


def oracle_delays(records):
    ordered = oracle_ordered(records)
    delays = np.zeros(len(ordered), dtype=np.int64)
    ends_so_far = []
    for t, record in enumerate(ordered):
        bisect.insort(ends_so_far, record.end_time)
        completed_before = bisect.bisect_left(ends_so_far, record.read_start_time)
        delays[t] = (t + 1) - completed_before
    return delays


def _oracle_classify(records, window_multiplier, num_threads, stride):
    """Yield (window_start_rank, bad_count) per window, one numpy pass
    over every record per window."""
    if window_multiplier < 1:
        raise ConfigurationError(
            f"window_multiplier must be >= 1, got {window_multiplier}"
        )
    if num_threads < 1:
        raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
    by_start = sorted(records, key=lambda r: r.start_time)
    total = len(by_start)
    window = window_multiplier * num_threads
    if total < window:
        return
    starts = np.array([r.start_time for r in by_start], dtype=np.int64)
    ends = np.array([r.end_time for r in by_start], dtype=np.int64)
    started_by_end = np.searchsorted(starts, ends, side="right")
    started_by_start = np.searchsorted(starts, starts, side="right")
    is_bad = (started_by_end - started_by_start) > window
    step = stride if stride >= 1 else window
    for left in range(0, total - window + 1, step):
        interval_lo = starts[left]
        interval_hi = starts[left + window - 1]
        completes_inside = (ends >= interval_lo) & (ends <= interval_hi)
        yield left, int(np.count_nonzero(is_bad & completes_inside))


def oracle_window_counts(records, window_multiplier, num_threads, stride=0):
    return [
        count
        for _left, count in _oracle_classify(
            records, window_multiplier, num_threads, stride
        )
    ]


def oracle_violations(records, window_multiplier, num_threads, stride=0):
    return [
        (left, count)
        for left, count in _oracle_classify(
            records, window_multiplier, num_threads, stride
        )
        if count >= num_threads
    ]


def oracle_histogram(delays, buckets=TAU_BUCKETS):
    counts = [0] * (len(buckets) + 1)
    for value in delays:
        for index, bound in enumerate(buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    cumulative = 0
    out = []
    for bound, count in zip(buckets, counts):
        cumulative += count
        label = int(bound) if float(bound).is_integer() else bound
        out.append([label, cumulative])
    out.append(["+Inf", len(delays)])
    return out


def oracle_paper_metrics(records, num_threads, window_multiplier=2):
    """The snapshot as composed before: every quantity recomputed from
    the records by its own function, and each certificate's numbers
    rebuilt the way its certifier built them."""
    delays = oracle_delays(records)
    contention = oracle_contention(records)
    tau_max = int(contention.max()) if contention.size else 0
    threads = len({r.thread_id for r in records})
    counts = oracle_window_counts(records, window_multiplier, num_threads)
    worst_window = max(counts) if counts else 0
    if delays.size:
        n = max(1, threads)
        indicator_bound = float(2.0 * math.sqrt(max(1, tau_max) * n))
        indicator_max = float(lemma_6_4_sums(delays).max())
        indicator_holds = indicator_max <= indicator_bound + 1e-9
    else:
        indicator_bound = indicator_max = 0.0
        indicator_holds = True
    return {
        "iterations": len(records),
        "threads_observed": threads,
        "num_threads": int(num_threads),
        "tau_max": tau_max,
        "tau_avg": float(contention.mean()) if contention.size else 0.0,
        "delay_max": int(delays.max()) if delays.size else 0,
        "tau_histogram": oracle_histogram([int(d) for d in delays]),
        "window": int(window_multiplier * num_threads),
        "window_counts": [int(c) for c in counts],
        "window_bad_max": float(worst_window),
        "window_bound": float(num_threads),
        "lemma_6_2_holds": worst_window < num_threads,
        "indicator_sum_max": indicator_max,
        "indicator_sum_bound": indicator_bound,
        "lemma_6_4_holds": indicator_holds,
        "lemma_6_1_violations": int(certify_iteration_order(records).measured),
    }


# ----------------------------------------------------------------------
# Record lists
# ----------------------------------------------------------------------
signed_zero_or_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-50, max_value=50),
)


@st.composite
def records_strategy(draw, max_count=14):
    """Record lists of every shape the analysis meets, and some it
    should not: with ``consistent`` false, each timestamp is drawn on
    its own, so records may end before they start reading."""
    count = draw(st.integers(min_value=0, max_value=max_count))
    consistent = draw(st.booleans())
    spread = draw(st.sampled_from([3, 8, 40]))  # small spreads tie times
    records = []
    for index in range(count):
        time = st.integers(min_value=0, max_value=spread)
        if consistent:
            start = draw(time)
            read_start = start + draw(st.integers(0, 2))
            read_end = read_start + draw(st.integers(0, 2))
            updates = draw(st.booleans())
            first_update = read_end + 1 + draw(st.integers(0, 2)) if updates else None
            end = (
                first_update + draw(st.integers(0, 3)) if updates else read_end
            )
        else:
            start, read_start, read_end, end = (draw(time) for _ in range(4))
            first_update = draw(st.one_of(st.none(), time))
        gradient = draw(
            st.one_of(
                st.none(),
                st.lists(signed_zero_or_finite, min_size=DIM, max_size=DIM).map(
                    np.array
                ),
            )
        )
        applied = draw(
            st.one_of(st.none(), st.lists(st.booleans(), min_size=DIM, max_size=DIM))
        )
        records.append(
            IterationRecord(
                time=end,
                thread_id=draw(st.integers(0, 3)),
                index=index,
                start_time=start,
                read_start_time=read_start,
                read_end_time=read_end,
                first_update_time=first_update,
                end_time=end,
                gradient=gradient,
                applied=applied,
                step_size=draw(signed_zero_or_finite),
            )
        )
    return records


x0_strategy = st.lists(signed_zero_or_finite, min_size=DIM, max_size=DIM).map(
    np.array
)


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(x0=x0_strategy, records=records_strategy())
def test_trajectory_matches_the_loop_bit_for_bit(x0, records):
    ordered = oracle_ordered(records)
    assert _bits(accumulator_trajectory(x0, ordered)) == _bits(
        oracle_trajectory(x0, ordered)
    )


@settings(max_examples=150, deadline=None)
@given(records=records_strategy())
def test_delays_and_contention_match_the_loops(records):
    assert _bits(delay_sequence(records)) == _bits(oracle_delays(records))
    assert _bits(interval_contention(records)) == _bits(oracle_contention(records))


@settings(max_examples=150, deadline=None)
@given(
    records=records_strategy(),
    window_multiplier=st.integers(0, 3),
    num_threads=st.integers(0, 3),
    stride=st.integers(0, 3),
)
def test_window_counts_and_violations_match_the_loop(
    records, window_multiplier, num_threads, stride
):
    args = (records, window_multiplier, num_threads, stride)
    if window_multiplier < 1 or num_threads < 1:
        with pytest.raises(ConfigurationError):
            lemma_6_2_window_counts(*args)
        with pytest.raises(ConfigurationError):
            lemma_6_2_violations(*args)
        return
    assert lemma_6_2_window_counts(*args) == oracle_window_counts(*args)
    assert lemma_6_2_violations(*args) == oracle_violations(*args)


@settings(max_examples=200, deadline=None)
@given(delays=st.lists(st.integers(0, 1100), max_size=30))
def test_histogram_matches_the_loop(delays):
    assert tau_histogram_buckets(delays) == oracle_histogram(delays)
    assert tau_histogram_buckets(np.array(delays, dtype=np.int64)) == (
        oracle_histogram(delays)
    )


@settings(max_examples=150, deadline=None)
@given(
    records=records_strategy(),
    num_threads=st.integers(1, 4),
    window_multiplier=st.integers(1, 3),
)
def test_paper_metrics_json_matches_the_old_composition(
    records, num_threads, window_multiplier
):
    new = paper_metrics(records, num_threads, window_multiplier=window_multiplier)
    old = oracle_paper_metrics(records, num_threads, window_multiplier)
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


# ----------------------------------------------------------------------
# The two edge cases each numpy version must handle on purpose
# ----------------------------------------------------------------------
def _record(start, read_start, end, first_update=None, gradient=None):
    return IterationRecord(
        time=end,
        thread_id=0,
        start_time=start,
        read_start_time=read_start,
        read_end_time=read_start,
        first_update_time=first_update,
        end_time=end,
        gradient=gradient,
        step_size=0.5,
    )


def test_a_record_without_gradient_keeps_negative_zero():
    # x + (+0.0) would turn x0's -0.0 into +0.0.
    x0 = np.array([-0.0, 1.0, -0.0])
    records = [
        _record(0, 1, 2),
        _record(1, 2, 3, first_update=3, gradient=np.array([0.0, 2.0, 0.0])),
    ]
    trajectory = accumulator_trajectory(x0, records)
    assert _bits(trajectory) == _bits(oracle_trajectory(x0, records))
    assert np.signbit(trajectory[1]).tolist() == [True, False, True]


def test_delays_fall_back_when_an_iteration_ends_before_its_order():
    # The second iteration in the order ends (t=2) before the first one
    # starts reading (t=8): counting every end at once would count it.
    records = [
        _record(7, 8, 10, first_update=10),
        _record(0, 1, 2, first_update=12),
    ]
    assert delay_sequence(records).tolist() == oracle_delays(records).tolist()
    assert delay_sequence(records).tolist() == [1, 2]
