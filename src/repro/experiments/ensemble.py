"""Process-parallel seed ensembles — tier 2 of the execution engine.

Every quantitative claim in the reproduction is a Monte-Carlo estimate
over independent *seeded* simulator runs, and independent seeds are
embarrassingly parallel: the simulator inside each run stays
single-threaded and deterministic, so farming seeds out to worker
processes changes wall-clock time and nothing else.  This module is the
one place that owns that fan-out:

* :func:`run_ensemble` maps a picklable ``run_one(seed)`` callable over a
  seed list, chunking seeds across a
  :class:`concurrent.futures.ProcessPoolExecutor` and merging results in
  **seed order**, so parallel output is byte-identical to serial output;
* ``jobs=1`` (the default) never touches a pool — experiments remain as
  debuggable as before;
* a grid of ensembles (one per cell) holds one :class:`EnsemblePool`
  for its whole run and passes it as ``pool=``, so workers are forked
  once per grid, not once per cell;
* pool failures degrade gracefully — and *partially*: each chunk is a
  separate future, transient failures (broken pool, dead worker, stalls)
  are retried in the pool with exponential backoff, and only the chunks
  that never produced a result are rerun serially.  A campaign where 15
  of 16 chunks succeeded redoes one chunk, not the whole seed list;
* the run is **durable** (see DESIGN.md §12): pass a
  :class:`~repro.durable.journal.RunJournal` and every completed seed is
  recorded durably the moment its result reaches the driver, so a
  SIGKILL loses at most in-flight work and a resumed call skips finished
  seeds while returning byte-identical results; an
  :class:`~repro.durable.watchdog.EnsembleWatchdog` escalates pool
  stalls (stall → reroute → abandon) and a reroute or abandon kills the
  stalled workers, so the call returns instead of hanging; a
  :class:`~repro.durable.signals.GracefulShutdown` stops the run at the
  next seed boundary with every finished cell journaled.

Workers must be importable module-level callables (or
``functools.partial`` of one) — the experiment drivers define theirs as
``_*_worker`` functions next to their ``run()``.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import time
from contextlib import nullcontext
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.durable.watchdog import ABANDON, REROUTE, EnsembleWatchdog, WatchdogPolicy
from repro.errors import ConfigurationError

T = TypeVar("T")


def backoff_delay(
    base: float,
    attempt: int,
    chunk_index: int = 0,
    seed: Optional[int] = None,
) -> float:
    """Exponential backoff for retry ``attempt`` (1-based), optionally
    with **seeded deterministic jitter**.

    Without a ``seed`` this is the classic ``base * 2**(attempt-1)``.
    With one, the delay is scaled by a factor in ``[0.5, 1.5)`` drawn
    from an :class:`~repro.runtime.rng.RngStream` keyed on
    ``(seed, chunk_index, attempt)`` — so concurrent retries de-sync
    (no thundering herd resubmitting in lockstep) while the schedule of
    sleeps stays a pure function of the run's seed, never of the global
    ``random`` singleton or the wall clock.  Jitter only shapes *when*
    a retry happens; chunk results are pure functions of their seeds,
    so reports stay byte-identical with jitter on or off (pinned in
    ``tests/test_exp_ensemble.py``).
    """
    import numpy as np

    from repro.runtime.rng import RngStream

    delay = base * 2 ** (attempt - 1)
    if seed is None or delay <= 0:
        return delay
    stream = RngStream(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(int(chunk_index), int(attempt))
        )
    )
    return delay * (0.5 + float(stream.uniform(0.0, 1.0)))

#: Exceptions that mean "the pool could not be used", not "the experiment
#: is broken": pickling failures of the callable, fork/spawn failures in
#: restricted environments, and workers dying before returning.  Real
#: errors raised *inside* ``run_one`` propagate unchanged from the serial
#: fallback, which re-raises them deterministically.
POOL_FAILURES = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
    ImportError,
    BrokenProcessPool,
)

#: Pool failures not worth retrying in the pool: if the callable cannot
#: cross the process boundary once, it never will.  (Resubmitting makes
#: sense for transient faults — a worker OOM-killed, a broken pool that
#: respawned — not for serialization errors.)
_NON_RETRYABLE = (pickle.PicklingError, AttributeError, TypeError)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 → serial, ``<= 0`` → one
    worker per available CPU, anything else taken literally."""
    if jobs is None or jobs == 1:
        return 1
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def seed_chunks(seeds: Sequence[int], jobs: int) -> List[List[int]]:
    """Split ``seeds`` into contiguous chunks for ``jobs`` workers.

    Chunks are contiguous (so the seed→result order is trivially
    reconstructible) and there are up to ``4 × jobs`` of them, which
    keeps workers busy even when per-seed run times are skewed — the
    usual case, since adversarial schedules make some seeds hit early
    and others run to the horizon.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    if not seeds:
        return []
    chunk_size = max(1, math.ceil(len(seeds) / (4 * jobs)))
    return [seeds[i : i + chunk_size] for i in range(0, len(seeds), chunk_size)]


class EnsemblePool:
    """One worker pool held across the :func:`run_ensemble` calls of a grid.

    A campaign grid runs one ensemble per cell.  Without a holder each
    call forks, feeds and joins a pool of its own; a holder pays that
    once for the whole grid::

        with EnsemblePool(jobs, len(seeds)) as pool:
            for cell in grid:
                run_ensemble(worker(cell), seeds, jobs=jobs, pool=pool)

    ``seeds`` is the largest seed count one call passes.  The pool starts
    ``min(jobs, seeds)`` workers, which is as many as such a call has
    chunks to run at once (:func:`seed_chunks` makes at least that many).
    The executor is built on entry but forks nothing until the first
    submit, so a grid answered entirely from its journal starts no
    worker.  Workers are forked (the platform default), so they inherit
    the parent's imports and registrations; each freezes that inherited
    heap, which keeps the collection :func:`_run_chunk` runs after every
    chunk cheap.

    A pool that breaks, stalls into a watchdog reroute or abandon, or is
    stopped by a shutdown request is :meth:`discard`-ed; the next call
    gets a fresh one.
    """

    def __init__(self, jobs: Optional[int], seeds: int) -> None:
        #: 1 means no call would pool (``jobs`` 1, or one seed a call).
        self.workers = max(1, min(resolve_jobs(jobs), seeds))
        self._executor: Any = None

    def __enter__(self) -> "EnsemblePool":
        if self.workers > 1:
            try:
                self.executor()
            except POOL_FAILURES:
                pass  # the first submit retries, then degrades to serial
        return self

    def __exit__(self, exc_type: Any, *_exc: Any) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()

    def executor(self) -> Any:
        """The live executor, built on first use after a discard."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=gc.freeze
            )
        return self._executor

    def close(self) -> None:
        """Shut the executor down, waiting for work already handed out."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=True)
            except POOL_FAILURES:
                pass

    def discard(self, executor: Any = None) -> None:
        """Drop the executor now: cancel its queued work, kill its workers.

        With ``executor`` given, only that one is dropped, so a late
        failure from a pool already replaced leaves the fresh one alone.
        Before Python 3.14 the executor has no public call that stops a
        running task, so its process table is the only handle on the
        workers.
        """
        if executor is not None and executor is not self._executor:
            return
        executor, self._executor = self._executor, None
        if executor is None:
            return
        workers = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.kill()
        for process in workers:
            process.join()


def _run_chunk(
    payload: Tuple[Callable[[int], T], List[int], Optional[Tuple[Optional[str], str]]],
) -> List[T]:
    """Worker entry point: run one contiguous seed chunk serially.

    ``anchor`` is ``(parent span id, key scope)`` when causal tracing is
    on: a forked worker's recorder is re-anchored so the chunk's spans
    nest under the span that handed it out and get ids no sibling
    worker mints.  Each simulation leaves its object graph behind as
    cyclic garbage, so the chunk ends with a collection: a worker lives
    for a whole grid and must not carry one chunk's graphs into the next.
    """
    from repro.obs.causal import get_causal_recorder

    run_one, chunk, anchor = payload
    causal = get_causal_recorder() if anchor is not None else None
    with causal.anchored(*anchor) if causal is not None else nullcontext():
        results = [run_one(seed) for seed in chunk]
    gc.collect()
    return results


def _run_chunks_pooled(
    run_one: Callable[[int], T],
    chunks: List[List[int]],
    pool: EnsemblePool,
    chunk_retries: int,
    chunk_timeout: Optional[float],
    backoff_base: float,
    watchdog: Optional[EnsembleWatchdog] = None,
    shutdown: Optional[Any] = None,
    on_chunk: Optional[Callable[[int, List[T]], None]] = None,
    backoff_seed: Optional[int] = None,
    anchor: Optional[Tuple[Optional[str], str]] = None,
) -> List[Optional[List[T]]]:
    """Run chunks as independent futures on ``pool``; never raises pool
    errors.

    Returns one slot per chunk — ``None`` where the pool never produced
    that chunk's result (the caller reruns exactly those serially).
    Transient per-chunk failures are resubmitted up to ``chunk_retries``
    times with exponential backoff; a broken pool is discarded first, so
    the retry runs on fresh workers.  Real errors raised inside
    ``run_one`` (anything outside ``POOL_FAILURES``) leave the chunk
    unfilled too, so the serial rerun re-raises them with a clean
    traceback.

    Stall handling goes through the ``watchdog``: a wait round that
    completes nothing escalates stall → reroute (the pool is discarded,
    killing the stalled workers, and every unfinished chunk is
    resubmitted to a fresh one) → abandon (the pool is discarded and
    unfinished chunks fall back to serial).  When no watchdog is given,
    ``chunk_timeout`` builds the legacy single-strike one (first stall
    abandons).  ``on_chunk`` fires in the parent exactly once per chunk,
    as soon as its result lands — the journaling hook.  ``shutdown``
    (anything with a ``requested`` attribute) is polled between wait
    rounds; once set, the pool is discarded and the caller decides what
    the partial result means.  However this returns or raises, no work
    of this call is left running on ``pool``.
    """
    results: List[Optional[List[T]]] = [None] * len(chunks)
    if watchdog is None and chunk_timeout is not None:
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=chunk_timeout, max_reroutes=0)
        )
    #: future -> (chunk index, the executor it was submitted to)
    in_flight: Dict[Any, Tuple[int, Any]] = {}
    attempts = [0] * len(chunks)
    pool_alive = True

    def submit(index: int) -> bool:
        nonlocal pool_alive
        scoped = None if anchor is None else (anchor[0], f"{anchor[1]}c{index}.")
        try:
            executor = pool.executor()
            future = executor.submit(_run_chunk, (run_one, chunks[index], scoped))
        except POOL_FAILURES:
            pool_alive = False  # cannot build one / broken: serial rerun
            pool.discard()
            return False
        in_flight[future] = (index, executor)
        return True

    def stop_pool() -> None:
        in_flight.clear()
        pool.discard()

    try:
        for index in range(len(chunks)):
            if not submit(index):
                break
        if watchdog is not None:
            watchdog.start()
        while in_flight:
            if shutdown is not None and getattr(shutdown, "requested", False):
                # Safe-point stop: in-flight work is recomputable from
                # seeds; everything completed so far has already been
                # delivered via on_chunk.
                stop_pool()
                break
            timeout = watchdog.wait_timeout() if watchdog is not None else None
            done, _pending = wait(
                tuple(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                if watchdog is None:
                    continue  # pragma: no cover - None timeout blocks
                pending_indexes = sorted(index for index, _ in in_flight.values())
                action = watchdog.on_wait_elapsed(len(pending_indexes))
                if action == REROUTE and pool_alive:
                    # Kill the stalled workers and hand every unfinished
                    # chunk to a fresh pool.
                    stop_pool()
                    for index in pending_indexes:
                        if not submit(index):
                            break
                    if pool_alive:
                        continue
                    action = ABANDON
                if action == ABANDON or not pool_alive:
                    stop_pool()
                    break
                continue  # WAIT: limits not actually hit yet
            if watchdog is not None:
                watchdog.beat()
            for future in done:
                index, executor = in_flight.pop(future)
                try:
                    part = future.result()
                except CancelledError:
                    continue  # queued on a pool since discarded
                except _NON_RETRYABLE:
                    continue  # hopeless in a pool; serial rerun
                except POOL_FAILURES as error:
                    if isinstance(error, BrokenProcessPool):
                        pool.discard(executor)  # the retry gets fresh workers
                    attempts[index] += 1
                    if not pool_alive or attempts[index] > chunk_retries:
                        continue
                    if backoff_base > 0:
                        time.sleep(
                            backoff_delay(
                                backoff_base,
                                attempts[index],
                                chunk_index=index,
                                seed=backoff_seed,
                            )
                        )
                    submit(index)
                    continue
                except Exception:
                    # A real error from run_one: leave the chunk
                    # unfilled so the serial rerun re-raises it with
                    # a clean in-process traceback.
                    continue
                results[index] = part
                if on_chunk is not None:
                    on_chunk(index, part)
    except BaseException:
        stop_pool()
        raise
    return results


def run_ensemble(
    run_one: Callable[[int], T],
    seeds: Sequence[int],
    jobs: Optional[int] = 1,
    chunk_retries: int = 1,
    chunk_timeout: Optional[float] = None,
    backoff_base: float = 0.05,
    journal: Optional[Any] = None,
    namespace: str = "",
    encode: Optional[Callable[[T], Any]] = None,
    decode: Optional[Callable[[Any], T]] = None,
    watchdog: Optional[EnsembleWatchdog] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Callable[[int, T], None]] = None,
    backoff_seed: Optional[int] = None,
    pool: Optional[EnsemblePool] = None,
) -> List[T]:
    """Map ``run_one`` over ``seeds``, optionally across processes.

    Args:
        run_one: Maps one seed to one result.  Must be picklable (a
            module-level function or ``functools.partial`` of one) when
            ``jobs != 1``; results must be picklable too.
        seeds: The ensemble's seeds, in the order results are wanted.
        jobs: Worker processes (see :func:`resolve_jobs`).  ``1`` runs
            serially in-process.
        chunk_retries: In-pool resubmissions per chunk after a transient
            pool failure, before that chunk falls back to serial.
        chunk_timeout: Legacy stall budget: seconds the runner waits for
            *some* chunk to complete before abandoning the pool (used to
            build a single-strike watchdog when ``watchdog`` is not
            given); ``None`` waits forever.
        backoff_base: First retry's backoff sleep in seconds; doubles per
            subsequent retry of the same chunk (exponential backoff).
        journal: Optional :class:`~repro.durable.journal.RunJournal`.
            Seeds already recorded under ``namespace`` are *not* rerun —
            their stored payloads are decoded and returned — and every
            newly finished seed is durably journaled the moment its
            result reaches this process, making the call resumable after
            a SIGKILL with byte-identical output.
        namespace: Journal namespace isolating this ensemble from other
            grids sharing the journal (e.g. ``"0:prob-crash"``).
        encode: Result → JSON-safe payload for the journal (identity by
            default — results must then be JSON-serializable).
        decode: Inverse of ``encode`` (identity by default).  Must
            reproduce the result exactly: decoded and fresh results mix
            in one report, and the byte-identity guarantee spans both.
        watchdog: Optional :class:`~repro.durable.watchdog.
            EnsembleWatchdog` owning the stall → reroute → abandon
            escalation for pooled chunks; its ``findings`` are
            harness-level diagnostics (never part of deterministic
            reports).
        shutdown: Optional :class:`~repro.durable.signals.
            GracefulShutdown` (or anything with ``requested`` and
            ``check()``).  Polled at seed/chunk boundaries; once
            requested, the run stops at the next safe point by raising
            :class:`~repro.errors.InterruptedRunError` — with every
            completed seed already journaled.
        metrics: Optional :class:`repro.obs.registry.MetricsRegistry`.
            The pool is scheduling weather, so its counters
            (``repro_ensemble_*``) are flagged non-deterministic — they
            feed the live view and the Prometheus exposition, never
            byte-identity-checked snapshots.
        progress: Optional ``progress(seed, result)`` callback fired in
            this process exactly once per freshly computed seed, the
            moment its result lands (journal-skipped seeds do not fire).
            This is the live-view hook (``repro top``); it must not
            mutate results.
        backoff_seed: When given, chunk-retry backoff sleeps get seeded
            deterministic jitter via :func:`backoff_delay` (keyed on
            this seed, the chunk index and the attempt number) instead
            of the bare exponential.  Jitter shapes wall-clock only;
            results stay byte-identical for any value.
        pool: Optional :class:`EnsemblePool` held by a grid across its
            calls.  Without one, a pooled call opens a pool for itself
            and closes it before returning.

    Returns:
        Results in seed order — identical, element for element, to
        ``[run_one(s) for s in seeds]`` regardless of ``jobs``, retries,
        fallbacks or how many prior interrupted runs the journal
        already covers.
    """
    from repro.obs.causal import get_causal_recorder
    from repro.obs.registry import live_registry

    seeds = list(seeds)
    jobs = resolve_jobs(jobs)
    registry = live_registry(metrics)
    # Causal tracing (serve tier): per-seed records are deterministic
    # (pure functions of (namespace, seed) with content-derived ids, so
    # the logical stitch is byte-identical across --jobs values and
    # journal resumes); chunk records are harness weather, linked to
    # the enclosing span by a flow arrow.
    causal = get_causal_recorder()
    causal_anchor = causal.current_span() if causal is not None else None
    # Pooled chunks re-anchor a forked worker's recorder under this call
    # (see _run_chunk); the scope numbers calls in order, so worker span
    # ids are unique and the same on every run of the same grid.
    anchor = (
        (causal_anchor, causal.auto_key("ensemble.chunk") + ".")
        if causal is not None
        else None
    )

    def note_causal(seed: int) -> None:
        if causal is not None:
            causal.event(
                "ensemble.seed",
                key=f"{namespace}|{seed}",
                det=True,
                namespace=namespace,
                seed=seed,
            )
    m_completed = m_skipped = None
    if registry is not None:
        m_completed = registry.counter(
            "repro_ensemble_seeds_completed_total",
            "seeds freshly computed by this process",
            deterministic=False,
        )
        m_skipped = registry.counter(
            "repro_ensemble_seeds_journal_skipped_total",
            "seeds restored from the journal instead of rerun",
            deterministic=False,
        )
    done: Dict[int, T] = {}
    if journal is not None:
        wanted = set(seeds)
        for seed, payload in journal.completed(namespace).items():
            if seed in wanted:
                done[seed] = decode(payload) if decode is not None else payload
                # Re-emit the restored seed's causal record: identical
                # id and args as the attempt that computed it, so the
                # logical stitch of a resumed job collapses to the
                # uninterrupted run's bytes.
                note_causal(seed)
                if m_skipped is not None:
                    m_skipped.inc()

    def note(seed: int, result: T) -> None:
        if seed in done:
            return
        done[seed] = result
        if journal is not None:
            journal.record(
                namespace, seed, encode(result) if encode is not None else result
            )
        note_causal(seed)
        if m_completed is not None:
            m_completed.inc()
        if progress is not None:
            progress(seed, result)

    # Duplicate seeds map to one deterministic result; compute each once.
    pending = list(dict.fromkeys(s for s in seeds if s not in done))
    if jobs == 1 or len(pending) <= 1:
        for seed in pending:
            if shutdown is not None:
                shutdown.check()
            note(seed, run_one(seed))
        if causal is not None and pending:
            causal.event(
                "ensemble.chunk",
                key=f"{namespace}|serial",
                flow=causal_anchor,
                namespace=namespace,
                seeds=len(pending),
            )
        return [done[seed] for seed in seeds]

    chunks = seed_chunks(pending, jobs)

    def on_chunk(index: int, part: List[T]) -> None:
        for seed, result in zip(chunks[index], part):
            note(seed, result)
        if causal is not None:
            causal.event(
                "ensemble.chunk",
                key=f"{namespace}|chunk-{index}",
                flow=causal_anchor,
                namespace=namespace,
                chunk=index,
                seeds=len(part),
            )

    with EnsemblePool(jobs, len(pending)) if pool is None else nullcontext(pool) as held:
        parts = _run_chunks_pooled(
            run_one,
            chunks,
            held,
            chunk_retries,
            chunk_timeout,
            backoff_base,
            watchdog=watchdog,
            shutdown=shutdown,
            on_chunk=on_chunk,
            backoff_seed=backoff_seed,
            anchor=anchor,
        )
    if shutdown is not None:
        shutdown.check()
    # Partial-result rerun: only chunks the pool never delivered are
    # recomputed in-process.  Errors from run_one itself surface here,
    # deterministically and with a clean traceback.
    for index, part in enumerate(parts):
        if part is None:
            if registry is not None:
                registry.counter(
                    "repro_ensemble_chunks_serial_rerun_total",
                    "chunks the pool never delivered, rerun in-process",
                    deterministic=False,
                ).inc()
            for seed in chunks[index]:
                if shutdown is not None:
                    shutdown.check()
                note(seed, run_one(seed))
    return [done[seed] for seed in seeds]
