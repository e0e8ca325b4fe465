"""Algorithm 1 — lock-free SGD in shared memory — and the one loop every
lock-free variant runs.

Each thread repeatedly: (1) claims an iteration with ``C.fetch&add(1)``
and stops once the count reaches T; (2) reads the shared model X entry by
entry into a (possibly inconsistent) view v_θ; (3) computes the
stochastic gradient g̃_θ at v_θ; (4) applies each non-zero component with
``X[j].fetch&add(−α·g̃_θ[j])``.  Per the paper, fetch&add (rather than
write) is what prevents a delayed thread from obliterating everyone
else's progress; the ``use_write`` flag exists purely to demonstrate that
failure mode in the ablation benchmark.

:class:`SGDProgram` is that iteration, written once.  Every variant in
:mod:`repro.core` (and the verify mutants) subclasses it and overrides
only the steps it changes — the claim, the scan, the update direction,
a staleness observation, the per-component update, a lock around the
iteration — while the loop keeps the budget check, the annotations
adaptive adversaries read (see :mod:`repro.sched.adaptive`), the update
bookkeeping and the one :class:`~repro.runtime.events.IterationRecord`
per completed iteration — the raw material of the contention and
convergence analyses.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm import (
    Algorithm,
    AlgorithmSetup,
    register_algorithm,
    simulate,
)
from repro.core.results import LockFreeRunResult
from repro.errors import ConfigurationError
from repro.objectives.base import Objective
from repro.runtime.events import IterationRecord
from repro.runtime.program import Program, ThreadContext
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.ops import DoubleCompareSingleSwap, FetchAdd
from repro.shm.register import AtomicRegister


class SGDProgram(Program):
    """One thread's SGD loop: Algorithm 1's iteration until C reaches T.

    Args:
        model: The shared parameter array X[d].
        counter: The shared iteration counter C.
        objective: Function/oracle being minimized.
        step_size: The learning rate α.
        max_iterations: T — the counter value at which threads return.
        record_iterations: Emit an IterationRecord per iteration
            (disable only for throughput micro-benchmarks).

    A variant overrides the hooks below, each ``None`` here; where a
    class leaves one ``None`` the loop runs Algorithm 1's own step
    inline, so plain Algorithm 1 pays for no hook.  Hooks that take
    steps are sub-generators.  Every hook but ``plan`` gets the thread's
    context and the run's ``state`` dict, which starts with each name in
    :attr:`counters` at 0 and may hold the variant's other per-run
    values: per-run state never lives on the program, because one
    program object can back several threads (a crash respawn reruns it).

    * ``claim(ctx, state)`` → ``(claimed, start_time)``: take the
      iteration index, in place of ``C.fetch&add(1)``;
    * ``plan(claimed)`` → ``(epoch, step_size, accumulate)`` for the
      claimed iteration (default: :attr:`epoch`, :attr:`step_size`,
      :attr:`accumulate`);
    * ``begin(ctx, state, epoch)``: steps after the budget check and
      before the scan;
    * ``scan(ctx, state)`` → view, in place of the entry-wise reads (its
      read starts when the hook is called);
    * ``direction(ctx, state, gradient)`` → the direction to apply in
      place of the drawn gradient;
    * ``observe(ctx, state, claimed)`` → the step size this iteration
      applies, after the gradient is drawn;
    * ``apply(ctx, state, view, j, delta, epoch)`` → whether the update
      of X[j] by ``delta`` landed, in place of ``X[j].fetch&add(delta)``;
      ``None`` means it was dropped before touching X, and records no
      update time;
    * ``end(ctx, state)``: steps after the update, before the iteration
      counts as done;
    * ``finish(ctx, state, sample)`` → the record's ``sample``.

    The thread returns ``{"iterations", "accumulator"}`` plus each
    counter; the accumulator sums −α·g̃ over the iterations that
    ``accumulate``.
    """

    #: Per-run counters a variant keeps in ``state`` and returns.
    counters: Tuple[str, ...] = ()
    #: Epoch tag of every iteration, when no ``plan`` sets one.
    epoch = 0
    #: Whether every iteration adds −α·g̃ to the returned accumulator.
    accumulate = False
    claim: Optional[Callable] = None
    plan: Optional[Callable] = None
    begin: Optional[Callable] = None
    scan: Optional[Callable] = None
    direction: Optional[Callable] = None
    observe: Optional[Callable] = None
    apply: Optional[Callable] = None
    end: Optional[Callable] = None
    finish: Optional[Callable] = None

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        record_iterations: bool = True,
    ) -> None:
        if step_size <= 0:
            raise ConfigurationError(f"step_size must be > 0, got {step_size}")
        if max_iterations < 0:
            raise ConfigurationError(
                f"max_iterations must be >= 0, got {max_iterations}"
            )
        if model.length != objective.dim:
            raise ConfigurationError(
                f"model has {model.length} entries but objective.dim is "
                f"{objective.dim}"
            )
        self.model = model
        self.counter = counter
        self.objective = objective
        self.step_size = step_size
        self.max_iterations = max_iterations
        self.record_iterations = record_iterations

    def run(self, ctx: ThreadContext):
        model, objective = self.model, self.objective
        # Per step, the loop reads the clock's counter and writes the
        # annotations dict directly: ``ctx.now`` is two nested property
        # calls and ``ctx.annotate`` one method call.
        clock, annotations = ctx.clock, ctx.annotations
        dim = model.length
        claim, plan, begin, scan = self.claim, self.plan, self.begin, self.scan
        direction, observe, apply = self.direction, self.observe, self.apply
        end, finish = self.end, self.finish
        epoch, step_size, accumulate = self.epoch, self.step_size, self.accumulate
        # Descriptors are immutable, so the inline claim and scan yield
        # the same instances every iteration, and the inline update
        # builds its fetch&add from the entry's address.
        if claim is None:
            claim_op = self.counter.increment_op()
        if scan is None:
            reads = tuple(model.read_op(j) for j in range(dim))
        if apply is None:
            base = model.base
        state = dict.fromkeys(self.counters, 0)
        accumulator = np.zeros(dim)
        iterations_done = 0
        annotations["iterations_done"] = 0

        while True:
            # Line 3: claim an iteration; return once T are claimed.
            annotations["phase"] = "start"
            if claim is None:
                claimed = yield claim_op
                start_time = clock._now - 1
            else:
                claimed, start_time = yield from claim(ctx, state)
            if claimed >= self.max_iterations:
                break
            if plan is not None:
                epoch, step_size, accumulate = plan(claimed)
            if begin is not None:
                yield from begin(ctx, state, epoch)

            # Line 4: scan the model entry by entry (the inconsistent view).
            annotations["phase"] = "read"
            if scan is None:
                view = np.empty(dim)
                read_start = -1
                for j in range(dim):
                    view[j] = yield reads[j]
                    if j == 0:
                        read_start = clock._now - 1
            else:
                read_start = clock._now
                view = yield from scan(ctx, state)
            read_end = clock._now - 1

            # Line 5: local computation — draw the coin, evaluate the oracle.
            gradient, sample = objective.stochastic_gradient(view, ctx.rng)
            if direction is not None:
                gradient = direction(ctx, state, gradient)
            annotations["pending_gradient"] = gradient
            annotations["view"] = view
            annotations["sample"] = sample
            if observe is not None:
                step_size = yield from observe(ctx, state, claimed)

            # Lines 6-7: apply the non-zero components.
            annotations["phase"] = "update"
            applied = [False] * dim
            update_times: list = [None] * dim
            first_update: Optional[int] = None
            last_time = read_end
            for j in range(dim):
                component = gradient[j]
                if component == 0.0:
                    continue
                delta = -step_size * component
                if apply is None:
                    yield FetchAdd(base + j, delta)
                    landed = True
                else:
                    landed = yield from apply(ctx, state, view, j, delta, epoch)
                last_time = clock._now - 1
                if landed is not None:
                    if first_update is None:
                        first_update = last_time
                    applied[j] = landed
                    update_times[j] = last_time
            annotations["pending_gradient"] = None
            if end is not None:
                yield from end(ctx, state)

            if accumulate:
                accumulator -= step_size * gradient
            iterations_done += 1
            annotations["iterations_done"] = iterations_done
            if finish is not None:
                sample = finish(ctx, state, sample)
            if self.record_iterations:
                ctx.emit(
                    IterationRecord(
                        time=last_time,
                        thread_id=ctx.thread_id,
                        index=int(claimed),
                        epoch=epoch,
                        start_time=start_time,
                        read_start_time=read_start,
                        read_end_time=read_end,
                        first_update_time=first_update,
                        end_time=last_time,
                        view=view,
                        gradient=gradient,
                        applied=applied,
                        update_times=update_times,
                        step_size=step_size,
                        sample=sample,
                    )
                )

        annotations["phase"] = "done"
        result = {"iterations": iterations_done, "accumulator": accumulator}
        for name in self.counters:
            result[name] = state[name]
        return result


class EpochSGDProgram(SGDProgram):
    """One thread's Algorithm-1 loop (procedure ``EpochSGD(T, α)``).

    Args:
        model: The shared parameter array X[d].
        counter: The shared iteration counter C.
        objective: Function/oracle being minimized.
        step_size: The (epoch-constant) learning rate α.
        max_iterations: T — the counter value at which threads return.
        epoch: Epoch tag recorded on iteration records (Algorithm 2 sets
            this; plain Algorithm-1 runs leave it 0).
        guard: Optional epoch register; when given, every model update is
            an epoch-guarded fetch&add that only lands while the register
            still equals ``epoch`` (Algorithm 2's isolation rule).
        accumulate: Collect this thread's generated updates (−α·g̃ summed
            over its iterations) and return them — Algorithm 2's final
            epoch accumulator Acc[i].
        record_iterations: Emit an IterationRecord per iteration
            (disable only for throughput micro-benchmarks).
        use_write: ABLATION ONLY — apply updates with plain ``write`` of
            ``view[j] − α·g̃[j]`` instead of fetch&add, reproducing the
            lost-update catastrophe the paper warns about.
        use_dcas_loop: Guarded updates as the paper's literal
            construction, a read-then-DCAS retry loop per component
            ("maintaining an epoch counter, on which threads condition
            their update via double-compare-single-swap"), instead of
            the atomic
            :class:`~repro.shm.ops.GuardedFetchAdd` (one step per
            component).  Same semantics; every retry is a scheduled
            step, so use it when step counts must reflect the DCAS cost.
    """

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        epoch: int = 0,
        guard: Optional[AtomicRegister] = None,
        accumulate: bool = False,
        record_iterations: bool = True,
        use_write: bool = False,
        use_dcas_loop: bool = False,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        self.epoch = epoch
        self.guard = guard
        self.accumulate = accumulate
        self.use_write = use_write
        self.use_dcas_loop = use_dcas_loop

    @property
    def apply(self):
        """The per-component update: the write ablation, a guarded add
        or DCAS loop under a guard, else ``None`` (fetch&add inline)."""
        if self.use_write:
            return self._write
        if self.guard is None:
            return None
        return self._dcas_loop if self.use_dcas_loop else self._guarded_add

    def _write(self, ctx, state, view, j, delta, epoch):
        # The lost-update hazard on purpose: X[j] := view[j] + delta.
        yield self.model.write_op(j, view[j] + delta)
        return True

    def _guarded_add(self, ctx, state, view, j, delta, epoch):
        landed, _ = yield self.model.guarded_fetch_add_op(
            j, delta, self.guard, float(epoch)
        )
        return landed

    def _dcas_loop(self, ctx, state, view, j, delta, epoch):
        # Re-read the entry, then atomically swap it to current+delta iff
        # the epoch guard still matches AND the entry is unchanged.  A
        # CAS failure on the entry retries; a guard mismatch rejects the
        # update (stale update discarded, as Algorithm 2 requires), so
        # the loop terminates under every schedule.
        model, guard, guard_value = self.model, self.guard, float(epoch)
        while True:  # repro: allow(RPL105)
            guard_now = yield guard.read_op()
            if guard_now != guard_value:
                return False
            current = yield model.read_op(j)
            swapped = yield DoubleCompareSingleSwap(
                address=model.address_of(j),
                expected=current,
                new=current + delta,
                guard_address=guard.address,
                guard_expected=guard_value,
            )
            if swapped:
                return True


@register_algorithm
class EpochSGDAlgorithm(Algorithm):
    """Algorithm 1 on the zoo seam: per-entry read / fetch&add, constant
    α, no epoch machinery.  All three lemma certificates apply."""

    name = "epoch-sgd"
    title = "Algorithm 1: lock-free SGD (per-entry fetch&add)"
    #: ABLATION ONLY (see :class:`EpochSGDProgram`); set by LockFreeSGD.
    use_write = False

    def build(self, setup: AlgorithmSetup):
        return [
            EpochSGDProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                record_iterations=setup.record_iterations,
                use_write=self.use_write,
            )
            for _ in range(setup.num_threads)
        ]


class LockFreeSGD(EpochSGDAlgorithm):
    """Algorithm 1, or a ``program_factory``'s programs, as an
    *unregistered* algorithm (threads ``worker-<i>``, no zoo cell): what
    :func:`run_lock_free_sgd` and the chaos and sanitize workers run.
    ``use_write`` is the lost-update ablation."""

    name = ""

    def __init__(
        self,
        program_factory: Optional[Callable[..., Program]] = None,
        use_write: bool = False,
    ) -> None:
        self.program_factory = program_factory
        self.use_write = use_write

    def build(self, setup: AlgorithmSetup):
        if self.program_factory is None:
            return super().build(setup)
        return [
            self.program_factory(
                model=setup.model, counter=setup.counter, thread_index=index
            )
            for index in range(setup.num_threads)
        ]


def run_lock_free_sgd(
    objective: Objective,
    scheduler,
    num_threads: int,
    step_size: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    epsilon: Optional[float] = None,
    program_factory: Optional[Callable[..., Program]] = None,
    stop_epsilon: Optional[float] = None,
    analyzers: Sequence = (),
    metrics=None,
) -> LockFreeRunResult:
    """Run Algorithm 1 with ``num_threads`` threads until quiescence.

    Runs :class:`LockFreeSGD` through
    :func:`repro.core.algorithm.simulate`: the shared model X
    (initialized to ``x0``) and iteration counter C are allocated, the
    threads run to completion under ``scheduler``, and the
    analysis-ready result is assembled (accumulator trajectory x_t in
    the first-update total order, success-region hitting time,
    per-thread iteration counts).

    Args:
        objective: Function/oracle to minimize.
        scheduler: Any :class:`~repro.sched.base.Scheduler` — the
            adversary of this execution.
        num_threads: n.
        step_size: The constant learning rate α.
        iterations: Global iteration budget T (shared via the counter).
        x0: Initial model (defaults to the origin).
        seed: Root seed; thread coins derive from it.
        epsilon: Optional success radius² for hitting-time accounting.
        program_factory: Override the per-thread program — receives the
            keyword arguments ``model``, ``counter``, and the thread index
            as ``thread_index`` and must return a
            :class:`~repro.runtime.program.Program` (how E9, E10 and A1
            run a variant with settings its registered algorithm does
            not take).
        stop_epsilon: Optional early-stop radius²: end the simulation as
            soon as the *shared model snapshot* enters that region
            (hitting-time experiments that don't need the post-hit tail).
            Threads are abandoned mid-iteration; records of completed
            iterations remain valid.
        analyzers: Optional :class:`repro.runtime.simulator.Analyzer`
            instances to attach.  Drives the run through
            :meth:`Simulator.run_analyzed` (same schedule; analyzers
            drain between chunks), with the memory log on when one
            ``requires_log``.  Incompatible with ``stop_epsilon``.
        metrics: Optional :class:`repro.obs.registry.MetricsRegistry`.
            Attached to the simulator (bulk ``repro_sim_*`` counters) and
            fed the run's paper-aligned snapshot (τ histogram, window
            counts, lemma indicators) via
            :func:`repro.obs.paper.publish_paper_metrics` at the end.
            ``None`` costs nothing.

    Returns:
        A :class:`~repro.core.results.LockFreeRunResult`.
    """
    from repro.obs.causal import trace_span

    with trace_span(
        "epoch_sgd.run", threads=num_threads, iterations=iterations, seed=seed
    ):
        result, _sim = simulate(
            LockFreeSGD(program_factory), objective, scheduler, num_threads,
            step_size, iterations, x0=x0, seed=seed, epsilon=epsilon,
            analyzers=analyzers, metrics=metrics, stop_epsilon=stop_epsilon,
        )
    return result
