"""Algorithm 1 — lock-free SGD in shared memory.

Each thread repeatedly: (1) claims an iteration with ``C.fetch&add(1)``
and stops once the count reaches T; (2) reads the shared model X entry by
entry into a (possibly inconsistent) view v_θ; (3) computes the
stochastic gradient g̃_θ at v_θ; (4) applies each non-zero component with
``X[j].fetch&add(−α·g̃_θ[j])``.  Per the paper, fetch&add (rather than
write) is what prevents a delayed thread from obliterating everyone
else's progress; the ``use_write`` flag exists purely to demonstrate that
failure mode in the ablation benchmark.

The iteration body is exposed as the sub-generator
:func:`sgd_iteration_body` so Algorithm 2 (:mod:`repro.core.full_sgd`)
can run the identical iteration with per-epoch step sizes and epoch
guards.  Programs publish their phase, drawn sample and pending gradient
via annotations (the adaptive-adversary window, see
:mod:`repro.sched.adaptive`) and emit one
:class:`~repro.runtime.events.IterationRecord` per completed iteration —
the raw material of the contention and convergence analyses.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

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
from repro.shm.ops import DoubleCompareSingleSwap
from repro.shm.register import AtomicRegister


def sgd_iteration_body(
    ctx: ThreadContext,
    model: AtomicArray,
    objective: Objective,
    step_size: float,
    claimed_index: int,
    epoch: int,
    start_time: int,
    guard: Optional[AtomicRegister] = None,
    guard_value: float = 0.0,
    use_write: bool = False,
    use_dcas_loop: bool = False,
):
    """One SGD iteration (lines 4–8 of Algorithm 1), as a sub-generator.

    Drive with ``record = yield from sgd_iteration_body(...)``; the
    returned :class:`IterationRecord` describes the completed iteration.
    The caller has already claimed the iteration via the counter (line 3)
    and passes the claimed index and the time of that fetch&add.

    Guarded updates come in two implementations with identical semantics:

    * ``use_dcas_loop=False`` (default) — the atomic
      :class:`~repro.shm.ops.GuardedFetchAdd` primitive (one step per
      component);
    * ``use_dcas_loop=True`` — the paper's literal construction: a
      read-then-DCAS retry loop per component ("maintaining an epoch
      counter, on which threads condition their update via
      double-compare-single-swap").  Costs extra steps under contention
      (every retry is a scheduled step), which is exactly the fidelity
      difference — use it when step counts must reflect the DCAS cost.
      The loop gives up (update rejected) as soon as the guard no longer
      matches, mirroring the guarded fetch&add's rejection.
    """
    dim = model.length

    # Line 4: scan the model entry by entry (the inconsistent view).
    ctx.annotate("phase", "read")
    view = np.empty(dim)
    read_start = -1
    for j in range(dim):
        view[j] = yield model.read_op(j)
        if j == 0:
            read_start = ctx.now - 1
    read_end = ctx.now - 1

    # Line 5: local computation — draw the coin, evaluate the oracle.
    gradient, sample = objective.stochastic_gradient(view, ctx.rng)
    ctx.annotate("pending_gradient", gradient)
    ctx.annotate("view", view)
    ctx.annotate("sample", sample)

    # Lines 6-7: apply non-zero components via fetch&add.
    ctx.annotate("phase", "update")
    applied: List[bool] = [False] * dim
    update_times: List[Optional[int]] = [None] * dim
    first_update: Optional[int] = None
    last_time = read_end
    for j in range(dim):
        component = gradient[j]
        if component == 0.0:
            continue
        delta = -step_size * component
        if use_write:
            yield model.write_op(j, view[j] + delta)  # repro: allow(RPL101)
            landed = True
        elif guard is not None and use_dcas_loop:
            # Literal read-then-DCAS retry loop: re-read the entry, then
            # atomically swap it to current+delta iff the epoch guard
            # still matches AND the entry is unchanged.  A CAS-failure on
            # the entry retries; a guard mismatch aborts (stale update
            # discarded, as Algorithm 2 requires).
            landed = False
            # Terminates under every schedule: a DCSS failure means the
            # entry or the guard changed, and the guard path breaks out.
            while True:  # repro: allow(RPL105)
                guard_now = yield guard.read_op()
                if guard_now != guard_value:
                    break
                current = yield model.read_op(j)
                swapped = yield DoubleCompareSingleSwap(
                    address=model.address_of(j),
                    expected=current,
                    new=current + delta,
                    guard_address=guard.address,
                    guard_expected=guard_value,
                )
                if swapped:
                    landed = True
                    break
        elif guard is not None:
            landed, _ = yield model.guarded_fetch_add_op(
                j, delta, guard, guard_value
            )
        else:
            yield model.fetch_add_op(j, delta)
            landed = True
        op_time = ctx.now - 1
        if first_update is None:
            first_update = op_time
        last_time = op_time
        applied[j] = landed
        update_times[j] = op_time

    ctx.annotate("pending_gradient", None)
    return IterationRecord(
        time=last_time,
        thread_id=ctx.thread_id,
        index=claimed_index,
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


class EpochSGDProgram(Program):
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

    All per-run state lives inside :meth:`run`, so one program object
    can back a respawned thread (crash recovery reuses it).
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
        self.epoch = epoch
        self.guard = guard
        self.accumulate = accumulate
        self.record_iterations = record_iterations
        self.use_write = use_write
        self.use_dcas_loop = use_dcas_loop

    def run(self, ctx: ThreadContext):
        accumulator = np.zeros(self.model.length)
        iterations_done = 0
        ctx.annotate("iterations_done", 0)

        while True:
            ctx.annotate("phase", "start")
            claimed = yield self.counter.increment_op()
            if claimed >= self.max_iterations:
                break
            record = yield from sgd_iteration_body(
                ctx,
                self.model,
                self.objective,
                self.step_size,
                int(claimed),
                self.epoch,
                start_time=ctx.now - 1,
                guard=self.guard,
                guard_value=float(self.epoch),
                use_write=self.use_write,
                use_dcas_loop=self.use_dcas_loop,
            )
            if self.accumulate:
                accumulator -= self.step_size * record.gradient
            iterations_done += 1
            ctx.annotate("iterations_done", iterations_done)
            if self.record_iterations:
                ctx.emit(record)

        ctx.annotate("phase", "done")
        return {"iterations": iterations_done, "accumulator": accumulator}


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
            :class:`~repro.runtime.program.Program` (how the Hogwild and
            locked baselines plug in).
        stop_epsilon: Optional early-stop radius²: end the simulation as
            soon as the *shared model snapshot* enters that region
            (hitting-time experiments that don't need the post-hit tail).
            Threads are abandoned mid-iteration; records of completed
            iterations remain valid.
        analyzers: Optional :class:`repro.analysis.sanitizer.Analyzer`
            instances to attach.  Forces the memory log on and drives the
            run through :meth:`Simulator.run_analyzed` (same schedule;
            analyzers drain the log between chunks).  Incompatible with
            ``stop_epsilon``.
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
