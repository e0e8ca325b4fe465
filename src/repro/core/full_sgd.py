"""Algorithm 2 — FullSGD: epoch doubling with guaranteed convergence.

Algorithm 1 eventually *visits* the success region, but adversarial stale
updates can push the model back out.  Algorithm 2 fixes this by running a
series of epochs of T iterations each, halving the learning rate between
epochs, and — critically — requiring that "a gradient update can only be
applied to X in the same epoch when it was generated".  We enforce that
isolation the way the paper suggests: a shared epoch counter, with every
model update conditioned on it via a double-compare-single-swap-style
guarded fetch&add.  A stale cross-epoch gradient finds the counter moved
on and is discarded.

Epoch accounting is lock-free too: the global iteration counter C keeps
counting across epochs, iteration ``c`` belongs to epoch ``c // T``
(when the budget does not divide evenly, the first epochs take one
iteration more), and threads ratchet the epoch register forward with CAS when they claim an
iteration of a later epoch.  Threads never block; a thread holding an
iteration of an already-passed epoch simply has its updates rejected by
the guard.

In the final epoch threads additionally accumulate their generated
updates locally (the paper's ``Acc[i]``); the result ``r`` is the shared
model at quiescence, and the accumulators are returned for inspection
(Corollary 7.1's proof bounds the gap between the two by α·n·M).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.algorithm import (
    Algorithm,
    AlgorithmSetup,
    register_algorithm,
    simulate,
)
from repro.core.epoch_sgd import EpochSGDProgram
from repro.core.schedules import EpochHalvingRate, LearningRateSchedule
from repro.errors import ConfigurationError
from repro.objectives.base import Objective
from repro.runtime.events import EpochEvent, IterationRecord
from repro.runtime.simulator import Analyzer
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.register import AtomicRegister


def recommended_num_epochs(
    alpha0: float, gradient_bound: float, num_threads: int, epsilon: float
) -> int:
    """The epoch count Algorithm 2 prescribes: ``log(α·2·M·n/√ε)``
    halving epochs plus the final accumulation epoch.

    Derived from the Corollary 7.1 proof: the final epoch must satisfy
    α_final·n·M ≤ √ε/2, and halving from α₀ needs
    ⌈log₂(2·α₀·n·M/√ε)⌉ epochs to get there.
    """
    if alpha0 <= 0 or gradient_bound <= 0 or num_threads < 1 or epsilon <= 0:
        raise ConfigurationError(
            "alpha0, gradient_bound, epsilon must be > 0 and num_threads >= 1"
        )
    target = 2.0 * alpha0 * gradient_bound * num_threads / math.sqrt(epsilon)
    halvings = max(0, math.ceil(math.log2(max(target, 1.0))))
    return halvings + 1


class FullSGDThreadProgram(EpochSGDProgram):
    """One thread's Algorithm-2 loop: Algorithm 1's iteration, where the
    claimed index's epoch sets the step size, the update guard and
    whether the iteration accumulates (final epoch only).

    Args:
        model: Shared model X.
        counter: Global iteration counter C (counts across epochs).
        epoch_register: Shared epoch counter guarding every update.
        objective: Function/oracle to minimize.
        schedule: Epoch -> α map (Algorithm 2 uses halving).
        iterations_per_epoch: T, each epoch's length unless
            ``max_iterations`` gives another budget.
        num_epochs: Total epochs including the final accumulation epoch.
        record_iterations: Emit IterationRecords.
        use_guard: ABLATION ONLY — when False, updates are plain
            fetch&adds with no epoch isolation, so stale cross-epoch
            gradients (generated under a larger α) land in later epochs;
            the paper's design forbids exactly this.
        use_dcas_loop: Guard updates with the literal read-then-DCAS
            loop (see :class:`~repro.core.epoch_sgd.EpochSGDProgram`).
        max_iterations: The global budget, split over the epochs with
            the first ``max_iterations mod num_epochs`` one iteration
            longer; default ``iterations_per_epoch * num_epochs``.
    """

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        epoch_register: AtomicRegister,
        objective: Objective,
        schedule: LearningRateSchedule,
        iterations_per_epoch: int,
        num_epochs: int,
        record_iterations: bool = True,
        use_guard: bool = True,
        use_dcas_loop: bool = False,
        max_iterations: Optional[int] = None,
    ) -> None:
        if iterations_per_epoch < 1:
            raise ConfigurationError(
                f"iterations_per_epoch must be >= 1, got {iterations_per_epoch}"
            )
        if num_epochs < 1:
            raise ConfigurationError(f"num_epochs must be >= 1, got {num_epochs}")
        if max_iterations is None:
            max_iterations = iterations_per_epoch * num_epochs
        super().__init__(
            model, counter, objective, schedule.rate(0), max_iterations,
            guard=epoch_register if use_guard else None,
            record_iterations=record_iterations,
            use_dcas_loop=use_dcas_loop,
        )
        self.epoch_register = epoch_register
        self.schedule = schedule
        self.iterations_per_epoch = iterations_per_epoch
        self.num_epochs = num_epochs
        self.use_guard = use_guard
        shortest, longer = divmod(max_iterations, num_epochs)
        #: Claimed count at which each epoch ends.
        self.epoch_ends = tuple(
            itertools.accumulate(
                shortest + (epoch < longer) for epoch in range(num_epochs)
            )
        )

    def plan(self, claimed):
        epoch = bisect.bisect_right(self.epoch_ends, claimed)
        return epoch, self.schedule.rate(epoch), epoch == self.num_epochs - 1

    def begin(self, ctx, state, epoch):
        # Ratchet the shared epoch register up to this iteration's epoch
        # (lock-free: CAS k -> k+1 until it catches up).  The register is
        # monotone, so every retry round some thread has advanced it —
        # the loop runs at most ``epoch`` rounds.
        while True:  # repro: allow(RPL105)
            current = yield self.epoch_register.read_op()
            if current >= epoch:
                break
            advanced = yield self.epoch_register.cas_op(
                float(current), float(current + 1)
            )
            if advanced:
                ctx.emit(
                    EpochEvent(
                        time=ctx.now - 1,
                        thread_id=ctx.thread_id,
                        epoch=int(current + 1),
                        learning_rate=self.schedule.rate(int(current + 1)),
                        kind="start",
                    )
                )


@register_algorithm
class FullSGDAlgorithm(Algorithm):
    """Algorithm 2 on the zoo seam: the global budget T is split into
    ``num_epochs`` halving-rate epochs (the first ``T mod num_epochs``
    one iteration longer), updates epoch-guarded through the shared
    epoch register the adapter allocates.  Guarded fetch&adds keep
    iteration length bounded, so all three lemma certificates apply
    (rejected stale updates still order by their first attempt)."""

    name = "full-sgd"
    title = "Algorithm 2: epoch-halving SGD with epoch-guarded updates"
    segment = "zoo_epoch"  # the epoch register's memory segment
    #: ABLATIONS ONLY (see :class:`FullSGDThreadProgram`); set by FullSGD.
    use_guard = True
    use_dcas_loop = False

    def __init__(self, num_epochs: int = 2) -> None:
        if num_epochs < 1:
            raise ConfigurationError(
                f"num_epochs must be >= 1, got {num_epochs}"
            )
        self.num_epochs = num_epochs

    def build(self, setup: AlgorithmSetup):
        epoch_slot = setup.memory.allocate(1, name=self.segment, initial=0.0)
        epoch_register = AtomicRegister(setup.memory, epoch_slot)
        schedule = EpochHalvingRate(setup.step_size)
        return [
            FullSGDThreadProgram(
                model=setup.model,
                counter=setup.counter,
                epoch_register=epoch_register,
                objective=setup.objective,
                schedule=schedule,
                iterations_per_epoch=max(1, setup.iterations // self.num_epochs),
                num_epochs=self.num_epochs,
                record_iterations=setup.record_iterations,
                use_guard=self.use_guard,
                use_dcas_loop=self.use_dcas_loop,
                max_iterations=setup.iterations,
            )
            for _ in range(setup.num_threads)
        ]


class EpochCheckpoints(Analyzer):
    """``FullSGD.run``'s ``checkpoint_hook`` as an analyzer that needs no
    memory log.

    A chunk boundary is the only place the engine is paused, so cuts
    are consistent by construction; :meth:`drain` hands the hook a
    :class:`~repro.durable.checkpoint.Checkpoint` when the ``epoch``
    register advanced during the last chunk (once per epoch observed,
    even if several epochs elapsed inside one chunk).
    """

    requires_log = False

    def __init__(self, hook: Callable) -> None:
        super().__init__()
        self.hook = hook
        self.address = -1
        self.last_epoch = 0

    def on_attach(self, sim) -> None:
        self.address = sim.memory.segment("epoch").base
        self.last_epoch = int(sim.memory.peek(self.address))

    def drain(self, sim) -> None:
        epoch = int(sim.memory.peek(self.address))
        if epoch > self.last_epoch:
            from repro.durable.checkpoint import Checkpoint
            from repro.obs.causal import trace_span

            self.last_epoch = epoch
            with trace_span("full_sgd.checkpoint", epoch=epoch):
                self.hook(epoch, Checkpoint.capture(sim, label=f"epoch-{epoch}"))


@dataclass
class FullSGDResult:
    """Outcome of a FullSGD (Algorithm 2) run.

    Attributes:
        r: The returned minimizer estimate (shared model at quiescence).
        x0: Initial model.
        distance: ‖r − x*‖.
        epsilon: The target ε the run was configured for.
        num_epochs: Epochs executed (including the accumulation epoch).
        step_sizes: α per epoch.
        records: All iteration records in the first-update total order.
        distances: Accumulator-trajectory distances ‖x_t − x*‖ (only
            counting updates that landed; rejected stale updates excluded).
        rejected_updates: Number of gradient components discarded by the
            epoch guard over the whole run.
        accumulators: Final-epoch local accumulators Acc[i] per thread.
        sim_steps: Shared-memory steps consumed.
    """

    r: np.ndarray
    x0: np.ndarray
    distance: float
    epsilon: float
    num_epochs: int
    step_sizes: List[float]
    records: List[IterationRecord]
    distances: np.ndarray
    rejected_updates: int
    accumulators: Dict[int, np.ndarray]
    sim_steps: int

    @property
    def achieved_target(self) -> bool:
        """Whether ‖r − x*‖² ≤ ε."""
        return self.distance**2 <= self.epsilon

    @property
    def total_iterations(self) -> int:
        return len(self.records)


class FullSGD(FullSGDAlgorithm):
    """Driver for Algorithm 2.

    Also an *unregistered* ``full-sgd``: its empty ``name`` makes the
    threads ``worker-<i>`` and its register segment is ``epoch`` (the
    layout restored checkpoints expect).

    Args:
        objective: Function/oracle to minimize.
        num_threads: n.
        epsilon: Target: E‖r − x*‖ within √ε of the optimum
            (success region of radius² ε).
        alpha0: Initial learning rate α₀.
        iterations_per_epoch: T (per the paper, chosen so one epoch
            succeeds with good probability — see
            :func:`repro.theory.bounds.corollary_6_7_failure_bound`).
        num_epochs: Override the epoch count; default
            :func:`recommended_num_epochs` with M from the objective.
        x0: Initial model (defaults to the origin).

    Usage::

        driver = FullSGD(objective, num_threads=4, epsilon=0.01,
                         alpha0=0.05, iterations_per_epoch=400)
        result = driver.run(RandomScheduler(seed=1), seed=1)
    """

    name = ""
    segment = "epoch"

    def __init__(
        self,
        objective: Objective,
        num_threads: int,
        epsilon: float,
        alpha0: float,
        iterations_per_epoch: int,
        num_epochs: Optional[int] = None,
        x0: Optional[np.ndarray] = None,
        use_guard: bool = True,
        use_dcas_loop: bool = False,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
        if iterations_per_epoch < 1:
            raise ConfigurationError(
                f"iterations_per_epoch must be >= 1, got {iterations_per_epoch}"
            )
        self.objective = objective
        self.num_threads = num_threads
        self.epsilon = epsilon
        self.alpha0 = alpha0
        self.iterations_per_epoch = iterations_per_epoch
        self.x0 = (
            np.zeros(objective.dim)
            if x0 is None
            else np.asarray(x0, dtype=float).copy()
        )
        if num_epochs is None:
            radius = max(1.0, 2.0 * objective.distance_to_opt(self.x0))
            gradient_bound = math.sqrt(objective.second_moment_bound(radius))
            num_epochs = recommended_num_epochs(
                alpha0, gradient_bound, num_threads, epsilon
            )
        super().__init__(num_epochs)
        self.schedule = EpochHalvingRate(alpha0)
        self.use_guard = use_guard
        self.use_dcas_loop = use_dcas_loop

    def run(
        self,
        scheduler,
        seed: int = 0,
        analyzers: Sequence = (),
        checkpoint_hook: Optional[Callable] = None,
        checkpoint_chunk: int = 256,
        metrics=None,
    ) -> FullSGDResult:
        """Execute all epochs under ``scheduler`` and return the result.

        ``analyzers`` optionally attaches
        :class:`repro.runtime.simulator.Analyzer` instances: the run is
        driven through :meth:`Simulator.run_analyzed` (same schedule,
        same result), with the memory log on when one ``requires_log``.

        ``checkpoint_hook(epoch, checkpoint)`` makes the run durable:
        the scheduler is wrapped in a :class:`~repro.sched.replay.
        RecordingScheduler` (so every cut carries its decision prefix)
        and an :class:`EpochCheckpoints` analyzer joins the run, which
        :meth:`Simulator.run_analyzed` pauses every ``checkpoint_chunk``
        steps; whenever a pause reveals the shared epoch register has
        advanced, the hook receives a :class:`~repro.durable.checkpoint.
        Checkpoint` of the cut — restorable via prefix replay, with the
        replay itself certifying determinism.  Chunking and recording
        are invisible to programs: the schedule, memory effects and
        result are identical to an unhooked run.

        ``metrics`` optionally attaches a
        :class:`repro.obs.registry.MetricsRegistry` (simulator bulk
        counters, an epochs-completed gauge, and the run's paper-aligned
        snapshot at the end); the whole run executes under a
        ``full_sgd.run`` span when a
        :class:`repro.obs.causal.CausalRecorder` is installed.
        """
        if checkpoint_chunk < 1:
            raise ConfigurationError(
                f"checkpoint_chunk must be >= 1, got {checkpoint_chunk}"
            )
        if checkpoint_hook is not None:
            from repro.sched.replay import RecordingScheduler

            scheduler = RecordingScheduler(scheduler)
            analyzers = (*analyzers, EpochCheckpoints(checkpoint_hook))
        from repro.obs.causal import trace_span

        with trace_span(
            "full_sgd.run", threads=self.num_threads, epochs=self.num_epochs
        ):
            run, sim = simulate(
                self, self.objective, scheduler, self.num_threads, self.alpha0,
                self.iterations_per_epoch * self.num_epochs, x0=self.x0,
                seed=seed, analyzers=analyzers, metrics=metrics,
                chunk=checkpoint_chunk,
            )
        if sim.metrics is not None:
            sim.metrics.gauge(
                "repro_sgd_epochs_total", "epochs completed by the run"
            ).set(self.num_epochs)
        rejected = sum(
            1
            for record in run.records
            if record.applied is not None and record.gradient is not None
            for j, landed in enumerate(record.applied)
            if not landed and record.gradient[j] != 0.0
        )
        return FullSGDResult(
            r=run.x_final,
            x0=self.x0,
            distance=self.objective.distance_to_opt(run.x_final),
            epsilon=self.epsilon,
            num_epochs=self.num_epochs,
            step_sizes=[self.schedule.rate(e) for e in range(self.num_epochs)],
            records=run.records,
            distances=run.distances,
            rejected_updates=rejected,
            accumulators={
                tid: payload["accumulator"]
                for tid, payload in sim.results().items()
                if isinstance(payload, dict)
            },
            sim_steps=run.sim_steps,
        )
