"""Coarse-grained locked SGD (Langford et al., "Slow learners are fast").

The pre-Hogwild approach the paper's introduction recalls: keep the
process consistent with a sequential execution by wrapping every
iteration in a global lock.  The lock is a CAS spinlock on a shared
register; a thread that loses the race keeps spending shared-memory
steps retrying, which is exactly the "significant loss of performance"
the paper attributes to coarse-grained locking — visible in our traces
as wasted steps and in the benchmarks as a larger step count for the
same iteration budget.

Views under the lock are always consistent, so this baseline also serves
as a correctness oracle: its accumulator trajectory must match a
sequential run's distribution.
"""

from __future__ import annotations

from repro.core.algorithm import Algorithm, AlgorithmSetup, register_algorithm
from repro.core.epoch_sgd import SGDProgram
from repro.objectives.base import Objective
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.register import AtomicRegister


class LockedSGDProgram(SGDProgram):
    """One thread's lock-protected SGD loop: each claimed iteration runs
    under the global lock, released once its update is applied.

    Args:
        model: Shared model X.
        counter: Shared iteration counter C.
        lock: The shared lock register (0 = free, 1 = held); allocate one
            register and hand it to every thread.
        objective: Function/oracle to minimize.
        step_size: Learning rate α.
        max_iterations: Global iteration budget T.
        record_iterations: Emit per-iteration records.
    """

    counters = ("spin_steps",)

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        lock: AtomicRegister,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        record_iterations: bool = True,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        self.lock = lock

    def begin(self, ctx, state, epoch):
        # Acquire the global lock (CAS spinlock).  A thread that lost the
        # race publishes ``blocked`` so phase-parking adversaries
        # (contention-max, stale-attack) know scheduling it cannot make
        # progress — without this they would spin the waiters forever
        # while starving the parked lock holder.
        ctx.annotate("phase", "lock")
        # Intentional unbounded spin: a lock-based baseline waits as long
        # as the adversary starves the holder (the point of the variant).
        # Not enumerable by `repro verify` at any scope.
        while True:  # repro: allow(RPL105)
            acquired = yield self.lock.cas_op(0.0, 1.0)
            if acquired:
                break
            state["spin_steps"] += 1
            ctx.annotate("blocked", True)
        ctx.annotate("blocked", False)

    def end(self, ctx, state):
        yield self.lock.write_op(0.0)


@register_algorithm
class LockedAlgorithm(Algorithm):
    """The lock-based baseline on the zoo seam.  Allocates the shared
    lock register and hands it to every thread.  Spinlock acquisition
    retries make iteration length unbounded under contention, so the
    window lemmas (6.2/6.4) are N/A; the 6.1 total order still holds."""

    name = "locked"
    title = "Locked: coarse-grained CAS-spinlock SGD (Langford et al.)"
    lemmas = ("6.1",)

    def build(self, setup: AlgorithmSetup):
        lock_slot = setup.memory.allocate(1, name="zoo_lock", initial=0.0)
        lock = AtomicRegister(setup.memory, lock_slot)
        return [
            LockedSGDProgram(
                model=setup.model,
                counter=setup.counter,
                lock=lock,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]
