"""Staleness-aware lock-free SGD (Zhang et al., IJCAI'16-style).

The paper's related-work discussion: "There exists significant work on
mitigating the effects of asynchrony in applied settings ... where it may
be possible to examine the 'staleness' of an update immediately before
applying it, and adjust hyperparameters accordingly ... **Our lower bound
applies to these works as well.**"

This module implements that mitigation inside our model so the remark can
be *measured*: before applying its gradient, a thread re-reads the shared
iteration counter (one extra shared-memory step — the observation is not
free in this model) and scales its update by 1/(1 + staleness), where
staleness is how many iterations started since the thread claimed its
own.  The E9 experiment then runs the Theorem 5.1 attack against it: the
damping shrinks each stale update's damage by the promised factor, but —
as the paper asserts — the slowdown remains Ω(τ), because the adversary
simply keeps feeding stale gradients and the *useful* updates get damped
along with the stale ones once the adversary inflates everyone's
staleness.
"""

from __future__ import annotations

from repro.core.algorithm import Algorithm, AlgorithmSetup, register_algorithm
from repro.core.epoch_sgd import SGDProgram
from repro.errors import ConfigurationError
from repro.objectives.base import Objective
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter


class StalenessAwareSGDProgram(SGDProgram):
    """Lock-free SGD that damps updates by their observed staleness.

    One iteration: claim index c via ``C.fetch&add(1)``; read the view;
    compute g̃; **re-read C** (cost: one step) obtaining c'; apply
    −α/(1 + γ·(c' − c − 1))·g̃ entry-wise via fetch&add.  With γ = 0 this
    degenerates to plain Algorithm 1.

    Args:
        model: Shared model X.
        counter: Shared iteration counter C (doubles as the clock the
            staleness estimate is read from).
        objective: Function/oracle to minimize.
        step_size: The base learning rate α.
        max_iterations: Global budget T.
        damping: γ ≥ 0 — staleness sensitivity (1.0 = the canonical
            α/staleness rule).
        record_iterations: Emit IterationRecords (their ``step_size`` is
            the *effective*, damped step size, so accumulator trajectories
            remain exact; their ``sample`` is ``(oracle_sample,
            staleness)``).
    """

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        damping: float = 1.0,
        record_iterations: bool = True,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        if damping < 0:
            raise ConfigurationError(f"damping must be >= 0, got {damping}")
        self.damping = damping

    def observe(self, ctx, state, claimed):
        # The staleness observation: how far has the global iteration
        # counter moved since we claimed ours?  (One genuine step —
        # published as its own phase, because WHEN the adversary lets
        # this step run decides whether the mitigation works: freezing
        # the thread *after* the observation makes the estimate stale
        # itself, which is how the paper's lower bound still applies.)
        ctx.annotate("phase", "observe")
        counter_now = yield self.counter.read_count_op()
        staleness = max(0.0, float(counter_now) - float(claimed) - 1.0)
        ctx.annotate("staleness", staleness)
        state["staleness"] = staleness
        return self.step_size / (1.0 + self.damping * staleness)

    def finish(self, ctx, state, sample):
        return sample, state["staleness"]


@register_algorithm
class StalenessAwareAlgorithm(Algorithm):
    """The staleness-damped mitigation on the zoo seam.  One extra
    counter read per iteration keeps iteration length bounded, so all
    three lemma certificates apply."""

    name = "staleness-aware"
    title = "Staleness-aware: α damped by 1/(1 + γ·staleness)"

    def __init__(self, damping: float = 1.0) -> None:
        self.damping = damping

    def build(self, setup: AlgorithmSetup):
        return [
            StalenessAwareSGDProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                damping=self.damping,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]
