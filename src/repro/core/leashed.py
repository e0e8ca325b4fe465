"""Leashed-style CAS-consistent lock-free SGD (Bäckström et al., 2021).

Algorithm 1 applies gradient components with ``fetch&add``, which always
lands — a delayed thread's stale contribution is merely *added* to
whatever is there.  The consistency-focused family of lock-free SGD
(Leashed-SGD and the ProxASAGA-style ``atomic<double>`` update loops it
generalizes) instead applies each component with a **validate-then-CAS
retry loop**: read the current entry, attempt
``CAS(entry, current, current + δ)``, and retry on failure.  The landed
value is therefore always derived from an entry the thread actually
observed — no blind additive interleaving — at the price of retry steps
that grow with contention.

In the paper's cost model every retry is a scheduled shared-memory step,
so this program makes the consistency/throughput trade-off *measurable*:
under the contention-maximizing adversary the CAS failure count (and
with it the per-iteration step count) inflates, which is exactly why the
paper's Lemma 6.2/6.4 window arguments — premised on iterations of
bounded length — do not transfer to this variant (the zoo report records
them as N/A; Lemma 6.1's total order still applies since iterations are
claimed from the same counter and ordered by first landed CAS).
"""

from __future__ import annotations

from repro.core.algorithm import Algorithm, AlgorithmSetup, register_algorithm
from repro.core.epoch_sgd import SGDProgram
from repro.objectives.base import Objective
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter


class LeashedSGDProgram(SGDProgram):
    """One thread's CAS-consistent SGD loop.

    One iteration: claim index c via ``C.fetch&add(1)``; read the view
    entry by entry; compute g̃; then for every non-zero component j run
    the validate-then-CAS loop — ``current = read X[j]``;
    ``CAS(X[j], current, current − α·g̃[j])``; retry while the CAS fails
    (each failure costs two further steps: the re-read and the re-CAS).
    ``max_cas_retries`` bounds the loop; on exhaustion the component is
    dropped (recorded as not applied, with no update time), mirroring
    Leashed-SGD's bounded persistence rather than unbounded obstruction.

    Args:
        model: Shared model X.
        counter: Shared iteration counter C.
        objective: Function/oracle to minimize.
        step_size: Learning rate α.
        max_iterations: Global iteration budget T.
        max_cas_retries: Failed-CAS budget per component before the
            update is dropped (``-1`` retries forever; safe only under
            schedulers that cannot starve a CAS loop).
        record_iterations: Emit IterationRecords (their ``sample`` field
            carries ``(oracle_sample, cas_failures_this_iteration)``).
    """

    counters = ("cas_failures", "dropped_components")

    def __init__(
        self,
        model: AtomicArray,
        counter: AtomicCounter,
        objective: Objective,
        step_size: float,
        max_iterations: int,
        max_cas_retries: int = 16,
        record_iterations: bool = True,
    ) -> None:
        super().__init__(
            model, counter, objective, step_size, max_iterations,
            record_iterations,
        )
        self.max_cas_retries = max_cas_retries

    def apply(self, ctx, state, view, j, delta, epoch):
        failures = 0
        landed = None
        while True:
            current = yield self.model.read_op(j)
            swapped = yield self.model.register(j).cas_op(current, current + delta)
            if swapped:
                landed = True
                break
            failures += 1
            if 0 <= self.max_cas_retries <= failures:
                state["dropped_components"] += 1
                break
        state["failures"] = state.get("failures", 0) + failures
        return landed

    def finish(self, ctx, state, sample):
        failures = state.pop("failures", 0)
        state["cas_failures"] += failures
        ctx.annotate("cas_failures", state["cas_failures"])
        return sample, failures


@register_algorithm
class LeashedAlgorithm(Algorithm):
    """The CAS-consistent variant on the zoo seam.  Retry loops make
    iteration length contention-dependent (unbounded in the worst case),
    so the window lemmas (6.2/6.4) are N/A; 6.1's total order over the
    claimed indices still holds."""

    name = "leashed"
    title = "Leashed: CAS-validated consistent lock-free SGD"
    lemmas = ("6.1",)

    def __init__(self, max_cas_retries: int = 16) -> None:
        self.max_cas_retries = max_cas_retries

    def build(self, setup: AlgorithmSetup):
        return [
            LeashedSGDProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                max_cas_retries=self.max_cas_retries,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]
