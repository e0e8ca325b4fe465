"""Seeded sanitizer mutants — ground truth for oracle agreement.

The enumerator proves universal statements; the sanitizer samples.  To
pin the sanitizer's *recall*, the verify grid includes deliberately
broken algorithm variants whose bug manifests only under some
interleavings: at enumerable scope the enumerator must find a concrete
counterexample schedule for each, and the sanitizer/certifiers must
flag that same schedule (they are the per-schedule checkers), otherwise
either the enumeration or the dynamic analysis lost a bug class.

The mutants live in a registry local to this module — they are *not*
:func:`repro.core.algorithm.register_algorithm`-registered, because the
zoo grid and CI treat the global registry as "every variant must
certify clean" and these exist to fail.

* ``mutant-torn-counter`` — Algorithm 1 with the counter's
  ``fetch&add`` torn into a read followed by a write.  Two threads that
  read before either writes claim the same iteration index: a duplicate
  the Lemma 6.1 certifier (and the sanitizer's iteration-order check)
  reports, plus a lost update on the counter cell itself (RS001).
* ``mutant-lost-update`` — Algorithm 1 with plain writes in place of
  the per-entry fetch&add (the paper's lost-update catastrophe; the
  existing ``use_write`` ablation).  A schedule interleaving another
  thread's write between a read and the dependent write drops an
  update: the sanitizer's vector-clock tracker reports RS001.  Both
  threads must run an iteration concurrently for the race to exist, so
  this variant asks for an iteration budget of at least 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.algorithm import Algorithm, AlgorithmSetup
from repro.core.epoch_sgd import EpochSGDProgram
from repro.errors import ConfigurationError


class TornCounterProgram(EpochSGDProgram):
    """Algorithm 1 with the iteration-counter fetch&add torn in two.

    The claim step reads C and then writes C+1 as two separate shared
    memory operations.  Sequential schedules are indistinguishable from
    the correct program; any schedule that interleaves another thread's
    read between the two duplicates an iteration index.
    """

    def claim(self, ctx, state):
        claimed = yield self.counter.read_count_op()
        if claimed < self.max_iterations:
            # The torn second half of the claim: a plain write computed
            # from the stale read above.  This is the seeded bug.
            yield self.counter.write_op(float(claimed + 1))  # repro: allow(RPL101)
        return claimed, ctx.now - 2


class TornCounterAlgorithm(Algorithm):
    """Zoo-shaped wrapper so the verify grid can build the mutant with
    :func:`repro.core.algorithm.build_zoo_simulation`."""

    name = "mutant-torn-counter"
    title = "MUTANT: Algorithm 1 with a torn (read;write) counter claim"

    def build(self, setup: AlgorithmSetup):
        return [
            TornCounterProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                record_iterations=setup.record_iterations,
            )
            for _ in range(setup.num_threads)
        ]


class LostUpdateAlgorithm(Algorithm):
    """Algorithm 1 with plain-write model updates (``use_write=True``)."""

    name = "mutant-lost-update"
    title = "MUTANT: Algorithm 1 with plain-write model updates"

    def build(self, setup: AlgorithmSetup):
        return [
            EpochSGDProgram(
                model=setup.model,
                counter=setup.counter,
                objective=setup.objective,
                step_size=setup.step_size,
                max_iterations=setup.iterations,
                record_iterations=setup.record_iterations,
                use_write=True,
            )
            for _ in range(setup.num_threads)
        ]


@dataclass(frozen=True)
class MutantSpec:
    """A seeded-bug variant plus the scope it needs to express the bug."""

    algorithm: Algorithm
    #: Iteration budget override — ``None`` keeps the grid's scope.  The
    #: lost-update race needs two concurrent iterations to exist at all.
    min_iterations: Optional[int] = None


_MUTANTS: Dict[str, MutantSpec] = {
    TornCounterAlgorithm.name: MutantSpec(algorithm=TornCounterAlgorithm()),
    LostUpdateAlgorithm.name: MutantSpec(
        algorithm=LostUpdateAlgorithm(), min_iterations=2
    ),
}


def mutant_names() -> Tuple[str, ...]:
    """Registered mutant variants, sorted."""
    return tuple(sorted(_MUTANTS))


def get_mutant(name: str) -> MutantSpec:
    """Look up a mutant spec by name."""
    spec = _MUTANTS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown mutant: {name!r} (choose from {', '.join(mutant_names())})"
        )
    return spec
