"""The paper's algorithms and baselines.

* :func:`~repro.core.sequential.run_sequential_sgd` — the classic serial
  iteration x_{t+1} = x_t − α·g̃(x_t) (Eq. 1), the yardstick every
  slowdown is measured against.
* :class:`~repro.core.epoch_sgd.SGDProgram` — the one iteration loop
  every lock-free program runs (Algorithm 1, lines 3–8); each variant
  below subclasses it and overrides only the steps it changes.
* :class:`~repro.core.epoch_sgd.EpochSGDProgram` — **Algorithm 1**:
  lock-free SGD over a shared model with per-entry read/fetch&add, plus
  the convenience driver :func:`~repro.core.epoch_sgd.run_lock_free_sgd`.
* :class:`~repro.core.full_sgd.FullSGD` — **Algorithm 2**: epochs with
  halving step size and epoch-isolated updates, converging to any target
  ε under adversarial scheduling (Corollary 7.1).
* Baselines: :class:`~repro.core.hogwild.HogwildProgram` (constant-α
  lock-free), :class:`~repro.core.locked.LockedSGDProgram`
  (coarse-grained lock, Langford et al.) and
  :func:`~repro.core.minibatch.run_minibatch_sgd` (synchronous parallel).
* Mitigations and the consistency ablation:
  :class:`~repro.core.momentum.MomentumSGDProgram`,
  :class:`~repro.core.staleness_aware.StalenessAwareSGDProgram`,
  :class:`~repro.core.leashed.LeashedSGDProgram` (CAS-validated
  updates) and :class:`~repro.core.snapshot_sgd.SnapshotSGDProgram`
  (consistent scans).

Every simulated run is built by
:func:`~repro.core.algorithm.build_zoo_simulation` and run by
:func:`~repro.core.algorithm.simulate`; ``run_algorithm``,
``run_lock_free_sgd``, ``run_snapshot_sgd`` and ``FullSGD.run`` wrap it.
"""

from repro.core.schedules import ConstantRate, EpochHalvingRate, LearningRateSchedule
from repro.core.results import LockFreeRunResult, SequentialRunResult
from repro.core.sequential import run_sequential_sgd
from repro.core.algorithm import (
    LEMMAS,
    Algorithm,
    AlgorithmSetup,
    algorithm_names,
    algorithm_registry,
    build_zoo_simulation,
    get_algorithm,
    register_algorithm,
    run_algorithm,
)
from repro.core.epoch_sgd import (
    EpochSGDAlgorithm,
    EpochSGDProgram,
    SGDProgram,
    run_lock_free_sgd,
)
from repro.core.full_sgd import (
    FullSGD,
    FullSGDAlgorithm,
    FullSGDResult,
    recommended_num_epochs,
)
from repro.core.hogwild import HogwildAlgorithm, HogwildProgram
from repro.core.leashed import LeashedAlgorithm, LeashedSGDProgram
from repro.core.locked import LockedAlgorithm, LockedSGDProgram
from repro.core.minibatch import run_minibatch_sgd
from repro.core.momentum import (
    MomentumAlgorithm,
    MomentumSGDProgram,
    fit_implicit_momentum,
    run_momentum_sgd,
)
from repro.core.staleness_aware import (
    StalenessAwareAlgorithm,
    StalenessAwareSGDProgram,
)
from repro.core.snapshot_sgd import SnapshotSGDProgram, run_snapshot_sgd
from repro.core.averaged import (
    AveragedRunResult,
    classic_average_bound,
    run_averaged_sgd,
)

__all__ = [
    "LEMMAS",
    "Algorithm",
    "AlgorithmSetup",
    "algorithm_names",
    "algorithm_registry",
    "build_zoo_simulation",
    "get_algorithm",
    "register_algorithm",
    "run_algorithm",
    "EpochSGDAlgorithm",
    "FullSGDAlgorithm",
    "HogwildAlgorithm",
    "LeashedAlgorithm",
    "LeashedSGDProgram",
    "LockedAlgorithm",
    "MomentumAlgorithm",
    "StalenessAwareAlgorithm",
    "LearningRateSchedule",
    "ConstantRate",
    "EpochHalvingRate",
    "SequentialRunResult",
    "LockFreeRunResult",
    "run_sequential_sgd",
    "SGDProgram",
    "EpochSGDProgram",
    "run_lock_free_sgd",
    "FullSGD",
    "FullSGDResult",
    "recommended_num_epochs",
    "HogwildProgram",
    "LockedSGDProgram",
    "run_minibatch_sgd",
    "run_momentum_sgd",
    "MomentumSGDProgram",
    "fit_implicit_momentum",
    "StalenessAwareSGDProgram",
    "SnapshotSGDProgram",
    "run_snapshot_sgd",
    "run_averaged_sgd",
    "AveragedRunResult",
    "classic_average_bound",
]
