"""The ``Algorithm`` abstraction — one seam for the async-SGD zoo.

Every variant in :mod:`repro.core` is ultimately the same shape: given a
shared model X, a shared iteration counter C and an objective, emit one
program-DSL generator per thread.  This module makes that shape a
first-class interface so the zoo stops being five one-off files:

* :class:`AlgorithmSetup` — the shared state every variant starts from
  (the memory, the model, the counter, the workload knobs).  Variants
  that need *extra* shared state (a lock register, an epoch register)
  allocate it from ``setup.memory`` inside :meth:`Algorithm.build`.
* :class:`Algorithm` — the interface: ``build(setup)`` returns the
  per-thread :class:`~repro.runtime.program.Program` objects.  Class
  attributes declare the registry ``name``, a human ``title`` and which
  of the paper's lemma certificates (:data:`LEMMAS`) structurally apply
  to the variant — the zoo report certifies those and records explicit
  N/A for the rest.
* a name-keyed registry (:func:`register_algorithm`,
  :func:`algorithm_registry`, :func:`get_algorithm`) mirroring the
  scheduler registry in :mod:`repro.sched.registry`, so experiment
  configs, CLI flags and journal fingerprints address algorithms by
  stable names.
* :func:`build_zoo_simulation`, which builds every simulation, and
  :func:`simulate`, the only run path (run, then assemble the
  :class:`~repro.core.results.LockFreeRunResult`).  :func:`run_algorithm`
  and the other run entry points are thin wrappers over it.

Lemma applicability, in brief: Lemma 6.1 (iterations are totally
ordered by first landed update, with unique counter indices) holds for
every variant that claims via ``C.fetch&add``.  Lemmas 6.2 and 6.4
additionally require iterations of *bounded step count* — true for the
fetch&add family (epoch-sgd, full-sgd, hogwild, momentum,
staleness-aware), false for variants whose update loops can retry
unboundedly under contention (locked's spinlock, leashed's CAS loop),
so those two are N/A there.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.results import LockFreeRunResult, accumulator_trajectory
from repro.errors import ConfigurationError
from repro.objectives.base import Objective
from repro.runtime.events import IterationRecord
from repro.runtime.policy import TraceConfig
from repro.runtime.program import Program
from repro.runtime.simulator import Simulator
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory

#: The lemma certificates the analysis layer can check (see
#: :mod:`repro.analysis.lemmas`): iteration total order, window
#: contention, indicator sums.
LEMMAS: Tuple[str, ...] = ("6.1", "6.2", "6.4")


@dataclass
class AlgorithmSetup:
    """Everything an algorithm needs to emit its per-thread programs.

    Attributes:
        memory: The run's shared memory — algorithms allocate any extra
            shared state (locks, epoch registers) from it.
        model: The shared parameter array X, already initialized to x0.
        counter: The shared iteration counter C.
        objective: Function/oracle being minimized.
        step_size: The base learning rate α.
        iterations: Global iteration budget T.
        num_threads: n — ``build`` must return exactly this many programs.
        record_iterations: Whether programs should emit
            :class:`~repro.runtime.events.IterationRecord` events
            (disable only for throughput micro-benchmarks).
    """

    memory: SharedMemory
    model: AtomicArray
    counter: AtomicCounter
    objective: Objective
    step_size: float
    iterations: int
    num_threads: int
    record_iterations: bool = True


class Algorithm(abc.ABC):
    """An asynchronous SGD variant, expressed as program-DSL emission.

    Subclasses set :attr:`name` (the registry key), :attr:`title` (one
    human line for reports) and :attr:`lemmas` (the subset of
    :data:`LEMMAS` whose certificates structurally apply), and implement
    :meth:`build`.  Constructor parameters are the variant's
    hyper-parameters and must all carry defaults so the registry can
    default-construct every algorithm for grids and benchmarks.
    """

    #: Registry key (unique, stable — journal fingerprints contain it).
    name: ClassVar[str] = ""
    #: One-line description for report headers.
    title: ClassVar[str] = ""
    #: Which lemma certificates apply; the rest are reported N/A.
    lemmas: ClassVar[Tuple[str, ...]] = LEMMAS

    @abc.abstractmethod
    def build(self, setup: AlgorithmSetup) -> List[Program]:
        """One :class:`Program` per thread, given the shared state."""

    def lemma_applicability(self) -> Dict[str, bool]:
        """``lemma -> applies`` over every known lemma, N/A rows included."""
        return {lemma: lemma in self.lemmas for lemma in LEMMAS}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Algorithm]] = {}


def register_algorithm(cls: Type[Algorithm]) -> Type[Algorithm]:
    """Class decorator: register ``cls`` under ``cls.name``."""
    if not cls.name:
        raise ConfigurationError(
            f"{cls.__name__} must set a non-empty registry name"
        )
    if cls.name in _REGISTRY:
        raise ConfigurationError(
            f"algorithm name {cls.name!r} already registered "
            f"(by {_REGISTRY[cls.name].__name__})"
        )
    unknown = set(cls.lemmas) - set(LEMMAS)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__} declares unknown lemma(s): {sorted(unknown)}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def _load_builtins() -> None:
    """Import the zoo modules so their ``@register_algorithm`` classes
    land in the registry (idempotent; lazy to avoid import cycles)."""
    import repro.core.epoch_sgd  # noqa: F401
    import repro.core.full_sgd  # noqa: F401
    import repro.core.hogwild  # noqa: F401
    import repro.core.leashed  # noqa: F401
    import repro.core.locked  # noqa: F401
    import repro.core.momentum  # noqa: F401
    import repro.core.staleness_aware  # noqa: F401


def algorithm_registry() -> Dict[str, Type[Algorithm]]:
    """Name -> class over every registered algorithm (built-ins loaded)."""
    _load_builtins()
    return dict(_REGISTRY)


def algorithm_names() -> Tuple[str, ...]:
    """Registered names, sorted (stable across registration order)."""
    return tuple(sorted(algorithm_registry()))


def get_algorithm(name: str, **params) -> Algorithm:
    """Instantiate the algorithm registered under ``name``.

    ``params`` override the variant's hyper-parameter defaults (e.g.
    ``damping`` for ``staleness-aware``).
    """
    registry = algorithm_registry()
    cls = registry.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown algorithm: {name!r} "
            f"(choose from {', '.join(sorted(registry))})"
        )
    return cls(**params)


# ----------------------------------------------------------------------
# The unified driver
# ----------------------------------------------------------------------
def build_zoo_simulation(
    algorithm: Algorithm,
    objective: Objective,
    scheduler,
    num_threads: int,
    step_size: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    trace_config: Optional[TraceConfig] = None,
) -> Tuple[Simulator, AtomicArray, np.ndarray]:
    """Allocate the shared state, build the algorithm's programs and
    spawn them — returns ``(simulator, model, x0_copy)`` ready to run.

    The one place a simulation is built, so tests and benches can drive
    it through ``run()`` / ``run_fast()`` / ``run_analyzed()`` and
    compare step-for-step.  ``trace_config`` (default
    :meth:`TraceConfig.analysis`) sets what the run keeps.  Threads are
    ``<name>-worker-<i>``, or ``worker-<i>`` when ``name`` is empty.
    A bad thread count, budget or ``x0`` length raises
    :class:`ConfigurationError` for every algorithm alike.
    """
    if num_threads < 1:
        raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    initial = np.zeros(objective.dim) if x0 is None else np.array(x0, dtype=float)
    if initial.shape != (objective.dim,):
        raise ConfigurationError(
            f"x0 has shape {initial.shape} but objective.dim is {objective.dim}"
        )
    if trace_config is None:
        trace_config = TraceConfig.analysis()
    memory = SharedMemory(record_log=trace_config.record_log)
    model = AtomicArray.allocate(memory, objective.dim, name="model")
    model.load(initial)
    counter = AtomicCounter.allocate(memory, name="iteration_counter")
    setup = AlgorithmSetup(
        memory=memory,
        model=model,
        counter=counter,
        objective=objective,
        step_size=step_size,
        iterations=iterations,
        num_threads=num_threads,
        record_iterations=trace_config.record_iterations,
    )
    programs = algorithm.build(setup)
    if len(programs) != num_threads:
        raise ConfigurationError(
            f"{algorithm.name!r}.build returned {len(programs)} program(s) "
            f"for {num_threads} thread(s)"
        )
    sim = Simulator(memory, scheduler, seed=seed, trace_config=trace_config)
    prefix = f"{algorithm.name}-worker" if algorithm.name else "worker"
    for index, program in enumerate(programs):
        sim.spawn(program, name=f"{prefix}-{index}")
    return sim, model, initial


def collect_iteration_records(sim: Simulator) -> List[IterationRecord]:
    """All iteration records of a finished run, sorted by the paper's
    total order (time of first model update, Lemma 6.1)."""
    return sorted(
        (e for e in sim.trace if isinstance(e, IterationRecord)),
        key=lambda r: r.order_time,
    )


def within_radius(
    model: AtomicArray, x_star: np.ndarray, radius: float
) -> Callable[[Simulator], bool]:
    """The early-stop predicate :func:`simulate` hands ``run_fast``:
    whether ``float(gap @ gap) <= radius`` for ``gap = model.snapshot()
    - x_star``, the squared distance of the shared model to ``x_star``.

    Most checks are far from the boundary, so the predicate first
    squares ``math.dist`` over the model's entries, which builds no
    array, and returns False when that exceeds ``radius * (1 + 1e-9) +
    1e-300``.  The square and numpy's dot each lie within a few ulps of
    the exact sum of squares, whatever the summation order, so the
    relative margin separates them for any d; the floor covers sums of
    subnormal squares, whose rounding error is absolute.  Only inside
    the margin does the snapshot test run, so the predicate answers as
    that test does for every model, NaN and infinite entries and a zero
    or negative ``radius`` included.
    """
    memory, base, length = model.memory, model.base, model.length
    target = tuple(float(value) for value in x_star)
    limit = radius * (1.0 + 1e-9) + 1e-300
    dist = math.dist

    def reached(sim: Simulator) -> bool:
        distance = dist(memory.peek_range(base, length), target)
        if distance * distance > limit:
            return False
        gap = model.snapshot() - x_star
        return float(gap @ gap) <= radius

    return reached


def simulate(
    algorithm: Algorithm,
    objective: Objective,
    scheduler,
    num_threads: int,
    step_size: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    epsilon: Optional[float] = None,
    analyzers: Sequence = (),
    metrics=None,
    stop_epsilon: Optional[float] = None,
    chunk: int = 1024,
) -> Tuple[LockFreeRunResult, Simulator]:
    """The one run path: build ``algorithm``'s simulation, run it to
    quiescence and assemble its :class:`LockFreeRunResult`; returns the
    result and the finished simulator.

    ``run_algorithm``, ``run_lock_free_sgd``, ``run_snapshot_sgd`` and
    ``FullSGD.run`` each wrap this call in their own span.
    ``analyzers`` drain every ``chunk`` steps (the memory log is on when
    one ``requires_log``); ``stop_epsilon`` and ``metrics`` are as in
    :func:`repro.core.epoch_sgd.run_lock_free_sgd`.
    """
    if analyzers and stop_epsilon is not None:
        raise ConfigurationError(
            "analyzers cannot be combined with stop_epsilon (the early-stop "
            "path steps the simulator directly)"
        )
    sim, model, initial = build_zoo_simulation(
        algorithm,
        objective,
        scheduler,
        num_threads=num_threads,
        step_size=step_size,
        iterations=iterations,
        x0=x0,
        seed=seed,
        trace_config=TraceConfig(
            record_log=any(analyzer.requires_log for analyzer in analyzers)
        ),
    )
    if metrics is not None:
        sim.attach_metrics(metrics)
    for analyzer in analyzers:
        sim.attach_analyzer(analyzer)
    if stop_epsilon is None:
        sim.run_analyzed(chunk=chunk)
    else:
        sim.run_fast(stop=within_radius(model, objective.x_star, stop_epsilon))

    records = collect_iteration_records(sim)
    # Only pay for the O(N log N) derived quantities when a live
    # registry is attached (None = uninstrumented).
    if records and sim.metrics is not None:
        from repro.obs.paper import paper_metrics, publish_paper_metrics

        publish_paper_metrics(
            sim.metrics, paper_metrics(records, num_threads=num_threads)
        )
    trajectory = accumulator_trajectory(initial, records)
    distances = np.linalg.norm(trajectory - objective.x_star, axis=1)
    hit_time: Optional[int] = None
    if epsilon is not None:
        hits = np.nonzero(distances**2 <= epsilon)[0]
        if hits.size:
            hit_time = int(hits[0])

    extras: Dict[str, float] = {}
    thread_iterations: Dict[int, int] = {}
    for tid, payload in sorted(sim.results().items()):
        if not isinstance(payload, dict):
            continue
        if "iterations" in payload:
            thread_iterations[tid] = payload["iterations"]
        for key, value in payload.items():
            if key in ("iterations", "accumulator"):
                continue
            if isinstance(value, (int, float)):
                extras[key] = extras.get(key, 0) + value
    result = LockFreeRunResult(
        x_final=model.snapshot(),
        x0=initial,
        records=records,
        distances=distances,
        hit_time=hit_time,
        epsilon=epsilon,
        sim_steps=sim.now,
        thread_iterations=thread_iterations,
        thread_steps={t.thread_id: t.steps_taken for t in sim.threads},
        extras=extras,
    )
    return result, sim


def run_algorithm(
    algorithm: Algorithm,
    objective: Objective,
    scheduler,
    num_threads: int,
    step_size: float,
    iterations: int,
    x0: Optional[np.ndarray] = None,
    seed: int = 0,
    epsilon: Optional[float] = None,
    analyzers: Sequence = (),
    metrics=None,
) -> LockFreeRunResult:
    """Run any registered algorithm under any scheduler to quiescence.

    The zoo counterpart of :func:`repro.core.epoch_sgd.run_lock_free_sgd`
    — same result shape (accumulator trajectory in the first-update
    total order, hitting time, per-thread counts), with
    ``result.extras`` holding variant-specific counters
    (``spin_steps``, ``cas_failures``, ...) summed over threads.

    ``analyzers`` attaches :class:`repro.runtime.simulator.Analyzer`
    instances (the memory log is on when one ``requires_log``; same
    schedule, analyzers drain at chunk boundaries).  ``metrics`` attaches a
    :class:`repro.obs.registry.MetricsRegistry` and publishes the run's
    paper-aligned snapshot at the end.
    """
    from repro.obs.causal import trace_span

    with trace_span(
        "zoo.run",
        algorithm=algorithm.name,
        threads=num_threads,
        iterations=iterations,
        seed=seed,
    ):
        result, _sim = simulate(
            algorithm, objective, scheduler, num_threads, step_size,
            iterations, x0=x0, seed=seed, epsilon=epsilon,
            analyzers=analyzers, metrics=metrics,
        )
    return result
