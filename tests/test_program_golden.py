"""Byte pins for every SGD program, as adaptive adversaries see it.

Each variant runs 3 threads on a 3-d noisy quadratic with a budget of
12 iterations (divisible by every ``num_epochs`` used) under each zoo
adversary and two seeds, three ways: fault-free, under an
:class:`~repro.faults.spec.AdaptiveCrashSpec` that kills a thread in
its ``"update"`` phase, and under a :class:`~repro.faults.spec.
TornUpdateSpec`.  One sha256 per variant covers, over all its runs:

* every step: time, thread, op descriptor fields and result;
* what a wrapping scheduler sees at each decision: every runnable
  thread's pending op and its ``phase``, ``iterations_done``,
  ``pending_gradient`` and ``blocked`` annotations;
* every trace event, with all :class:`~repro.runtime.events.
  IterationRecord` fields;
* the thread results, names, states and step counts, the memory log
  and ``state_digest()``.

Values are hashed with their exact types (``int`` is not ``np.int64``,
a tuple is not a list, dicts keep their insertion order; steps, log
entries and ops by their dataclass ``repr``, whose floats round-trip),
so a refactor of the programs must reproduce every published value,
not just equal ones.  Runs stop after :data:`MAX_STEPS` steps: a locked
thread that crashes holding the lock leaves the others spinning.

Regenerate the table with ``PYTHONPATH=src python
tests/test_program_golden.py`` only when a change is meant to alter a
program's behaviour, and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.algorithm import build_zoo_simulation, get_algorithm
from repro.core.epoch_sgd import LockFreeSGD
from repro.core.full_sgd import FullSGDAlgorithm
from repro.core.leashed import LeashedAlgorithm
from repro.core.snapshot_sgd import SnapshotSGDAlgorithm
from repro.experiments.e13_algorithm_zoo import ZOO_ADVERSARIES
from repro.faults.spec import AdaptiveCrashSpec, FaultSpec, TornUpdateSpec
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.policy import TraceConfig
from repro.sched.base import Scheduler
from repro.sched.registry import build_scheduler
from repro.verify.mutants import get_mutant

THREADS = 3
DIM = 3
ITERATIONS = 12
STEP = 0.05
SEEDS = (1, 2)
MAX_STEPS = 600
ANNOTATIONS = ("phase", "iterations_done", "pending_gradient", "blocked")


def _full_sgd(**ablations):
    algorithm = FullSGDAlgorithm()
    for name, value in ablations.items():
        setattr(algorithm, name, value)
    return algorithm


#: Variant name -> a fresh algorithm.
VARIANTS = {
    "epoch-sgd": lambda: get_algorithm("epoch-sgd"),
    "full-sgd": lambda: get_algorithm("full-sgd"),
    "hogwild": lambda: get_algorithm("hogwild"),
    "leashed": lambda: get_algorithm("leashed"),
    "locked": lambda: get_algorithm("locked"),
    "momentum": lambda: get_algorithm("momentum"),
    "staleness-aware": lambda: get_algorithm("staleness-aware"),
    "lock-free": LockFreeSGD,
    "lock-free-write": lambda: LockFreeSGD(use_write=True),
    "snapshot": SnapshotSGDAlgorithm,
    "snapshot-retries-1": lambda: SnapshotSGDAlgorithm(max_scan_retries=1),
    "full-sgd-dcas-loop": lambda: _full_sgd(use_dcas_loop=True),
    "full-sgd-unguarded": lambda: _full_sgd(use_guard=False),
    "full-sgd-3-epochs": lambda: FullSGDAlgorithm(num_epochs=3),
    "leashed-retries-1": lambda: LeashedAlgorithm(max_cas_retries=1),
    "mutant-torn-counter": lambda: get_mutant("mutant-torn-counter").algorithm,
    "mutant-lost-update": lambda: get_mutant("mutant-lost-update").algorithm,
}

#: Fault mode -> the plan wrapped around the adversary (None: fault-free).
FAULTS = {
    "none": None,
    "adaptive-crash": FaultSpec(
        "adaptive-crash", (AdaptiveCrashSpec(phase="update"),)
    ),
    "torn-update": FaultSpec("torn-update", (TornUpdateSpec(rate=0.3),)),
}


_FIELDS = {}


def _canon(value):
    """A JSON-ready, type-exact form of ``value``."""
    if value is None or isinstance(value, str):
        return value
    kind = type(value)
    if kind is np.ndarray:
        return [
            "ndarray",
            str(value.dtype),
            list(value.shape),
            np.ascontiguousarray(value).tobytes().hex(),
        ]
    if isinstance(value, (bool, np.bool_)):
        return [kind.__name__, bool(value)]
    if isinstance(value, (int, np.integer)):
        return [kind.__name__, int(value)]
    if isinstance(value, (float, np.floating)):
        return [kind.__name__, float(value).hex()]
    if isinstance(value, (list, tuple)):
        return [kind.__name__, [_canon(v) for v in value]]
    if isinstance(value, dict):
        return ["dict", [[_canon(k), _canon(v)] for k, v in value.items()]]
    names = _FIELDS.get(kind)
    if names is None:
        if not dataclasses.is_dataclass(value):
            raise TypeError(f"cannot pin {kind.__name__}: {value!r}")
        names = _FIELDS[kind] = tuple(f.name for f in dataclasses.fields(value))
    return [kind.__name__, [[name, _canon(getattr(value, name))] for name in names]]


class _Watcher(Scheduler):
    """Forward to ``inner``, noting what an adaptive adversary sees at
    each decision: every runnable thread's pending op and annotations."""

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.seen = []

    def on_spawn(self, sim, thread) -> None:
        self.inner.on_spawn(sim, thread)

    def on_step(self, sim, record) -> None:
        self.inner.on_step(sim, record)

    def select(self, sim) -> int:
        view = []
        for tid in sim.runnable_tuple:
            annotations = sim.annotations(tid)
            view.append(
                [
                    tid,
                    repr(sim.threads[tid].pending_op),
                    [_canon(annotations.get(key)) for key in ANNOTATIONS],
                ]
            )
        self.seen.append(view)
        return self.inner.select(sim)


def _run(variant: str, adversary: str, fault: str, seed: int):
    """Everything one run published, canonicalized."""
    scheduler = build_scheduler(adversary, seed=seed)
    plan = FAULTS[fault]
    if plan is not None:
        scheduler = plan.build(scheduler, seed=seed, num_threads=THREADS)
    watcher = _Watcher(scheduler)
    sim, _model, _x0 = build_zoo_simulation(
        VARIANTS[variant](),
        IsotropicQuadratic(dim=DIM, noise=GaussianNoise(0.3)),
        watcher,
        num_threads=THREADS,
        step_size=STEP,
        iterations=ITERATIONS,
        x0=np.array([1.5, -2.0, 0.5]),
        seed=seed,
        trace_config=TraceConfig(record_steps=True, record_log=True),
    )
    sim.run(max_steps=MAX_STEPS)
    return [
        [repr(step) for step in sim.steps],
        watcher.seen,
        [_canon(event) for event in sim.trace],
        _canon(sim.results()),
        [[t.name, t.state.value, t.steps_taken] for t in sim.threads],
        [repr(entry) for entry in sim.memory.log],
        sim.state_digest(),
    ]


def variant_digest(variant: str) -> str:
    """One sha256 over every run of ``variant``."""
    digest = hashlib.sha256()
    for adversary in ZOO_ADVERSARIES:
        for fault in FAULTS:
            for seed in SEEDS:
                run = _run(variant, adversary, fault, seed)
                digest.update(json.dumps([adversary, fault, seed, run]).encode())
    return digest.hexdigest()


PROGRAM_PINS = {
    "epoch-sgd": (
        "4614bbf37ee0325923b7ed1c6a53c8910b1e1d9e62f139adc0cd65f64ff4d355"
    ),
    "full-sgd": (
        "3fbd5a4854417f576572d89acd2b04bcc8fa2af9a5546b364b02d2bc54941a9f"
    ),
    "full-sgd-3-epochs": (
        "c0405df69cfe9b709f7ea062b17fb4db97178af69371988313470bd3a3da767e"
    ),
    "full-sgd-dcas-loop": (
        "d1c950b5d0a4d3cf9135d563a259ec6b1585a3d057d6dbb686462bf1d239c2eb"
    ),
    "full-sgd-unguarded": (
        "957e84e3efdc8ef21c2c699cc2e4811ebf092acc0ef825d568110df78bf589fc"
    ),
    "hogwild": (
        "eb1baa0a818ae8db5774ca0e013efa685f20660101e7dfa20e4a33229e5613ab"
    ),
    "leashed": (
        "d2801b2c61ce27b962b2b731ce11e25256e54f99196a4937e28c06a5e3cad324"
    ),
    "leashed-retries-1": (
        "7ac6cd80a546420044dbff310e93d408b7230f6e690ef261053cb46991d7b167"
    ),
    "lock-free": (
        "02be95507469bc31b7028b360e47f7dfcb7a046d2f293990acbd394f65d5c6ee"
    ),
    "lock-free-write": (
        "59154282b694887c2881ff332e4389ee3d08b7261ec0114173a0004d482548fe"
    ),
    "locked": (
        "a123a76fe7385b33fdc1f8257658a0961faaac47acc8802604955b3fb2a9ab98"
    ),
    "momentum": (
        "9fd4f0c3ba66d41324e3f611fb7bf64f45ba25c63b171b7e0d6b4edb6247d1ef"
    ),
    "mutant-lost-update": (
        "ac5ca7d6fb850884c44327769758696969a6e9f32ec3011ad7d63794f68b5f56"
    ),
    "mutant-torn-counter": (
        "487248ea02c1c8ace04c702ecf5ce97fac460cbbb58fb76a08721b07ea73d06d"
    ),
    "snapshot": (
        "77df433c91fc33f2b698d8350b8829a9b609c96c6e515129c5dd9294947ad0fa"
    ),
    "snapshot-retries-1": (
        "c555ea8f1f2955935be357bcb17316617b5d29cc5ce8a385324226048b403817"
    ),
    "staleness-aware": (
        "6cd6219035c04e9c4966d19553f0819668d9b62e8601155597d204a3465784f0"
    ),
}


def test_every_variant_is_pinned():
    assert set(PROGRAM_PINS) == set(VARIANTS)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_program_behaviour_is_pinned(variant):
    assert variant_digest(variant) == PROGRAM_PINS[variant]


if __name__ == "__main__":
    for name in sorted(VARIANTS):
        print(f'    "{name}": (\n        "{variant_digest(name)}"\n    ),')
