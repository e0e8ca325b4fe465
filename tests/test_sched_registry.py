"""Determinism of the scheduler registry.

Every registered kind, built twice with the same seed, must drive a
fixed workload through the identical schedule — the property the verify
tier's re-execution backtracking, the journal fingerprints and replay
all lean on.  A scheduler whose decisions depend on anything but
(seed, simulation state) would silently break all three.

The golden digests pin each kind's decisions across code changes: a
faster scheduler must still make exactly the choices the digests were
recorded from, or every seeded experiment silently changes.
"""

import hashlib

import numpy as np
import pytest

from repro.core.algorithm import build_zoo_simulation, get_algorithm
from repro.core.epoch_sgd import run_lock_free_sgd
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.registry import build_scheduler, scheduler_names
from repro.sched.replay import PrefixReplayScheduler, RecordingScheduler

GOLDEN_DECISIONS = 5000

#: (kind, params, sha256 of the first GOLDEN_DECISIONS decisions joined
#: by commas), seed 3, on _golden_run's 4-thread EpochSGD run.
GOLDEN_CASES = [
    ("bounded-delay", {}, "d8dbc893cdedbea1a59b6237d152de5d4677f7cd0a2a21c7363c8ab1c8d7fb5d"),
    ("contention-max", {}, "7ec4d739affcadcd158a59fe0eae69c91539bffaa4835e3f598042cd6838ebce"),
    ("priority-delay", {}, "c4136831ed352c37e03b92782d6042f34c0b131026cca417773e5358b2127092"),
    ("random", {}, "c32e03ae6c22f1d32211fd27d09903e0b21524ee4b95226c7f2d971080f3d5d0"),
    ("round-robin", {}, "74c143a7eca38b0fd13be3d63e2b42b2ffe0cbfd7bcf03de522c8eadf42af29a"),
    ("sequential", {}, "ccc13d7282aa209657930efdba2b3173b37b26383a556fc2d2867288d87497cb"),
    ("stale-attack", {}, "4d13d86ff097de72ea5c9ed4a590e67f7ac5dd15abfc6fa9acd491917c186e17"),
    # E5's adversary: starve thread 0 with probability 0.9 per step.
    ("bounded-delay", {"victims": [0], "bias": 0.9},
     "8851328ecf891955380a5834f6e297328a1a20ec0ed677ff6eec6f2732830e40"),
    # The weighted path keeps numpy's choice().
    ("random", {"weights": {0: 3.0, 2: 0.5}},
     "4e9f1f9ea4f9f802b67dffa982278baee3f603bcc2f27624cbb4fd231ca4a9d3"),
]


def _recorded_schedule(scheduler):
    objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.3))
    recorder = RecordingScheduler(scheduler)
    result = run_lock_free_sgd(
        objective,
        recorder,
        num_threads=3,
        step_size=0.05,
        iterations=24,
        x0=np.array([2.0, -2.0]),
        seed=7,
    )
    return recorder.schedule, result.x_final


class TestRegistryDeterminism:
    def test_every_kind_is_deterministic_under_a_fixed_seed(self):
        for kind in scheduler_names():
            first_schedule, first_x = _recorded_schedule(
                build_scheduler(kind, seed=3)
            )
            second_schedule, second_x = _recorded_schedule(
                build_scheduler(kind, seed=3)
            )
            assert first_schedule == second_schedule, (
                f"scheduler kind {kind!r} produced two different schedules "
                "from the same seed"
            )
            np.testing.assert_array_equal(first_x, second_x)

    def test_registry_is_sorted_and_nonempty(self):
        names = scheduler_names()
        assert names
        assert list(names) == sorted(names)


def _golden_run(scheduler):
    """The first GOLDEN_DECISIONS decisions of a fixed EpochSGD run.

    PrefixReplayScheduler with an empty prefix records without a live
    ``on_step`` hook, so the run stays on the elided ``run_fast`` loop."""
    recorder = PrefixReplayScheduler(scheduler, [])
    sim, _model, _x0 = build_zoo_simulation(
        get_algorithm("epoch-sgd"),
        IsotropicQuadratic(dim=4, noise=GaussianNoise(0.3)),
        recorder,
        num_threads=4,
        step_size=0.05,
        iterations=1000,
        x0=np.full(4, 1.5),
        seed=11,
    )
    sim.run_fast(max_steps=GOLDEN_DECISIONS)
    assert len(recorder.decisions) == GOLDEN_DECISIONS
    return recorder.decisions


class TestGoldenDecisions:
    def test_every_registered_kind_is_pinned(self):
        assert {kind for kind, _params, _digest in GOLDEN_CASES} == set(
            scheduler_names()
        )

    @pytest.mark.parametrize(
        "kind,params,digest",
        GOLDEN_CASES,
        ids=["+".join([kind, *params]) for kind, params, _ in GOLDEN_CASES],
    )
    def test_decisions_match_the_recorded_digest(self, kind, params, digest):
        decisions = _golden_run(build_scheduler(kind, seed=3, **params))
        assert hashlib.sha256(",".join(map(str, decisions)).encode()).hexdigest() == digest
