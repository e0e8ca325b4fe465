"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.objectives.noise import GaussianNoise, ZeroNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.shm.history import (
    check_fetch_add_totals,
    check_log_replay,
    check_read_coherence,
)
from repro.shm.memory import LogRecord, SharedMemory
from repro.shm.ops import Write

# Hypothesis tests that take their example count from the profile (the
# generative grid check in ``test_exp_grid_pool.py`` and the CLI =
# served check in ``test_campaign_params.py``) draw a few in tier-1 and
# more in CI, which passes ``--hypothesis-profile ci``.
# Every other property test sets its own ``max_examples``.
settings.register_profile("tier1", max_examples=6)
settings.register_profile("ci", max_examples=40)
settings.load_profile("tier1")


@pytest.fixture
def memory() -> SharedMemory:
    """A fresh shared memory with logging enabled."""
    return SharedMemory(record_log=True)


@pytest.fixture
def quadratic_noisy() -> IsotropicQuadratic:
    """Small noisy quadratic used across algorithm tests."""
    return IsotropicQuadratic(dim=2, curvature=1.0, noise=GaussianNoise(0.3))


@pytest.fixture
def quadratic_clean() -> IsotropicQuadratic:
    """Noiseless quadratic (deterministic gradients)."""
    return IsotropicQuadratic(dim=2, curvature=1.0, noise=ZeroNoise())


@pytest.fixture
def x0_small() -> np.ndarray:
    """A standard small starting point for dim=2 objectives."""
    return np.array([2.0, -2.0])


def _check_history(sim, model, x0, log=None) -> None:
    """Check a finished run's operation log (``sim.memory.log`` unless
    ``log`` is given) with the three :mod:`repro.shm.history` checkers.

    The log must replay from the loaded model, every read must return
    the latest value (the load counts as the first writes), and every
    model entry and the iteration counter must end at its initial value
    plus the sum of its logged fetch&add deltas.  Raises
    :class:`~repro.errors.HistoryViolationError` otherwise.
    """
    memory = sim.memory
    log = memory.log if log is None else log
    initial = {model.address_of(j): float(v) for j, v in enumerate(x0)}
    final = check_log_replay(log, initial, memory.size)
    assert all(final[address] == memory.peek(address) for address in final)
    load = [
        LogRecord(seq=-1, time=-1, thread_id=-1, op=Write(address, value),
                  result=None)
        for address, value in initial.items()
    ]
    check_read_coherence(load + list(log))
    counter = memory.segment("iteration_counter").base
    for address, value in [*initial.items(), (counter, 0.0)]:
        check_fetch_add_totals(
            log, [address], value, {address: memory.peek(address)}
        )


@pytest.fixture
def check_history():
    """The run-history check the memory-log tests share."""
    return _check_history
