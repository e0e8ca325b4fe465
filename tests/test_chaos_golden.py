"""Byte pins for every chaos cell, one per chunk-boundary setting.

``_chaos_worker`` runs one (fault plan, seed) cell of ``repro chaos``:
it builds the Algorithm-1 workload under the plan's fault engine,
drives it in ``check_interval``-step chunks, checks the invariant
monitors at every chunk boundary, respawns crashed threads and tallies
their lineages.  Each pin is one sha256 over the JSON-encoded
:class:`~repro.faults.campaign.FaultRunOutcome` of every cell of one
(recover, monitors, check_interval) combination, paper metrics
included (``collect_obs=True``):

* plans: the six :func:`~repro.faults.campaign.preset_specs`, the six
  :func:`~repro.faults.campaign.corruption_specs`, and two plans that
  corrupt the ``iteration_counter`` (a bit flip, a duplicated write)
  beside a model poison and a crash, so some cells fire
  ``counter-monotonic`` and ``model-finite`` at once and the pins hold
  the monitors' order;
* combinations: recover on/off x monitors on/off x ``check_interval``
  1, 5 (with ``max_respawns=1``) and 64;
* seeds 1-3.

Regenerate the table with ``PYTHONPATH=src python
tests/test_chaos_golden.py`` only when a change is meant to alter what
a chaos cell reports, and say why in CHANGES.md.
"""

import dataclasses
import functools
import hashlib
import json
import warnings

import pytest

from repro.faults.campaign import (
    CampaignConfig,
    ChaosWorkload,
    _chaos_worker,
    corruption_specs,
    preset_specs,
)
from repro.faults.spec import (
    BitFlipSpec,
    DuplicateWriteSpec,
    FaultSpec,
    PoisonSpec,
    ProbabilisticCrashSpec,
)

SEEDS = (1, 2, 3)
WORKLOAD = ChaosWorkload(iterations=120)
#: ``(check_interval, max_respawns)`` per chunk setting.
INTERVALS = ((1, None), (5, 1), (64, None))


def _plans():
    plans = {**preset_specs(), **corruption_specs()}
    plans["counter-flip"] = FaultSpec(
        "counter-flip",
        (
            BitFlipSpec(
                rate=0.01, segment="iteration_counter",
                max_corruptions=2, after_time=20,
            ),
            PoisonSpec(rate=0.004, mode="nan", max_corruptions=1, after_time=60),
            ProbabilisticCrashSpec(rate=0.002, max_crashes=2, after_time=20),
        ),
    )
    plans["counter-dup"] = FaultSpec(
        "counter-dup",
        (
            DuplicateWriteSpec(
                rate=0.02, segment="iteration_counter",
                max_corruptions=2, after_time=20,
            ),
            PoisonSpec(rate=0.004, mode="inf", max_corruptions=1, after_time=60),
            ProbabilisticCrashSpec(rate=0.002, max_crashes=2, after_time=20),
        ),
    )
    return tuple(plans.values())


COMBINATIONS = tuple(
    (recover, monitors, interval)
    for recover in (True, False)
    for monitors in (True, False)
    for interval, _ in INTERVALS
)


def _key(recover, monitors, interval):
    return (
        f"{'recover' if recover else 'no-recover'}/"
        f"{'monitors' if monitors else 'no-monitors'}/k={interval}"
    )


@functools.lru_cache(maxsize=None)
def outcomes(recover, monitors, interval):
    """Every cell of one combination, plan-major."""
    config = CampaignConfig(
        specs=_plans(),
        seeds=SEEDS,
        workload=WORKLOAD,
        recover=recover,
        monitors=monitors,
        check_interval=interval,
        max_respawns=dict(INTERVALS)[interval],
        collect_obs=True,
    )
    with warnings.catch_warnings():
        # Poisoned and bit-flipped models overflow numpy on purpose.
        warnings.simplefilter("ignore", RuntimeWarning)
        return tuple(
            _chaos_worker(config, index, seed)
            for index in range(len(config.specs))
            for seed in SEEDS
        )


def combination_digest(recover, monitors, interval):
    payload = json.dumps(
        [dataclasses.asdict(o) for o in outcomes(recover, monitors, interval)],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


CHAOS_PINS = {
    "recover/monitors/k=1": (
        "9313c6e39164875a085d9be423b4585e6ccb1f373bb37a67f0d5093c56c91211"
    ),
    "recover/monitors/k=5": (
        "7c4bf78831dfe12b06b3c2214909425b17dfd66ebb20ccefaa7c1838f56b3959"
    ),
    "recover/monitors/k=64": (
        "9d52ea2d2ea7fde215852f0da0f1329daf9958495ad41b4ff223d2012feeaad9"
    ),
    "recover/no-monitors/k=1": (
        "ce71acfa06f7ee237642d7744cb71779068eae936c13e3b910b34fecfe8cb016"
    ),
    "recover/no-monitors/k=5": (
        "1df2857c4b66b29b5ecc4917138b84f3dca2b837dbf50d0dbf8b885904178b43"
    ),
    "recover/no-monitors/k=64": (
        "3f95db77f572e1694f58cbb322ed71654c8ffe34872b0132fc58fe53fbbc0ad9"
    ),
    "no-recover/monitors/k=1": (
        "f9a3ea3d395251b40ffad5346ecd5b8bef9d9988ad6183881b76fa2538116ec3"
    ),
    "no-recover/monitors/k=5": (
        "0061319434dc3c99c1228b2ac6105edccc2d7f579e779d282b61056901f82894"
    ),
    "no-recover/monitors/k=64": (
        "e53d264d2222637a6694216670706680f853b920d6d7311a554def20287481ac"
    ),
    "no-recover/no-monitors/k=1": (
        "b99d94019f04330039ec7b1969f720a5a0449bf5e4d8b6741e98c9fa83c01277"
    ),
    "no-recover/no-monitors/k=5": (
        "b99d94019f04330039ec7b1969f720a5a0449bf5e4d8b6741e98c9fa83c01277"
    ),
    "no-recover/no-monitors/k=64": (
        "b99d94019f04330039ec7b1969f720a5a0449bf5e4d8b6741e98c9fa83c01277"
    ),
}


def test_every_combination_is_pinned():
    assert set(CHAOS_PINS) == {_key(*c) for c in COMBINATIONS}


@pytest.mark.parametrize("combination", COMBINATIONS, ids=lambda c: _key(*c))
def test_chaos_cells_are_pinned(combination):
    assert combination_digest(*combination) == CHAOS_PINS[_key(*combination)]


def test_some_cell_fires_two_monitors():
    """The pins hold the cross-monitor order only if a cell fires two."""
    fired = [
        {violation.split(" @ ")[0] for violation in outcome.violations}
        for outcome in outcomes(True, True, 1)
    ]
    assert any(
        {"[counter-monotonic", "[model-finite"} <= monitors
        for monitors in fired
    )


if __name__ == "__main__":
    for combination in COMBINATIONS:
        print(
            f'    "{_key(*combination)}": (\n'
            f'        "{combination_digest(*combination)}"\n    ),'
        )
