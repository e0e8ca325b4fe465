"""Enumeration throughput and POR effectiveness of the verify tier.

Not a paper artifact — this pins the cost of exhaustive certification:
for each measured variant the full interleaving tree and the sleep-set
reduced walk are enumerated at the standard verify scope, recording
schedules/sec (re-execution backtracking makes nodes the unit of work,
so both rates are reported) and the reduction factor the pruning buys.
A separate pass measures what state-digest memoization adds on top of
the sleep sets.  Results land in ``benchmarks/results/BENCH_verify.json``
so the enumeration-perf trajectory accumulates across PRs.
"""

import json
import pathlib
import time

import numpy as np

from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.core.algorithm import build_zoo_simulation
from repro.runtime.policy import TraceConfig
from repro.verify.engine import VerifyScope, _resolve_variant
from repro.verify.enumerator import enumerate_schedules

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

VARIANTS = ("epoch-sgd", "hogwild", "mutant-torn-counter")
SCOPE = VerifyScope(threads=2, iterations=1)
SEED = 1


def _factory_for(variant: str):
    algorithm, _expectation, override = _resolve_variant(variant)
    iterations = max(SCOPE.iterations, override or 0)
    objective = IsotropicQuadratic(
        dim=SCOPE.dim, noise=GaussianNoise(SCOPE.noise_sigma)
    )

    def factory(scheduler):
        sim, _model, _x0 = build_zoo_simulation(
            algorithm,
            objective,
            scheduler,
            num_threads=SCOPE.threads,
            step_size=SCOPE.step_size,
            iterations=iterations,
            x0=np.full(SCOPE.dim, SCOPE.x0_scale),
            seed=SEED,
            trace_config=TraceConfig(),
        )
        return sim

    return factory


def _time_enumeration(factory, por, memoize=False):
    """Best-of-3 enumeration rate for one (variant, mode) pair."""
    best = None
    stats = None
    for _ in range(3):
        start = time.perf_counter()
        result = enumerate_schedules(
            factory, max_steps=SCOPE.max_steps, por=por, memoize=memoize
        )
        elapsed = time.perf_counter() - start
        stats = result.stats
        if best is None or elapsed < best:
            best = elapsed
    return {
        "schedules": stats.schedules,
        "nodes": stats.nodes,
        "steps": stats.steps,
        "sleep_skips": stats.sleep_skips,
        "memo_skips": stats.memo_skips,
        "schedules_per_sec": round(stats.schedules / best, 1),
        "nodes_per_sec": round(stats.nodes / best, 1),
        "seconds": round(best, 4),
    }


def test_verify_enumeration_throughput():
    """Every measured variant enumerates exhaustively at scope; the
    rates and POR reduction factors land in BENCH_verify.json."""
    variants = {}
    for variant in VARIANTS:
        factory = _factory_for(variant)
        por = _time_enumeration(factory, por=True)
        full = _time_enumeration(factory, por=False)
        memo = _time_enumeration(factory, por=True, memoize=True)
        assert por["schedules"] > 0, f"{variant} enumerated no schedules"
        reduction = round(full["schedules"] / por["schedules"], 2)
        assert reduction >= 2.0, (
            f"{variant}: POR reduction {reduction}x below the 2x floor"
        )
        variants[variant] = {
            "por": por,
            "full": full,
            "por_memo": memo,
            "reduction_factor": reduction,
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "verify.enumeration",
        "workload": (
            f"dim={SCOPE.dim}, {SCOPE.threads} threads, "
            f"T={SCOPE.iterations}, max_steps={SCOPE.max_steps}, "
            "re-execution DFS (one fresh sim per node)"
        ),
        "variants": variants,
        "unix_time": int(time.time()),
    }
    out = RESULTS_DIR / "BENCH_verify.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        (
            f"{name}: {data['por']['schedules']} schedules "
            f"({data['por']['schedules_per_sec']:,.0f}/s) vs "
            f"{data['full']['schedules']} full — {data['reduction_factor']}x"
        )
        for name, data in variants.items()
    ]
    print("\n" + "\n".join(lines))
