"""Sanitize presets: named workloads the ``repro sanitize`` CLI runs
under the race/staleness sanitizer.

A preset is a small seeded workload grid — (scheduler kind × seed) —
whose every cell runs with a :class:`~repro.analysis.sanitizer.
RaceStalenessSanitizer` attached and its lemma certificates computed.
The grid is the registered ``sanitize`` campaign
(:class:`SanitizeCampaign`, see :mod:`repro.experiments.grid`), so
``--jobs`` parallelizes cells across processes with reports
byte-identical to serial execution (the property the acceptance tests
pin).

Presets:

* ``racy`` — the deliberately broken workload: Algorithm 1 with
  ``use_write=True`` (read the entry, write back ``view + delta``).
  The sanitizer must flag lost updates here; the CLI exits non-zero.
* ``e1`` — the E1-shaped sequential baseline (one thread); trivially
  clean, certifies the lemma checkers on uncontended traces.
* ``e5`` — the E5-shaped adversarial workload: Algorithm 1 under the
  random, stale-attack and contention-maximizing schedulers; clean, with
  Lemma 6.2/6.4 certificates exercised under real adversaries.
* ``e7`` — the E7-shaped Algorithm 2 (FullSGD) run with epoch guards;
  clean, certifies the guarded-fetch&add path through the sanitizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.lemmas import certificate_findings, certify_run
from repro.analysis.report import (
    AnalysisReport,
    RunAnalysis,
    run_analysis_from_dict,
)
from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.core.algorithm import simulate
from repro.core.epoch_sgd import LockFreeSGD
from repro.core.full_sgd import FullSGD
from repro.errors import ConfigurationError
from repro.experiments.grid import (
    Campaign,
    Cell,
    comma_names,
    get_campaign,
    grid_seeds,
    register_campaign,
    str_list,
)
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.sched.registry import build_scheduler


@dataclass(frozen=True)
class SanitizePreset:
    """One named sanitize workload (a scheduler × seed grid)."""

    name: str
    program: str  # "sgd" | "racy" | "full"
    dim: int
    num_threads: int
    iterations: int
    step_size: float
    schedulers: Tuple[str, ...]
    noise_sigma: float = 0.2
    x0_scale: float = 2.0
    window_multiplier: int = 2


def sanitize_presets() -> Dict[str, SanitizePreset]:
    """The presets ``repro sanitize --presets name,name`` accepts."""
    return {
        "racy": SanitizePreset(
            name="racy",
            program="racy",
            dim=2,
            num_threads=4,
            iterations=60,
            step_size=0.05,
            schedulers=("random",),
        ),
        "e1": SanitizePreset(
            name="e1",
            program="sgd",
            dim=1,
            num_threads=1,
            iterations=120,
            step_size=0.1,
            schedulers=("random",),
            noise_sigma=1.0,
            x0_scale=3.0,
        ),
        "e5": SanitizePreset(
            name="e5",
            program="sgd",
            dim=2,
            num_threads=4,
            iterations=160,
            step_size=0.05,
            schedulers=("random", "stale-attack", "contention-max"),
        ),
        "e7": SanitizePreset(
            name="e7",
            program="full",
            dim=2,
            num_threads=4,
            iterations=80,  # per epoch
            step_size=0.05,
            schedulers=("random",),
        ),
    }


def _sanitize_worker(
    preset: SanitizePreset, scheduler_kind: str, seed: int
) -> RunAnalysis:
    """Run one (preset, scheduler, seed) cell (module-level: picklable)."""
    objective = IsotropicQuadratic(
        dim=preset.dim, noise=GaussianNoise(preset.noise_sigma)
    )
    scheduler = build_scheduler(scheduler_kind, seed=seed)
    x0 = np.full(preset.dim, preset.x0_scale)
    sanitizer = RaceStalenessSanitizer()
    if preset.program == "full":
        result = FullSGD(
            objective,
            num_threads=preset.num_threads,
            epsilon=0.25,
            alpha0=preset.step_size,
            iterations_per_epoch=preset.iterations,
            num_epochs=2,
            x0=x0,
        ).run(scheduler, seed=seed, analyzers=(sanitizer,))
    else:
        result, _sim = simulate(
            LockFreeSGD(use_write=preset.program == "racy"),
            objective,
            scheduler,
            preset.num_threads,
            preset.step_size,
            preset.iterations,
            x0=x0,
            seed=seed,
            analyzers=(sanitizer,),
        )
    certificates = certify_run(
        result.records,
        num_threads=preset.num_threads,
        window_multiplier=preset.window_multiplier,
    )
    return RunAnalysis(
        label=f"{preset.name}/{scheduler_kind}/seed={seed}",
        steps=result.sim_steps,
        iterations=len(result.records),
        findings=[*sanitizer.findings, *certificate_findings(certificates)],
        certificates=certificates,
    )


@dataclass(frozen=True)
class SanitizeConfig:
    """One sanitize run: presets x their schedulers x seeds."""

    presets: Tuple[SanitizePreset, ...]
    seeds: Tuple[int, ...]
    #: Treat warnings as failures.
    strict: bool = False
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.presets:
            raise ConfigurationError("sanitize needs at least one preset")
        if not self.seeds:
            raise ConfigurationError("sanitize needs at least one seed")


@register_campaign
class SanitizeCampaign(Campaign):
    """``repro sanitize``: every preset's (scheduler, seed) grid under the
    race/staleness sanitizer, one ``sanitize.cell_row`` span per
    (preset, scheduler) row."""

    name = "sanitize"
    help = (
        "run the race/staleness sanitizer + lemma certifiers over preset "
        "workloads (deterministic report; non-zero exit on findings)"
    )
    report_name = "analysis_report"
    cli_seeds = (2, 1)
    seeds_per = "(preset, scheduler) cell"
    cells_metric = ("repro_sanitize_cells_total", "sanitize cells analyzed")
    metrics_help = (
        "write a deterministic per-cell summary snapshot JSONL (inspect "
        "with 'repro obs')"
    )
    serve_params = {
        "presets": (("e1",), str_list),
        "seeds": (2, int),
        "base_seed": (1, int),
        "strict": (False, bool),
    }
    decode = staticmethod(run_analysis_from_dict)

    def build(self, params, jobs=1, collect_obs=False):
        presets = sanitize_presets()
        unknown = [name for name in params["presets"] if name not in presets]
        if unknown or not params["presets"]:
            raise ConfigurationError(
                f"unknown sanitize preset(s): "
                f"{', '.join(unknown) or '(none given)'} "
                f"(choose from {', '.join(presets)})"
            )
        return SanitizeConfig(
            presets=tuple(presets[name] for name in params["presets"]),
            seeds=grid_seeds(params),
            strict=params["strict"],
            jobs=jobs,
        )

    def cells(self, config):
        for preset in config.presets:
            for scheduler_kind in preset.schedulers:
                yield Cell(
                    f"{preset.name}/{scheduler_kind}",
                    functools.partial(_sanitize_worker, preset, scheduler_kind),
                    (preset.name, scheduler_kind),
                )

    def cell_span(self, config, cell):
        from repro.obs.causal import trace_span

        preset, scheduler_kind = cell.key
        return trace_span(
            "sanitize.cell_row", preset=preset, scheduler=scheduler_kind
        )

    def encode(self, outcome):
        return outcome.as_dict()

    def report(self, config, outcomes):
        return AnalysisReport(runs=list(outcomes), strict=config.strict)

    def telemetry(self, registry, outcome):
        registry.counter(
            "repro_sanitize_findings_total", "sanitizer findings raised"
        ).inc(len(outcome.findings))

    def snapshot_lines(self, report):
        return [
            {
                "kind": "run",
                "label": run.label,
                "steps": run.steps,
                "iterations": run.iterations,
                "findings": len(run.findings),
                "certificates_ok": all(c.holds for c in run.certificates),
            }
            for run in report.runs
        ]

    def add_arguments(self, parser):
        parser.add_argument(
            "--presets",
            default="e1,e5,e7",
            help="comma-separated sanitize presets (see repro.analysis."
            "presets.sanitize_presets): racy, e1, e5, e7",
        )
        parser.add_argument(
            "--strict", action="store_true",
            help="treat warnings as failures",
        )

    def params_from_args(self, args):
        return {
            "presets": comma_names(args.presets),
            "seeds": args.seeds,
            "base_seed": args.base_seed,
            "strict": args.strict,
        }


def run_sanitize(
    presets: Tuple[SanitizePreset, ...],
    seeds: Tuple[int, ...],
    jobs: int = 1,
    strict: bool = False,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> AnalysisReport:
    """Run the full preset grid and aggregate one deterministic report.

    Grid order is (preset, scheduler, seed) with seeds innermost; see
    :meth:`repro.experiments.grid.Campaign.run` for ``journal``,
    ``shutdown``, ``metrics`` and ``progress``.
    """
    return get_campaign("sanitize").run(
        SanitizeConfig(tuple(presets), tuple(seeds), strict, jobs),
        journal, shutdown, metrics, progress,
    )
