"""Tests for the self-healing layer: online health detectors (HEAL001–
HEAL004), the rollback retry ladder, and the headline acceptance
property — a fixed-seed NaN-poisoned run converges to the same iterate
as the fault-free run via rollback + retry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.e14_resilience import heal_plan_specs
from repro.heal import (
    CheckpointDigestDetector,
    DetectorSuite,
    GradientNormDetector,
    HealPolicy,
    LossDivergenceDetector,
    NanGuardDetector,
    default_detectors,
    run_with_healing,
)
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic

OBJECTIVE = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))


def _heal(plan, algorithm="epoch-sgd", seed=8000, policy=None, **kwargs):
    defaults = dict(
        num_threads=4,
        step_size=0.05,
        iterations=200,
        x0=np.full(2, 2.0),
        seed=seed,
        policy=policy,
    )
    defaults.update(kwargs)
    return run_with_healing(
        algorithm, OBJECTIVE, heal_plan_specs()[plan], **defaults
    )


class _FakeMemory:
    """Peek-only shared-memory stand-in for detector unit tests."""

    def __init__(self, values):
        self._vals = list(values)

    def segment(self, name):
        class _Seg:
            base = 0
            length = len(self._vals)

        return _Seg()

    def peek_range(self, base, length):
        return list(self._vals[base : base + length])


class _FakeSim:
    def __init__(self, values, now=0):
        self.memory = _FakeMemory(values)
        self.now = now


class TestDetectors:
    def test_nan_guard_fires_on_non_finite(self):
        detector = NanGuardDetector()
        assert detector.check(_FakeSim([1.0, 2.0])) is None
        finding = detector.check(_FakeSim([1.0, float("nan")]))
        assert finding is not None and finding.rule == "HEAL001"
        finding = detector.check(_FakeSim([float("inf"), 0.0]))
        assert finding is not None and "index" in finding.message

    def test_gradient_norm_detector_baselines_at_attach(self):
        detector = GradientNormDetector(OBJECTIVE, threshold=10.0)
        detector.on_attach(_FakeSim([2.0, 2.0]))
        assert detector.check(_FakeSim([2.0, 2.0])) is None
        finding = detector.check(_FakeSim([1e6, 1e6]))
        assert finding is not None and finding.rule == "HEAL002"

    def test_loss_divergence_needs_patience_and_floor(self):
        detector = LossDivergenceDetector(
            OBJECTIVE, factor=4.0, patience=2, floor=0.5
        )
        detector.on_attach(_FakeSim([1.0, 1.0]))
        big = _FakeSim([10.0, 10.0])
        assert detector.check(big) is None  # streak 1 < patience
        finding = detector.check(big)
        assert finding is not None and finding.rule == "HEAL003"
        # Below the absolute floor the trend test is mute even when the
        # relative factor is exceeded (converged noise-ball wobble).
        calm = LossDivergenceDetector(
            OBJECTIVE, factor=4.0, patience=1, floor=0.5
        )
        calm.on_attach(_FakeSim([0.01, 0.01]))
        assert calm.check(_FakeSim([0.05, 0.05])) is None

    def test_loss_divergence_streak_resets_on_rollback(self):
        detector = LossDivergenceDetector(OBJECTIVE, patience=2, floor=0.1)
        detector.on_attach(_FakeSim([1.0, 1.0]))
        assert detector.check(_FakeSim([10.0, 10.0])) is None
        detector.on_rollback(_FakeSim([1.0, 1.0]))
        assert detector.check(_FakeSim([10.0, 10.0])) is None  # streak anew

    def test_checkpoint_digest_detector_guards_retained_cut(self):
        class _FakeCheckpoint:
            def __init__(self):
                self.time = 64
                self._digest = "aaa"

            def digest(self):
                return self._digest

        detector = CheckpointDigestDetector()
        assert detector.check(_FakeSim([0.0])) is None  # nothing retained
        checkpoint = _FakeCheckpoint()
        detector.observe_checkpoint(checkpoint)
        assert detector.check(_FakeSim([0.0])) is None
        checkpoint._digest = "bbb"  # in-memory damage
        finding = detector.check(_FakeSim([0.0]))
        assert finding is not None and finding.rule == "HEAL004"
        assert "damaged" in finding.message

    def test_suite_keeps_every_check_findings(self):
        suite = DetectorSuite([NanGuardDetector()])
        assert [f.rule for f in suite.check(_FakeSim([float("nan")]))] == [
            "HEAL001"
        ]
        suite.check(_FakeSim([float("nan")]))
        assert suite.check(_FakeSim([1.0])) == []
        assert [f.rule for f in suite.findings] == ["HEAL001", "HEAL001"]

    def test_default_panel_composition(self):
        rules = [d.rule for d in default_detectors(OBJECTIVE)]
        assert rules == ["HEAL001", "HEAL002", "HEAL003", "HEAL004"]


class TestHealPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(check_interval=0),
            dict(retry_budget=-1),
            dict(disarm_chunks=0),
            dict(step_shrink=0.0),
            dict(step_shrink=1.0),
            dict(max_step_shrinks=-1),
            dict(max_total_steps=0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealPolicy(**kwargs)


class TestRollbackLadder:
    def test_fault_free_run_never_rolls_back(self):
        result = _heal("none")
        assert result.report.health == "healthy"
        assert result.report.rollbacks == 0
        assert result.report.detections == {}
        assert result.corruptions == 0

    def test_nan_poison_converges_to_fault_free_iterate(self):
        """THE acceptance property: with rollback + suppressed retry the
        poisoned run lands on the *same* iterate as the fault-free run
        — every corruption was detected, rolled back and excised."""
        poisoned = _heal("nan-poison")
        clean = _heal("none")
        assert poisoned.report.rollbacks >= 1
        assert poisoned.report.health == "healthy"
        assert poisoned.corruptions >= 1
        assert np.allclose(poisoned.x_final, clean.x_final)
        assert float(
            OBJECTIVE.distance_to_opt(poisoned.x_final)
        ) <= 0.5

    def test_healed_run_is_deterministic(self):
        first = _heal("nan-poison")
        second = _heal("nan-poison")
        assert first.x_final.tolist() == second.x_final.tolist()
        assert first.report.summary() == second.report.summary()
        assert first.steps == second.steps

    def test_detections_and_latencies_recorded(self):
        result = _heal("nan-poison")
        assert result.report.detections.get("HEAL001", 0) >= 1
        assert len(result.report.recovery_latencies) >= 1
        assert all(lat >= 0 for lat in result.report.recovery_latencies)

    def test_zero_budget_descends_the_ladder(self):
        policy = HealPolicy(retry_budget=0, max_step_shrinks=1)
        result = _heal("nan-poison", policy=policy)
        degradations = result.report.degradations
        assert degradations, "no rung taken despite zero budget"
        assert degradations[0].startswith("shrink-step(")
        assert result.report.health in ("degraded", "abandoned")

    def test_ladder_reaches_fallback_then_abandons(self):
        # No retries, no shrinks, fallback == the failing algorithm:
        # the only rungs left are fallback (a no-op here) and abandon.
        policy = HealPolicy(
            retry_budget=0,
            max_step_shrinks=0,
            fallback_algorithm="epoch-sgd",
        )
        result = _heal("nan-poison", policy=policy)
        assert result.report.health == "abandoned"
        # With a *distinct* fallback the run switches algorithms first.
        policy = HealPolicy(
            retry_budget=0, max_step_shrinks=0, fallback_algorithm="locked"
        )
        result = _heal("nan-poison", policy=policy)
        assert any(
            d == "fallback(locked)" for d in result.report.degradations
        )
        assert result.report.final_algorithm == "locked"

    def test_step_limit_backstop_abandons(self):
        policy = HealPolicy(max_total_steps=100)
        result = _heal("none", policy=policy, iterations=10_000)
        assert result.report.health == "abandoned"
        assert "step-limit" in result.report.degradations

    def test_metrics_registry_sees_heal_counters(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        result = _heal("nan-poison", metrics=registry)
        exposition = registry.render_prometheus()
        assert "repro_heal_rollbacks_total" in exposition
        assert "repro_heal_recovery_latency_steps" in exposition
        assert result.report.rollbacks >= 1

    def test_works_across_algorithms(self):
        for algorithm in ("hogwild", "locked"):
            result = _heal("nan-poison", algorithm=algorithm)
            assert result.report.health == "healthy"
            assert result.report.rollbacks >= 1
