"""Tests for the analysis layer: the race/staleness sanitizer flags the
lost-update ablation and stays quiet on the stock algorithms, lemma
certificates hold under benign and adversarial schedulers, recorded
schedules round-trip through the sanitizer byte-identically, and the
static linter flags DSL misuse and determinism hazards."""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisReport,
    Finding,
    RaceStalenessSanitizer,
    certify_run,
    lint_source,
)
from repro.analysis.lint import lint_paths, render_findings
from repro.analysis.presets import run_sanitize, sanitize_presets
from repro.analysis.sanitizer import RULE_LOST_UPDATE, RULE_TORN_UPDATE
from repro.core.algorithm import collect_iteration_records
from repro.core.epoch_sgd import EpochSGDProgram, run_lock_free_sgd
from repro.core.full_sgd import FullSGD
from repro.errors import ConfigurationError
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.simulator import Simulator
from repro.sched.contention_max import ContentionMaximizer
from repro.sched.random_sched import RandomScheduler
from repro.sched.replay import RecordingScheduler, ReplayScheduler
from repro.sched.stale_attack import StaleGradientAttack
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


def _build_sim(scheduler, *, num_threads=4, iterations=60, seed=3,
               use_write=False, record_log=True):
    objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))
    memory = SharedMemory(record_log=record_log)
    model = AtomicArray.allocate(memory, 2, name="model")
    model.load(np.array([2.0, -2.0]))
    counter = AtomicCounter.allocate(memory, name="iteration_counter")
    sim = Simulator(memory, scheduler, seed=seed)
    for index in range(num_threads):
        sim.spawn(
            EpochSGDProgram(
                model=model,
                counter=counter,
                objective=objective,
                step_size=0.05,
                max_iterations=iterations,
                use_write=use_write,
            ),
            name=f"worker-{index}",
        )
    return sim


class TestSanitizer:
    def test_racy_write_program_is_flagged(self):
        sim = _build_sim(RandomScheduler(seed=3), use_write=True)
        sanitizer = RaceStalenessSanitizer()
        sim.attach_analyzer(sanitizer)
        sim.run_analyzed()
        lost = [
            f
            for f in sanitizer.findings
            if f.rule == RULE_LOST_UPDATE and f.severity == "error"
        ]
        assert lost, "use_write ablation must produce lost-update findings"
        assert all(f.location.startswith("model[") for f in lost)
        assert sanitizer.counts[RULE_LOST_UPDATE] >= len(lost)

    def test_stock_epoch_sgd_is_clean(self):
        sim = _build_sim(RandomScheduler(seed=5))
        sanitizer = RaceStalenessSanitizer()
        sim.attach_analyzer(sanitizer)
        sim.run_analyzed()
        assert sanitizer.clean, [str(f) for f in sanitizer.findings]

    def test_full_sgd_is_clean(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))
        driver = FullSGD(
            objective,
            num_threads=4,
            epsilon=0.25,
            alpha0=0.05,
            iterations_per_epoch=40,
            num_epochs=2,
            x0=np.full(2, 2.0),
        )
        sanitizer = RaceStalenessSanitizer()
        result = driver.run(
            RandomScheduler(seed=7), seed=7, analyzers=(sanitizer,)
        )
        assert sanitizer.clean, [str(f) for f in sanitizer.findings]
        assert result.total_iterations == 80

    def test_requires_memory_log(self):
        sim = _build_sim(RandomScheduler(seed=1), record_log=False)
        with pytest.raises(ConfigurationError):
            sim.attach_analyzer(RaceStalenessSanitizer())

    def test_torn_update_on_mid_update_crash(self):
        # Adversarially crash thread 0 the moment it enters its update
        # phase: the partially applied multi-component gradient is a torn
        # update (annotations phase == "update", pending_gradient set).
        sim = _build_sim(RandomScheduler(seed=11), seed=11)
        sanitizer = RaceStalenessSanitizer()
        sim.attach_analyzer(sanitizer)
        while not sim.is_done:
            annotations = sim.annotations(0)
            if (
                annotations.get("phase") == "update"
                and annotations.get("pending_gradient") is not None
            ):
                sim.crash(0)
                break
            sim.step()
        sim.run_analyzed()
        torn = [f for f in sanitizer.findings if f.rule == RULE_TORN_UPDATE]
        assert torn and torn[0].severity == "warning"
        assert torn[0].thread_id == 0

    def test_run_analyzed_matches_run_fast_schedule(self):
        plain = _build_sim(RandomScheduler(seed=9), record_log=False)
        plain.run_fast()
        analyzed = _build_sim(RandomScheduler(seed=9))
        analyzed.attach_analyzer(RaceStalenessSanitizer())
        analyzed.run_analyzed(chunk=7)  # awkward chunk size on purpose
        assert analyzed.now == plain.now
        model = analyzed.memory.segment("model")
        np.testing.assert_array_equal(
            analyzed.memory.peek_range(model.base, model.length),
            plain.memory.peek_range(model.base, model.length),
        )
        records_a = collect_iteration_records(analyzed)
        records_b = collect_iteration_records(plain)
        assert [r.order_time for r in records_a] == [
            r.order_time for r in records_b
        ]

    def test_run_lock_free_sgd_accepts_analyzers(self):
        objective = IsotropicQuadratic(dim=2, noise=GaussianNoise(0.2))
        sanitizer = RaceStalenessSanitizer()
        baseline = run_lock_free_sgd(
            objective,
            RandomScheduler(seed=21),
            num_threads=3,
            step_size=0.05,
            iterations=45,
            seed=21,
        )
        analyzed = run_lock_free_sgd(
            objective,
            RandomScheduler(seed=21),
            num_threads=3,
            step_size=0.05,
            iterations=45,
            seed=21,
            analyzers=(sanitizer,),
        )
        assert sanitizer.clean
        assert analyzed.sim_steps == baseline.sim_steps
        np.testing.assert_array_equal(analyzed.x_final, baseline.x_final)


class TestLemmaCertificates:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            lambda: RandomScheduler(seed=17),
            lambda: StaleGradientAttack(victim=1, runner=0, delay=8),
            lambda: ContentionMaximizer(),
        ],
        ids=["random", "stale-attack", "contention-max"],
    )
    def test_certificates_hold_under_adversaries(self, scheduler_factory):
        sim = _build_sim(scheduler_factory(), iterations=80, seed=17)
        sim.run_fast()
        records = collect_iteration_records(sim)
        certificates = certify_run(records, num_threads=4)
        assert [c.lemma for c in certificates] == ["6.1", "6.2", "6.4"]
        for certificate in certificates:
            assert certificate.holds, str(certificate)

    def test_certificate_violation_detected(self):
        sim = _build_sim(RandomScheduler(seed=2), iterations=40, seed=2)
        sim.run_fast()
        records = collect_iteration_records(sim)
        # Forge a duplicate claimed index: Lemma 6.1 must fail.
        forged = records + [records[-1]]
        certificates = certify_run(forged, num_threads=4)
        assert not certificates[0].holds


class TestReplayRoundTrip:
    def test_replayed_schedule_reproduces_the_report(self):
        recorder = RecordingScheduler(RandomScheduler(seed=13))
        sim = _build_sim(recorder, use_write=True, seed=13)
        first = RaceStalenessSanitizer()
        sim.attach_analyzer(first)
        sim.run_analyzed()

        replay = _build_sim(
            ReplayScheduler(recorder.schedule), use_write=True, seed=13
        )
        second = RaceStalenessSanitizer()
        replay.attach_analyzer(second)
        replay.run_analyzed(chunk=11)

        def report(sanitizer, sim_):
            run = sanitize_report_run(sanitizer, sim_)
            rep = AnalysisReport(runs=[run])
            return rep.to_json()

        def sanitize_report_run(sanitizer, sim_):
            from repro.analysis.report import RunAnalysis

            records = collect_iteration_records(sim_)
            return RunAnalysis(
                label="round-trip",
                steps=sim_.now,
                iterations=len(records),
                findings=list(sanitizer.findings),
                certificates=certify_run(records, num_threads=4),
            )

        assert report(first, sim) == report(second, replay)


class TestSanitizePresets:
    def test_racy_preset_fails(self):
        presets = sanitize_presets()
        report = run_sanitize((presets["racy"],), seeds=(1,))
        assert not report.passed
        assert any(f.rule == RULE_LOST_UPDATE for f in report.findings)

    def test_clean_presets_pass_and_reports_are_deterministic(self):
        presets = sanitize_presets()
        grid = (presets["e1"],)
        first = run_sanitize(grid, seeds=(1, 2))
        second = run_sanitize(grid, seeds=(1, 2))
        assert first.passed
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_jobs_do_not_change_the_report(self):
        presets = sanitize_presets()
        grid = (presets["e1"],)
        serial = run_sanitize(grid, seeds=(1, 2, 3, 4), jobs=1)
        parallel = run_sanitize(grid, seeds=(1, 2, 3, 4), jobs=2)
        assert serial.to_json() == parallel.to_json()


WALL_CLOCK_FIXTURE = '''
import time

def stamp():
    return time.time()
'''

RACY_PROGRAM_FIXTURE = '''
def program(model):
    value = yield model.read_op(0)
    yield model.write_op(0, value + 1.0)
'''

PRAGMA_FIXTURE = '''
def program(model):
    value = yield model.read_op(0)
    yield model.write_op(0, value + 1.0)  # repro: allow(RPL101)
'''

BAD_YIELD_FIXTURE = '''
def program(model):
    yield model.read_op(0)
    yield 42
'''

DIRECT_MUTATION_FIXTURE = '''
def program(self, ctx):
    value = yield self.model.read_op(0)
    self.model[0] = value + 1.0
    self.model.load([value])
    raw = self.model._values[0]
    yield self.model.fetch_add_op(0, -value)
'''

DIRECT_MUTATION_PRAGMA_FIXTURE = '''
def program(self, ctx):
    value = yield self.model.read_op(0)
    self.model.load([value])  # repro: allow(RPL103)
    yield self.model.fetch_add_op(0, -value)
'''

DRIVER_LOAD_FIXTURE = '''
def driver(model, x0):
    model.load(x0)
    model[0] = 1.0
    return model.snapshot()
'''

GLOBAL_RANDOM_FIXTURE = '''
import random
import numpy as np

def draw():
    a = random.random()
    b = np.random.randn(3)
    return a, b
'''

SET_ITERATION_FIXTURE = '''
def wobble(items):
    for item in {1, 2, 3}:
        pass
    for item in set(items):
        pass
'''

WALL_CLOCK_REPORT_FIXTURE = '''
class Report:
    def to_json(self):
        return {"steps": self.steps, "wall_secs": self.wall_secs}

    def as_dict(self):
        def rows():
            return [{"elapsed": 1.0}]
        return {"rows": rows(), "label": self.label}

def helper():
    # Same key names outside a report builder: not RPD204's business.
    return {"duration": 3, "monotonic": 4}
'''

WALL_CLOCK_REPORT_PRAGMA_FIXTURE = '''
def to_payload(run):
    return {
        "wall_secs": run.wall,  # repro: allow(RPD204)
        "steps": run.steps,
    }
'''

UNBOUNDED_RETRY_FIXTURE = '''
def program(register):
    while True:
        value = yield register.read_op()
        if value > 0:
            break
'''

BOUNDED_RETRY_FIXTURE = '''
def program(register, max_attempts):
    attempts = 0
    while True:
        value = yield register.read_op()
        if value > 0 or attempts >= max_attempts:
            break
        attempts += 1
'''

UNBOUNDED_RETRY_PRAGMA_FIXTURE = '''
def program(register):
    while True:  # repro: allow(RPL105)
        value = yield register.read_op()
        if value > 0:
            break
'''

UNBOUNDED_DRIVER_FIXTURE = '''
def poll(queue):
    # No op yields: not a simulated program, so RPL105 stays silent.
    while True:
        item = queue.get()
        if item is None:
            break
'''

SERVE_TIMING_FIXTURE = '''
import asyncio
import time

async def handler(policy):
    start = time.monotonic()
    time.sleep(0.1)
    now = time.time()
    await asyncio.sleep(0.5)
    await asyncio.wait_for(work(), timeout=2.0)
'''

SERVE_TIMING_INJECTED_FIXTURE = '''
import asyncio

async def handler(clock, policy):
    start = clock.monotonic()
    await clock.aio_sleep(policy.poll_interval)
    # Non-literal delays are the policy's business, not RPL106's.
    await asyncio.sleep(policy.poll_interval)
    await asyncio.wait_for(work(), timeout=policy.read_timeout)
'''

SERVE_TIMING_PRAGMA_FIXTURE = '''
import time

def tick():
    return time.monotonic()  # repro: allow(RPD201, RPL106)
'''

SPAN_NAME_FIXTURE = '''
from repro.obs.causal import trace_span

def instrumented(recorder, causal, spec):
    with trace_span("campaign.spec", spec=spec.name):
        pass
    with trace_span(f"campaign.{spec.name}"):
        pass
    with trace_span("campaign-" + spec.name):
        pass
    with trace_span("Campaign"):
        pass
    recorder.span("worker.run", key="attempt-1")
    causal.event(spec.name, det=True)
    unrelated.span(f"not.{spec.name}")
'''

SPAN_NAME_PRAGMA_FIXTURE = '''
def forwarder(causal, name, args):
    with causal.span(name, **args):  # repro: allow(RPL107)
        pass
'''


class TestLint:
    def test_wall_clock_is_flagged(self):
        findings = lint_source(WALL_CLOCK_FIXTURE, path="fixture.py")
        assert [f.rule for f in findings] == ["RPD201"]
        assert "time.time" in findings[0].message

    def test_non_atomic_rmw_is_flagged(self):
        findings = lint_source(RACY_PROGRAM_FIXTURE, path="fixture.py")
        assert any(f.rule == "RPL101" for f in findings)

    def test_pragma_suppresses_the_rule(self):
        findings = lint_source(PRAGMA_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL101"]

    def test_non_operation_yield_is_flagged(self):
        findings = lint_source(BAD_YIELD_FIXTURE, path="fixture.py")
        assert any(f.rule == "RPL102" for f in findings)

    def test_direct_mutation_is_flagged(self):
        findings = lint_source(DIRECT_MUTATION_FIXTURE, path="fixture.py")
        hits = [f for f in findings if f.rule == "RPL103"]
        # The subscript store, the .load() call and the ._values reach.
        assert len(hits) == 3

    def test_direct_mutation_pragma_suppresses(self):
        findings = lint_source(
            DIRECT_MUTATION_PRAGMA_FIXTURE, path="fixture.py"
        )
        assert not [f for f in findings if f.rule == "RPL103"]

    def test_driver_mutation_is_not_flagged(self):
        # Bulk loads in drivers (no op yields -> not a program) are fine.
        findings = lint_source(DRIVER_LOAD_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL103"]

    def test_global_random_is_flagged(self):
        findings = lint_source(GLOBAL_RANDOM_FIXTURE, path="fixture.py")
        assert sum(1 for f in findings if f.rule == "RPD202") == 2

    def test_set_iteration_is_flagged(self):
        findings = lint_source(SET_ITERATION_FIXTURE, path="fixture.py")
        assert sum(1 for f in findings if f.rule == "RPD203") == 2

    def test_wall_clock_report_keys_are_flagged(self):
        findings = lint_source(WALL_CLOCK_REPORT_FIXTURE, path="fixture.py")
        hits = [f for f in findings if f.rule == "RPD204"]
        # to_json's wall_secs + the nested helper's elapsed inside
        # as_dict; the free helper() dict is exempt.
        assert len(hits) == 2
        assert any("'wall_secs'" in f.message for f in hits)
        assert any("'elapsed'" in f.message for f in hits)
        assert all("helper" not in f.message for f in hits)

    def test_wall_clock_report_pragma_suppresses(self):
        findings = lint_source(
            WALL_CLOCK_REPORT_PRAGMA_FIXTURE, path="fixture.py"
        )
        assert not [f for f in findings if f.rule == "RPD204"]

    def test_unbounded_spin_is_flagged(self):
        findings = lint_source(UNBOUNDED_RETRY_FIXTURE, path="fixture.py")
        hits = [f for f in findings if f.rule == "RPL105"]
        assert len(hits) == 1
        assert "enumeration" in hits[0].message

    def test_bounded_retry_guard_passes(self):
        findings = lint_source(BOUNDED_RETRY_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL105"]

    def test_unbounded_spin_pragma_suppresses(self):
        findings = lint_source(
            UNBOUNDED_RETRY_PRAGMA_FIXTURE, path="fixture.py"
        )
        assert not [f for f in findings if f.rule == "RPL105"]

    def test_non_program_loops_are_not_flagged(self):
        findings = lint_source(UNBOUNDED_DRIVER_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL105"]

    def test_serve_timing_calls_are_flagged_under_serve(self):
        findings = lint_source(
            SERVE_TIMING_FIXTURE, path="src/repro/serve/handler.py"
        )
        hits = [f for f in findings if f.rule == "RPL106"]
        # time.monotonic, time.sleep, time.time, asyncio.sleep(0.5)
        # and asyncio.wait_for(..., timeout=2.0): all five.
        assert len(hits) == 5

    def test_serve_timing_outside_serve_is_silent(self):
        findings = lint_source(SERVE_TIMING_FIXTURE, path="src/other/mod.py")
        assert not [f for f in findings if f.rule == "RPL106"]

    def test_serve_injected_clock_and_policy_delays_pass(self):
        findings = lint_source(
            SERVE_TIMING_INJECTED_FIXTURE, path="src/repro/serve/handler.py"
        )
        assert not [f for f in findings if f.rule == "RPL106"]

    def test_serve_timing_pragma_suppresses(self):
        findings = lint_source(
            SERVE_TIMING_PRAGMA_FIXTURE, path="src/repro/serve/clockish.py"
        )
        assert not [f for f in findings if f.rule in ("RPL106", "RPD201")]

    def test_span_name_literals_pass_dynamic_names_flagged(self):
        findings = lint_source(SPAN_NAME_FIXTURE, path="fixture.py")
        hits = [f for f in findings if f.rule == "RPL107"]
        # The f-string, the concatenation, the non-dotted "Campaign"
        # literal, and causal.event(spec.name); the two good dotted
        # literals and the unrelated receiver stay silent.
        assert len(hits) == 4
        assert any("f-string" in f.message for f in hits)
        assert any("dynamic expression" in f.message for f in hits)
        assert any("dotted lowercase" in f.message for f in hits)

    def test_span_name_pragma_suppresses(self):
        findings = lint_source(SPAN_NAME_PRAGMA_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL107"]

    def test_repo_sources_are_clean(self):
        findings = lint_paths(["src/repro"])
        assert findings == [], render_findings(findings)

    def test_findings_render_deterministically(self, tmp_path):
        target = tmp_path / "fixture.py"
        target.write_text(WALL_CLOCK_FIXTURE)
        first = render_findings(lint_paths([str(tmp_path)]))
        second = render_findings(lint_paths([str(tmp_path)]))
        assert first == second
        assert "RPD201" in first


class TestCli:
    def test_sanitize_cli_racy_fails(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--presets", "racy", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "RS001" in out

    def test_sanitize_cli_clean_passes_and_writes_artifacts(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        code = main(
            [
                "sanitize",
                "--presets",
                "e1",
                "--seeds",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert (tmp_path / "analysis_report.txt").exists()
        assert (tmp_path / "analysis_report.json").exists()

    def test_sanitize_cli_rejects_unknown_preset(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--presets", "nope"]) == 2

    def test_lint_cli(self, capsys, tmp_path):
        from repro.cli import main

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(WALL_CLOCK_FIXTURE)
        assert main(["lint", str(dirty)]) == 1
        assert main(["lint", str(tmp_path / "missing.py")]) == 2


class TestFindingModel:
    def test_monitor_violations_are_findings(self):
        from repro.faults.monitors import Violation

        violation = Violation(
            source="model-finite",
            rule="monitor:model-finite",
            message="model[0] is inf",
            time=12,
        )
        assert isinstance(violation, Finding)
        assert violation.monitor == "model-finite"
        assert str(violation) == "[model-finite @ t=12] model[0] is inf"
        assert violation.as_dict()["severity"] == "error"


MUTATING_DETECTOR_FIXTURE = '''
class QuietDetector:
    def check(self, sim):
        view = sim.memory.peek_range(0, 4)
        sim.memory.poke(0, 0.0)
        sim.memory.load([0.0])
        raw = sim.memory._values[0]
        return None
'''

MUTATING_DETECTOR_PRAGMA_FIXTURE = '''
class QuietDetector:
    def check(self, sim):
        sim.memory.poke(0, 0.0)  # repro: allow(RPL104)
        return None
'''

READ_ONLY_DETECTOR_FIXTURE = '''
import json

class HonestDetector:
    def check(self, sim):
        view = sim.memory.peek_range(0, 4)
        with open("config.json") as handle:
            config = json.load(handle)
        return None
'''

DETECTOR_BY_BASE_FIXTURE = '''
from repro.heal.detectors import HealthDetector

class Sneaky(HealthDetector):
    def check(self, sim):
        sim.memory.store(0, 1.0)
        return None
'''

NON_DETECTOR_POKE_FIXTURE = '''
class Driver:
    def prepare(self, sim):
        sim.memory.poke(0, 2.0)  # drivers may poke; not a detector
'''


class TestLintDetectorPurity:
    """RPL104: health detectors are read-only observers."""

    def test_mutating_detector_is_flagged_per_sin(self):
        findings = lint_source(MUTATING_DETECTOR_FIXTURE, path="fixture.py")
        hits = [f for f in findings if f.rule == "RPL104"]
        # The .poke() call, the memory.load() call and the ._values reach.
        assert len(hits) == 3
        assert all("QuietDetector" in f.message for f in hits)

    def test_pragma_suppresses(self):
        findings = lint_source(
            MUTATING_DETECTOR_PRAGMA_FIXTURE, path="fixture.py"
        )
        assert not [f for f in findings if f.rule == "RPL104"]

    def test_read_only_detector_is_clean(self):
        # peek_range is fine, and json.load is not a memory mutation.
        findings = lint_source(READ_ONLY_DETECTOR_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL104"]

    def test_healthdetector_subclass_caught_by_base(self):
        findings = lint_source(DETECTOR_BY_BASE_FIXTURE, path="fixture.py")
        assert [f.rule for f in findings] == ["RPL104"]

    def test_non_detector_classes_exempt(self):
        findings = lint_source(NON_DETECTOR_POKE_FIXTURE, path="fixture.py")
        assert not [f for f in findings if f.rule == "RPL104"]

    def test_shipped_detectors_pass_their_own_rule(self):
        findings = lint_paths(["src/repro/heal"])
        assert findings == [], render_findings(findings)
