"""Tests for the verification tier (DESIGN.md §16).

Covers the independence relation, the sleep-set enumerator (coverage vs
the brute-force tree on tiny hand-rolled programs), the verify grid
engine (clean certificates, mutant counterexamples, replay determinism,
byte-identical parallel/journaled reports), the SMT lemma queries and
the report model.
"""

import itertools
import json

import pytest

from repro.durable.journal import RunJournal
from repro.errors import ConfigurationError
from repro.experiments.grid import get_campaign, write_report
from repro.runtime.program import FunctionProgram
from repro.runtime.simulator import Simulator
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory
from repro.shm.ops import (
    CompareAndSwap,
    DoubleCompareSingleSwap,
    FetchAdd,
    Noop,
    Operation,
    Read,
    Write,
)
from repro.shm.register import AtomicRegister
from repro.verify import (
    SmtConfig,
    VerifyConfig,
    VerifyScope,
    check_lemma_6_4,
    check_theorem_5_1,
    enumerate_schedules,
    ops_conflict,
    run_smt_queries,
    solver_available,
    verify_variant_names,
)
from repro.verify.engine import _verify_worker
from repro.verify.enumerator import frontier_digest
from repro.verify.report import (
    Counterexample,
    VerifyCellOutcome,
    cell_passed,
    outcome_from_payload,
    outcome_to_payload,
)
from repro.verify.smt import _window_sums

VERIFY = get_campaign("verify")


class TestIndependence:
    def test_reads_commute(self):
        assert not ops_conflict(Read(0), Read(0))

    def test_write_conflicts_with_read_on_same_cell(self):
        assert ops_conflict(Write(3, 1.0), Read(3))
        assert ops_conflict(Read(3), Write(3, 1.0))

    def test_disjoint_addresses_commute(self):
        assert not ops_conflict(Write(0, 1.0), Write(1, 2.0))
        assert not ops_conflict(FetchAdd(0, 1.0), FetchAdd(1, 1.0))

    def test_fetch_adds_on_same_cell_conflict(self):
        # The returned pre-values swap with the order.
        assert ops_conflict(FetchAdd(2, 1.0), FetchAdd(2, 1.0))

    def test_cas_is_a_writer(self):
        assert ops_conflict(CompareAndSwap(1, 0.0, 2.0), Read(1))

    def test_dcss_guard_read_conflicts_with_guard_writer(self):
        dcss = DoubleCompareSingleSwap(
            address=2, expected=0.0, new=1.0, guard_address=0
        )
        assert ops_conflict(dcss, Write(0, 9.0))
        # But a plain read of the guard commutes with the DCSS.
        assert not ops_conflict(dcss, Read(0))

    def test_noop_commutes_with_everything_known(self):
        assert not ops_conflict(Noop(0), Write(0, 1.0))

    def test_unknown_opcode_conflicts_with_everything(self):
        class Mystery(Operation):
            pass

        assert ops_conflict(Mystery(0), Noop(5))
        assert ops_conflict(Noop(5), Mystery(0))


# ---------------------------------------------------------------------------
# Tiny factories for enumerator tests
# ---------------------------------------------------------------------------


def _writer_body(reg, values):
    def body(ctx, reg=reg, values=values):
        for v in values:
            yield reg.write_op(float(v))

    return body


def independent_factory(scheduler):
    """Two threads, two writes each, to disjoint registers."""
    memory = SharedMemory(record_log=True)
    sim = Simulator(memory, scheduler, seed=0)
    for tid in range(2):
        reg = AtomicRegister(memory, memory.allocate(1))
        sim.spawn(
            FunctionProgram(
                _writer_body(reg, [tid * 10, tid * 10 + 1]), name=f"w{tid}"
            )
        )
    return sim


def _racy_increment_body(counter):
    def body(ctx, counter=counter):
        seen = yield counter.read_count_op()
        yield counter.increment_op()
        return seen

    return body


def racy_factory(scheduler, record_log=True):
    """Two threads doing read-then-fetch&add on one shared counter."""
    memory = SharedMemory(record_log=record_log)
    sim = Simulator(memory, scheduler, seed=0)
    counter = AtomicCounter.allocate(memory)
    for tid in range(2):
        sim.spawn(FunctionProgram(_racy_increment_body(counter), name=f"r{tid}"))
    return sim


def contending_factory(scheduler):
    """Two threads, one fetch&add each, same counter — two distinct traces."""
    memory = SharedMemory(record_log=True)
    sim = Simulator(memory, scheduler, seed=0)
    counter = AtomicCounter.allocate(memory)

    def one_increment(ctx, counter=counter):
        return (yield counter.increment_op())

    for tid in range(2):
        sim.spawn(FunctionProgram(one_increment, name=f"c{tid}"))
    return sim


class TestEnumerator:
    def test_independent_ops_collapse_to_one_schedule(self):
        por = enumerate_schedules(independent_factory, max_steps=8)
        full = enumerate_schedules(independent_factory, max_steps=8, por=False)
        # 4 steps, 2 per thread: C(4,2) = 6 interleavings, 1 trace.
        assert full.stats.schedules == 6
        assert por.stats.schedules == 1
        assert por.stats.sleep_skips > 0
        assert por.exhaustive and full.exhaustive

    def test_conflicting_ops_keep_both_orders(self):
        por = enumerate_schedules(contending_factory, max_steps=8, collect=True)
        full = enumerate_schedules(
            contending_factory, max_steps=8, por=False, collect=True
        )
        # One conflicting step each: both orders are distinct traces.
        assert full.stats.schedules == 2
        assert por.stats.schedules == 2
        assert por.schedules == full.schedules == ((0, 1), (1, 0))

    def test_por_covers_every_terminal_state(self):
        """The reduction keeps >= 1 representative per trace, so the set
        of reachable terminal states is exactly the full tree's."""

        def digests(por):
            seen = set()
            enumerate_schedules(
                racy_factory,
                max_steps=8,
                por=por,
                on_schedule=lambda sim, s: seen.add(sim.state_digest()),
            )
            return seen

        por, full = digests(True), digests(False)
        assert por == full
        reduced = enumerate_schedules(racy_factory, max_steps=8)
        unreduced = enumerate_schedules(racy_factory, max_steps=8, por=False)
        assert reduced.stats.schedules < unreduced.stats.schedules

    def test_collect_matches_schedule_count_and_replays(self):
        result = enumerate_schedules(racy_factory, max_steps=8, collect=True)
        assert result.schedules is not None
        assert len(result.schedules) == result.stats.schedules
        # Every collected schedule is a complete run of 4 steps.
        assert all(len(s) == 4 for s in result.schedules)
        assert result.stats.replays == result.stats.nodes

    def test_budget_hits_void_exhaustiveness(self):
        truncated = []
        result = enumerate_schedules(
            racy_factory,
            max_steps=2,
            on_budget=lambda sim, prefix: truncated.append(prefix),
        )
        assert result.stats.budget_hits > 0
        assert not result.exhaustive
        assert truncated and all(len(p) == 2 for p in truncated)

    def test_max_nodes_cap_raises(self):
        with pytest.raises(ConfigurationError):
            enumerate_schedules(racy_factory, max_steps=8, max_nodes=3)

    def test_bad_scope_arguments_raise(self):
        with pytest.raises(ConfigurationError):
            enumerate_schedules(racy_factory, max_steps=0)
        with pytest.raises(ConfigurationError):
            enumerate_schedules(racy_factory, max_steps=4, max_nodes=0)

    def test_memoization_preserves_terminal_digests(self):
        plain, memo = set(), set()
        base = enumerate_schedules(
            racy_factory,
            max_steps=8,
            por=False,
            on_schedule=lambda sim, s: plain.add(sim.state_digest()),
        )
        memod = enumerate_schedules(
            racy_factory,
            max_steps=8,
            por=False,
            memoize=True,
            on_schedule=lambda sim, s: memo.add(sim.state_digest()),
        )
        assert memod.stats.memo_skips > 0
        assert memod.stats.schedules <= base.stats.schedules
        assert memo <= plain

    def test_frontier_digest_requires_operation_log(self):
        def silent_factory(scheduler):
            return racy_factory(scheduler, record_log=False)

        with pytest.raises(ConfigurationError):
            enumerate_schedules(silent_factory, max_steps=8, memoize=True)

    def test_frontier_digest_separates_histories(self):
        from repro.sched.sequential import SequentialScheduler

        a = racy_factory(SequentialScheduler())
        b = racy_factory(SequentialScheduler())
        a.step()
        b.step()
        assert frontier_digest(a) == frontier_digest(b)
        b.step()
        assert frontier_digest(a) != frontier_digest(b)


SMALL_SCOPE = VerifyScope(threads=2, iterations=1)


class TestVerifyEngine:
    def test_clean_variant_certifies_universally(self):
        config = VerifyConfig(variants=("epoch-sgd",), scope=SMALL_SCOPE)
        outcome = _verify_worker(config, "epoch-sgd", 1)
        assert outcome.expectation == "clean"
        assert outcome.counterexample_count == 0
        assert outcome.budget_hits == 0
        assert outcome.schedules > 0
        # The acceptance floor: POR prunes at least 2x of the full tree.
        assert outcome.reduction_factor >= 2.0
        assert all(
            status in ("holds", "n/a") for _lemma, status in outcome.certificates
        )
        assert cell_passed(outcome)

    def test_torn_counter_mutant_yields_replayable_counterexample(self):
        config = VerifyConfig(
            variants=("mutant-torn-counter",), scope=SMALL_SCOPE
        )
        outcome = _verify_worker(config, "mutant-torn-counter", 1)
        assert outcome.expectation == "mutant"
        assert outcome.counterexample_count >= 1
        assert outcome.counterexamples
        # Deterministic replay through PrefixReplayScheduler reproduced
        # identical findings and final state digest on every kept one.
        assert all(cx.replay_ok for cx in outcome.counterexamples)
        # Oracle agreement: the sanitizer flags the enumerated schedule.
        assert outcome.sanitizer_agreement
        # The torn claim duplicates iteration indices: Lemma 6.1 breaks.
        statuses = dict(outcome.certificates)
        assert statuses["6.1"].startswith("violated:")
        assert cell_passed(outcome)

    def test_lost_update_mutant_is_flagged_by_sanitizer(self):
        config = VerifyConfig(
            variants=("mutant-lost-update",),
            scope=SMALL_SCOPE,
            measure_full_tree=False,
        )
        outcome = _verify_worker(config, "mutant-lost-update", 1)
        # The spec forces two iterations so the race can exist.
        assert outcome.iterations == 2
        assert outcome.counterexample_count >= 1
        assert any(
            "lost update" in line
            for cx in outcome.counterexamples
            for line in cx.findings
        )
        assert cell_passed(outcome)

    def test_reports_are_byte_identical_across_jobs(self):
        def config(jobs):
            return VerifyConfig(
                variants=("epoch-sgd", "mutant-torn-counter"),
                scope=SMALL_SCOPE,
                measure_full_tree=False,
                jobs=jobs,
            )

        serial = VERIFY.run(config(1)).to_json()
        parallel = VERIFY.run(config(2)).to_json()
        assert serial == parallel

    def test_journal_resume_is_byte_identical(self, tmp_path):
        config = VerifyConfig(
            variants=("epoch-sgd",), scope=SMALL_SCOPE, measure_full_tree=False
        )
        path = tmp_path / "verify.journal"
        fingerprint = VERIFY.fingerprint(config)
        journal = RunJournal.open(path, fingerprint)
        first = VERIFY.run(config, journal=journal).to_json()
        journal.close()
        resumed = RunJournal.open(path, fingerprint, resume=True)
        second = VERIFY.run(config, journal=resumed).to_json()
        resumed.close()
        assert first == second == VERIFY.run(config).to_json()

    def test_partial_report_covers_only_journaled_cells(self, tmp_path):
        small = VerifyConfig(
            variants=("epoch-sgd",), scope=SMALL_SCOPE, measure_full_tree=False
        )
        path = tmp_path / "verify.journal"
        journal = RunJournal.open(path, VERIFY.fingerprint(small))
        VERIFY.run(small, journal=journal)
        wider = VerifyConfig(
            variants=("epoch-sgd", "mutant-torn-counter"),
            scope=SMALL_SCOPE,
            measure_full_tree=False,
        )
        partial = VERIFY.partial_report(wider, journal)
        journal.close()
        assert [o.variant for o in partial.outcomes] == ["epoch-sgd"]

    def test_outcome_payload_round_trips_through_json(self):
        config = VerifyConfig(
            variants=("mutant-torn-counter",),
            scope=SMALL_SCOPE,
            measure_full_tree=False,
        )
        outcome = _verify_worker(config, "mutant-torn-counter", 1)
        payload = json.loads(json.dumps(outcome_to_payload(outcome)))
        assert outcome_from_payload(payload) == outcome

    def test_fingerprint_ignores_jobs_but_not_scope(self):
        base = VerifyConfig(variants=("epoch-sgd",))
        assert VERIFY.fingerprint(base) == VERIFY.fingerprint(
            VerifyConfig(variants=("epoch-sgd",), jobs=4)
        )
        assert VERIFY.fingerprint(base) != VERIFY.fingerprint(
            VerifyConfig(variants=("epoch-sgd",), scope=VerifyScope(threads=3))
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            VerifyConfig(variants=())
        with pytest.raises(ConfigurationError):
            VerifyConfig(variants=("no-such-variant",))
        with pytest.raises(ConfigurationError):
            VerifyConfig(seeds=())
        with pytest.raises(ConfigurationError):
            VerifyConfig(max_counterexamples=0)
        with pytest.raises(ConfigurationError):
            VerifyScope(threads=0)
        with pytest.raises(ConfigurationError):
            VerifyScope(iterations=0)
        with pytest.raises(ConfigurationError):
            VerifyScope(step_size=0.0)
        with pytest.raises(ConfigurationError):
            VerifyScope(max_steps=0)

    def test_variant_names_union_mutants_and_algorithms(self):
        names = verify_variant_names()
        assert "epoch-sgd" in names
        assert "mutant-torn-counter" in names
        assert "mutant-lost-update" in names
        assert names == tuple(sorted(names))


class TestSmt:
    def test_lemma_6_4_proved_across_default_grid(self):
        for n, tau in itertools.product(range(1, 4), range(1, 5)):
            result = check_lemma_6_4(n, tau, horizon=8, engine="finite")
            assert result.proved, str(result)

    def test_lemma_6_4_refuted_outside_envelope_regime(self):
        # tau_max > 4n: the envelope bound S <= tau_max exceeds
        # 2*sqrt(tau_max*n), and the extremal sequence realizes it.
        result = check_lemma_6_4(1, 8, horizon=16, engine="finite")
        assert result.status == "refuted"
        assert "extremal" in result.detail

    def test_extremal_sequence_dominates_brute_force(self):
        """The finite engine's one-shot decision: the componentwise-max
        delay sequence attains the max window sum over ALL feasible
        sequences (monotonicity), checked here by brute force."""
        tau_max, horizon = 2, 5
        envelopes = [range(1, min(t, tau_max) + 1) for t in range(1, horizon + 1)]
        brute = max(
            max(_window_sums(list(delays), tau_max), default=0)
            for delays in itertools.product(*envelopes)
        )
        extremal = [min(t, tau_max) for t in range(1, horizon + 1)]
        assert max(_window_sums(extremal, tau_max), default=0) == brute

    def test_theorem_5_1_progress_floor(self):
        for alpha in ("1/10", "1/5", "1/3"):
            result = check_theorem_5_1(alpha, engine="finite")
            assert result.proved, str(result)

    def test_z3_engine_skips_gracefully_when_missing(self):
        result = check_lemma_6_4(2, 2, horizon=8, engine="z3")
        if solver_available():
            assert result.proved
        else:
            assert result.status == "skipped"
            assert "z3" in result.detail

    def test_default_query_grid_all_decided(self):
        results = run_smt_queries(SmtConfig())
        # 3 x 4 Lemma 6.4 points + 2 Theorem 5.1 alphas.
        assert len(results) == 14
        assert all(r.status == "proved" for r in results)
        engines = {r.engine for r in results}
        assert engines <= {"z3", "finite"}

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            check_lemma_6_4(0, 1, 8)
        with pytest.raises(ConfigurationError):
            check_theorem_5_1("3/2")
        with pytest.raises(ConfigurationError):
            SmtConfig(engine="prolog")
        with pytest.raises(ConfigurationError):
            SmtConfig(alphas=("2",))
        with pytest.raises(ConfigurationError):
            SmtConfig(max_n=0)


def _outcome(**overrides):
    base = dict(
        variant="epoch-sgd",
        seed=1,
        expectation="clean",
        threads=2,
        iterations=1,
        max_steps=48,
        schedules=4,
        interleavings=12,
        nodes=9,
        sleep_skips=2,
        memo_skips=0,
        budget_hits=0,
        reduction_factor=3.0,
        counterexample_count=0,
        counterexamples=(),
        sanitizer_agreement=True,
        certificates=(("6.1", "holds"), ("6.2", "n/a"), ("6.4", "holds")),
    )
    base.update(overrides)
    return VerifyCellOutcome(**base)


class TestReportModel:
    def test_clean_cell_passes_and_violation_fails(self):
        assert cell_passed(_outcome())
        assert not cell_passed(
            _outcome(
                counterexample_count=2,
                certificates=(("6.1", "violated:2"),),
            )
        )

    def test_budget_hit_always_fails(self):
        assert not cell_passed(_outcome(budget_hits=1))

    def test_mutant_needs_replayable_flagged_counterexample(self):
        cx = Counterexample(
            schedule=(0, 1, 0), findings=("[race-staleness @ t=1] RS001",),
            replay_ok=True,
        )
        good = _outcome(
            variant="mutant-torn-counter",
            expectation="mutant",
            counterexample_count=1,
            counterexamples=(cx,),
        )
        assert cell_passed(good)
        assert not cell_passed(
            _outcome(expectation="mutant", counterexample_count=0)
        )
        diverged = Counterexample(
            schedule=(0, 1, 0), findings=cx.findings, replay_ok=False
        )
        assert not cell_passed(
            _outcome(
                expectation="mutant",
                counterexample_count=1,
                counterexamples=(diverged,),
            )
        )
        assert not cell_passed(
            _outcome(
                expectation="mutant",
                counterexample_count=1,
                counterexamples=(cx,),
                sanitizer_agreement=False,
            )
        )

    def test_report_json_is_deterministic_and_newline_terminated(self):
        from repro.verify.report import VerifyReport

        report = VerifyReport(outcomes=[_outcome()], smt_results=[])
        first, second = report.to_json(), report.to_json()
        assert first == second
        assert first.endswith("\n")
        payload = json.loads(first)
        assert payload["passed"] is True
        assert "verdict: PASS" in report.render()

    def test_report_write_rejects_unknown_format(self, tmp_path):
        from repro.verify.report import VerifyReport

        report = VerifyReport(outcomes=[], smt_results=[])
        with pytest.raises(ConfigurationError):
            write_report(report, str(tmp_path / "r.xml"), fmt="xml")


class TestE15AndCli:
    def test_e15_quick_grid_passes(self):
        from repro.experiments import e15_verify

        result = e15_verify.run(
            e15_verify.E15Config(
                variants=["epoch-sgd", "mutant-torn-counter"]
            )
        )
        assert result.experiment_id == "E15"
        assert result.passed
        assert "por_schedules" in result.series
        assert len(result.series["full_interleavings"]) == 2

    def test_cli_verify_writes_artifacts(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "verify",
                "--variants",
                "epoch-sgd,mutant-torn-counter",
                "--no-full-tree",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        assert (tmp_path / "verify_report.json").exists()
        assert (tmp_path / "verify_report.txt").exists()

    def test_cli_verify_rejects_unknown_variant(self):
        from repro.cli import main

        assert main(["verify", "--variants", "nope"]) == 2
