"""Causal-tracing tests (DESIGN.md §18): deterministic ids, the
per-process spill recorder, the flight-recorder ring, the two-mode
stitcher, and the headline determinism guarantees — the logical stitch
of an ensemble is byte-identical across ``--jobs`` values and across a
kill + journal-resume of the same run."""

import functools
import itertools
import json
from collections import Counter

import pytest

from repro.durable.journal import RunJournal
from repro.experiments.e13_algorithm_zoo import ZooConfig, ZooWorkload
from repro.experiments.ensemble import EnsemblePool, run_ensemble
from repro.experiments.grid import get_campaign
from repro.obs.causal import (
    SPILL_SUFFIX,
    CausalRecorder,
    FlightRecorder,
    TraceContext,
    find_spills,
    flight_note,
    get_causal_recorder,
    install_causal_recorder,
    install_flight_recorder,
    mint_trace_id,
    read_spill,
    span_id,
    stitch_records,
    stitch_spills,
    trace_span,
    write_stitched_trace,
)


def _square(seed: int) -> int:
    """Module-level (hence picklable) ensemble worker."""
    return seed * seed


def _counter_clock():
    counter = itertools.count(1)
    return lambda: float(next(counter))


class TestIds:
    def test_span_id_pure_function(self):
        a = span_id("t1", "serve.request", "")
        assert a == span_id("t1", "serve.request", "")
        assert len(a) == 16
        assert a != span_id("t1", "serve.request", "k")
        assert a != span_id("t2", "serve.request", "")
        assert a != span_id("t1", "serve.admission", "")

    def test_mint_trace_id_from_fingerprint(self):
        tid = mint_trace_id("fp-abc")
        assert tid == mint_trace_id("fp-abc")
        assert tid != mint_trace_id("fp-abd")
        assert len(tid) == 16
        assert all(c in "0123456789abcdef" for c in tid)


class TestTraceContext:
    def test_payload_round_trip(self):
        ctx = TraceContext(
            "aa" * 8, role="worker", attempt=2,
            parent_id="bb" * 8, spill="/tmp/s.jsonl", flight="/tmp/f.json",
        )
        back = TraceContext.from_payload(ctx.to_payload())
        assert back.trace_id == ctx.trace_id
        assert back.role == "worker"
        assert back.attempt == 2
        assert back.parent_id == ctx.parent_id
        assert back.spill == ctx.spill
        assert back.flight == ctx.flight

    def test_from_payload_requires_trace(self):
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None
        assert TraceContext.from_payload({"trace": ""}) is None


class TestCausalRecorder:
    def test_records_are_sorted_key_jsonl(self, tmp_path):
        path = tmp_path / f"a{SPILL_SUFFIX}"
        rec = CausalRecorder(path, role="server", trace_id="t1")
        sid = rec.record("serve.request", method="POST", job="job-1")
        rec.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)
        record = json.loads(lines[0])
        assert record["span"] == sid == span_id("t1", "serve.request", "")
        assert record["args"] == {"job": "job-1", "method": "POST"}
        # No clock -> no wall-clock fields at all (deterministic spill).
        assert "t0" not in record and "t1" not in record

    def test_clock_adds_wall_fields(self, tmp_path):
        rec = CausalRecorder(
            tmp_path / f"a{SPILL_SUFFIX}", role="w",
            trace_id="t1", clock=_counter_clock(),
        )
        with rec.span("worker.run", key="attempt-1"):
            rec.event("ensemble.seed", key="ns|3", det=True, seed=3)
        rec.close()
        records = read_spill(rec.path)
        by_name = {r["name"]: r for r in records}
        seed = by_name["ensemble.seed"]
        run = by_name["worker.run"]
        assert seed["t0"] == seed["t1"] == 2.0
        assert run["t0"] == 1.0 and run["t1"] == 3.0
        # The event's parent is the enclosing span's deterministic id.
        assert seed["parent"] == span_id("t1", "worker.run", "attempt-1")
        assert seed["det"] is True and run["det"] is False

    def test_no_trace_id_is_a_noop(self, tmp_path):
        rec = CausalRecorder(tmp_path / f"a{SPILL_SUFFIX}", role="w")
        assert rec.record("serve.request") is None
        with rec.span("worker.run") as sid:
            assert sid is None
        assert rec.event("ensemble.seed") is None
        assert not rec.path.exists()

    def test_auto_keys_disambiguate_repeats(self, tmp_path):
        rec = CausalRecorder(
            tmp_path / f"a{SPILL_SUFFIX}", role="w",
            trace_id="t1", attempt=2,
        )
        with rec.span("campaign.spec"):
            pass
        with rec.span("campaign.spec"):
            pass
        rec.close()
        keys = [r["key"] for r in read_spill(rec.path)]
        assert keys == ["a2.0", "a2.1"]

    def test_read_spill_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / f"a{SPILL_SUFFIX}"
        rec = CausalRecorder(path, role="w", trace_id="t1")
        rec.record("serve.request")
        rec.record("serve.admission")
        rec.close()
        # Simulate the SIGKILL torn final line.
        with open(path, "a") as handle:
            handle.write('{"trace": "t1", "span": "dead')
        records = read_spill(path)
        assert [r["name"] for r in records] == [
            "serve.request", "serve.admission",
        ]
        assert read_spill(tmp_path / "absent.jsonl") == []

    def test_trace_span_bridge_feeds_causal(self, tmp_path):
        rec = CausalRecorder(
            tmp_path / f"a{SPILL_SUFFIX}", role="worker", trace_id="t1"
        )
        install_causal_recorder(rec)
        try:
            assert get_causal_recorder() is rec
            with trace_span("campaign.spec", spec="prob-crash"):
                pass
        finally:
            install_causal_recorder(None)
            rec.close()
        records = read_spill(rec.path)
        assert records[0]["name"] == "campaign.spec"
        assert records[0]["args"] == {"spec": "prob-crash"}


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        flight = FlightRecorder(capacity=4)
        for index in range(10):
            flight.record("health", "serve.attempt", attempt=index)
        snap = flight.snapshot()
        assert snap["recorded_total"] == 10
        assert snap["dropped"] == 6
        assert [e["args"]["attempt"] for e in snap["events"]] == [6, 7, 8, 9]

    def test_dump_separates_events_from_weather(self, tmp_path):
        flight = FlightRecorder(capacity=8, context={"trace": "t1"})
        flight.record("health", "worker.start", attempt=1)
        flight.record("span", "worker.run", volatile=True, key="attempt-1")
        payload = flight.dump(tmp_path / "flight.json", reason="crash")
        assert payload["reason"] == "crash"
        assert [e["name"] for e in payload["events"]] == ["worker.start"]
        assert [e["name"] for e in payload["weather"]] == ["worker.run"]
        assert all("volatile" not in e for e in payload["weather"])
        on_disk = json.loads((tmp_path / "flight.json").read_text())
        assert on_disk == payload

    def test_flight_note_targets_installed_recorder(self):
        flight_note("health", "serve.retry")  # no-op without a recorder
        flight = FlightRecorder(capacity=2)
        install_flight_recorder(flight)
        try:
            flight_note("health", "serve.retry", attempt=1)
        finally:
            install_flight_recorder(None)
        assert flight.snapshot()["events"][0]["name"] == "serve.retry"


class TestStitcher:
    def _spills(self, tmp_path):
        tid = "t1"
        server = CausalRecorder(
            tmp_path / f"server{SPILL_SUFFIX}", role="server",
            trace_id=tid, clock=_counter_clock(),
        )
        request = server.record(
            "serve.request", t0=1.0, t1=2.0, method="POST"
        )
        server.record(
            "serve.attempt", key="attempt-1",
            flow=request, t0=2.0, t1=9.0,
        )
        server.close()
        worker = CausalRecorder(
            tmp_path / f"worker{SPILL_SUFFIX}", role="worker",
            trace_id=tid, attempt=1,
        )
        worker.record(
            "worker.run", key="attempt-1",
            flow=span_id(tid, "serve.attempt", "attempt-1"),
            t0=3.0, t1=8.0,
        )
        worker.record("ensemble.seed", key="ns|1", det=True, seed=1)
        worker.close()
        return tid

    def test_wall_mode_lanes_and_flows(self, tmp_path):
        tid = self._spills(tmp_path)
        spills = find_spills(tmp_path)
        assert [p.name.endswith(SPILL_SUFFIX) for p in spills] == [True, True]
        payload = stitch_spills(spills, mode="wall", trace_id=tid)
        events = payload["traceEvents"]
        lanes = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert lanes == ["server", "worker attempt 1"]
        # Cross-process flow: an s/f pair whose id is the dest span id
        # links serve.attempt (server lane) to worker.run (worker lane).
        run_id = span_id(tid, "worker.run", "attempt-1")
        sources = [e for e in events if e["ph"] == "s" and e["id"] == run_id]
        finishes = [e for e in events if e["ph"] == "f" and e["id"] == run_id]
        assert len(sources) == 1 and len(finishes) == 1
        assert sources[0]["pid"] != finishes[0]["pid"]
        assert finishes[0]["bp"] == "e"
        # Timestamps are microseconds relative to the earliest record.
        request = next(e for e in events if e["name"] == "serve.request")
        assert request["ts"] == 0.0 and request["dur"] == 1e6

    def test_wall_mode_filters_foreign_traces(self, tmp_path):
        tid = self._spills(tmp_path)
        other = CausalRecorder(
            tmp_path / f"other{SPILL_SUFFIX}", role="server", trace_id="t2"
        )
        other.record("serve.request")
        other.close()
        payload = stitch_spills(find_spills(tmp_path), trace_id=tid)
        names = {e["name"] for e in payload["traceEvents"]}
        assert "serve.request" in names
        spans = {
            e["args"]["span"]
            for e in payload["traceEvents"]
            if e["ph"] == "X"
        }
        assert span_id("t2", "serve.request", "") not in spans

    def test_logical_mode_keeps_only_det_and_dedupes(self, tmp_path):
        tid = self._spills(tmp_path)
        records = [r for p in find_spills(tmp_path) for r in read_spill(p)]
        # A resumed attempt re-emits the same seed record: must collapse.
        records = records + [r for r in records if r["name"] == "ensemble.seed"]
        payload = stitch_records(records, mode="logical", trace_id=tid)
        events = payload["traceEvents"]
        assert [e["name"] for e in events] == ["ensemble.seed"]
        assert events[0]["ts"] == 0 and events[0]["dur"] == 1
        assert events[0]["args"]["seed"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            stitch_records([], mode="sideways")


def _logical_bytes(tmp_path, name, run):
    """Run ``run(recorder)`` with an installed recorder, stitch the
    spill logically, and return the written bytes."""
    spill = tmp_path / f"{name}{SPILL_SUFFIX}"
    rec = CausalRecorder(spill, role="worker", trace_id="t1")
    install_causal_recorder(rec)
    try:
        run()
    finally:
        install_causal_recorder(None)
        rec.close()
    out = tmp_path / f"{name}.trace.json"
    write_stitched_trace(out, stitch_spills([spill], mode="logical"))
    return out.read_bytes()


class TestLogicalDeterminism:
    """Satellite: the logical stitch is byte-identical across --jobs
    values and across a kill + journal-resume of the same ensemble."""

    def test_jobs_1_vs_4_byte_identical(self, tmp_path):
        seeds = list(range(30, 43))
        serial = _logical_bytes(
            tmp_path, "serial",
            lambda: run_ensemble(_square, seeds, jobs=1),
        )
        pooled = _logical_bytes(
            tmp_path, "pooled",
            lambda: run_ensemble(_square, seeds, jobs=4),
        )
        assert serial == pooled
        assert json.loads(serial)["traceEvents"]  # non-vacuous

    def test_kill_plus_resume_byte_identical(self, tmp_path):
        seeds = list(range(8))
        fingerprint = "fp-ensemble"
        uninterrupted = _logical_bytes(
            tmp_path, "clean",
            lambda: run_ensemble(_square, seeds, jobs=1),
        )
        # "First attempt": journal half the seeds, then die (close).
        journal_path = tmp_path / "run.journal"
        first = RunJournal.open(journal_path, fingerprint)
        partial = _logical_bytes(
            tmp_path, "partial",
            lambda: run_ensemble(
                _square, seeds[:4], jobs=1, journal=first, namespace="ns"
            ),
        )
        first.close()
        assert partial != uninterrupted
        # "Second attempt": resume — restored seeds re-emit their causal
        # records, so the stitched logical trace is whole again.
        resumed_journal = RunJournal.open(
            journal_path, fingerprint, resume=True
        )
        resumed = _logical_bytes(
            tmp_path, "resumed",
            lambda: run_ensemble(
                _square, seeds, jobs=1,
                journal=resumed_journal, namespace="ns",
            ),
        )
        resumed_journal.close()
        # Namespaced keys differ from the un-journaled run's empty
        # namespace, so compare against a namespaced clean run instead.
        clean_journal = RunJournal.open(tmp_path / "clean.journal", fingerprint)
        clean = _logical_bytes(
            tmp_path, "clean-ns",
            lambda: run_ensemble(
                _square, seeds, jobs=1,
                journal=clean_journal, namespace="ns",
            ),
        )
        clean_journal.close()
        assert resumed == clean


def _spanned_square(cell: int, seed: int) -> int:
    """Picklable worker recording one span per seed."""
    with trace_span("grid.seed", cell=cell, seed=seed):
        return seed * seed


def _grid(jobs, cells=3, journal=None):
    """A grid of ``cells`` ensembles sharing one pool, each cell under
    its own span."""
    seeds = range(6)
    with EnsemblePool(jobs, len(seeds)) as pool:
        for cell in range(cells):
            with trace_span("grid.cell", cell=cell):
                run_ensemble(
                    functools.partial(_spanned_square, cell),
                    seeds,
                    jobs=jobs,
                    journal=journal,
                    namespace=f"cell-{cell}",
                    pool=pool,
                )


def _recorded(tmp_path, name, run):
    spill = tmp_path / f"{name}{SPILL_SUFFIX}"
    rec = CausalRecorder(spill, role="worker", trace_id="t1")
    install_causal_recorder(rec)
    try:
        run()
    finally:
        install_causal_recorder(None)
        rec.close()
    return read_spill(spill)


class TestGridPoolSpans:
    """Satellite: the spans forked workers record for a grid-long pool
    nest under their own cell's span, and no two share an id."""

    def test_worker_spans_nest_under_their_own_cell(self, tmp_path):
        records = _recorded(tmp_path, "grid", lambda: _grid(jobs=2))
        cells = {
            r["args"]["cell"]: r["span"] for r in records if r["name"] == "grid.cell"
        }
        seeds = [r for r in records if r["name"] == "grid.seed"]
        assert len(cells) == 3 and len(seeds) == 18
        assert all(r["parent"] == cells[r["args"]["cell"]] for r in seeds)
        ids = [r["span"] for r in records]
        assert len(set(ids)) == len(ids)
        # Keys are a pure function of (call, chunk, span in chunk): one
        # seed per chunk here, whatever the worker inherited at fork.
        assert {r["key"] for r in seeds} == {
            f"a0.{cell}.c{chunk}.0" for cell in range(3) for chunk in range(6)
        }

    def test_zoo_run_spans_nest_under_their_zoo_cell(self, tmp_path):
        config = ZooConfig(
            algorithms=("hogwild",),
            adversaries=("round-robin", "stale-attack"),
            seeds=(100, 101, 102),
            workload=ZooWorkload(iterations=40),
            jobs=2,
        )
        records = _recorded(tmp_path, "zoo", lambda: get_campaign("zoo").run(config))
        cells = [r["span"] for r in records if r["name"] == "zoo.cell"]
        runs = [r for r in records if r["name"] == "zoo.run"]
        assert len(cells) == 2
        assert Counter(r["parent"] for r in runs) == {cell: 3 for cell in cells}
        ids = [r["span"] for r in records]
        assert len(set(ids)) == len(ids)

    def test_grid_logical_stitch_same_across_jobs_and_resume(self, tmp_path):
        serial = _logical_bytes(tmp_path, "serial", lambda: _grid(jobs=1))
        pooled = _logical_bytes(tmp_path, "pooled", lambda: _grid(jobs=4))
        assert serial == pooled
        assert json.loads(serial)["traceEvents"]  # non-vacuous
        fingerprint = "fp-grid"
        clean_journal = RunJournal.open(tmp_path / "clean.journal", fingerprint)
        clean = _logical_bytes(
            tmp_path, "clean", lambda: _grid(jobs=1, journal=clean_journal)
        )
        clean_journal.close()
        # "Killed" after two of the three cells, then resumed pooled.
        first = RunJournal.open(tmp_path / "run.journal", fingerprint)
        _logical_bytes(tmp_path, "partial", lambda: _grid(jobs=4, cells=2, journal=first))
        first.close()
        again = RunJournal.open(tmp_path / "run.journal", fingerprint, resume=True)
        resumed = _logical_bytes(
            tmp_path, "resumed", lambda: _grid(jobs=4, journal=again)
        )
        again.close()
        assert resumed == clean
