"""Tests for the durable-IO layer: atomic writes, the crash-safe run
journal (torn-tail tolerance, fingerprint pinning), and torn-tail
tolerance in the trace loader."""

import json
import os

import pytest

from repro.durable.atomic_io import append_line, atomic_write
from repro.durable.journal import RunJournal, config_fingerprint
from repro.errors import ConfigurationError, ResumeMismatchError
from repro.metrics.serialize import dump_records, load_records
from repro.runtime.events import IterationRecord


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write(path, "old\n")
        atomic_write(path, b"new\n")
        assert path.read_bytes() == b"new\n"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write(tmp_path / "a.json", "{}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    def test_failure_leaves_previous_file_and_no_litter(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write(path, "previous\n")

        with pytest.raises(TypeError):
            atomic_write(path, 12345)  # not str/bytes: write() fails
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestRunJournal:
    FP = config_fingerprint({"specs": ["prob-crash"], "seeds": [1, 2, 3]})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("0:prob-crash", 1, {"distance": 0.25})
            journal.record("0:prob-crash", 2, {"distance": 0.5})
            journal.record("1:stall", 1, {"distance": 0.75})
        resumed = RunJournal.open(path, self.FP, resume=True)
        assert resumed.completed("0:prob-crash") == {
            1: {"distance": 0.25},
            2: {"distance": 0.5},
        }
        assert resumed.completed("1:stall") == {1: {"distance": 0.75}}
        assert resumed.total_completed == 3
        assert resumed.findings == []

    def test_completed_answers_one_namespace_with_a_copy(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            for cell in range(30):
                journal.record(f"cell/{cell}", 1, {"cell": cell})
        with RunJournal.open(path, self.FP, resume=True) as resumed:
            resumed.record("cell/7", 2, {"cell": 7})
            resumed.record("cell/7", 2, {"cell": -1})  # duplicate: ignored
            done = resumed.completed("cell/7")
            assert done == {1: {"cell": 7}, 2: {"cell": 7}}
            done.clear()
            assert len(resumed.completed("cell/7")) == 2
            assert resumed.completed("cell/30") == {}
            assert resumed.total_completed == 31

    def test_record_is_idempotent(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("ns", 7, {"v": 1})
            journal.record("ns", 7, {"v": 2})  # duplicate: ignored
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one record
        assert RunJournal.open(path, self.FP, resume=True).completed("ns") == {
            7: {"v": 1}
        }

    def test_fresh_open_discards_existing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("ns", 1, {})
        fresh = RunJournal.open(path, self.FP, resume=False)
        assert fresh.total_completed == 0

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        journal = RunJournal.open(tmp_path / "nope.jsonl", self.FP, resume=True)
        assert journal.total_completed == 0

    def test_torn_tail_dropped_with_finding(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("ns", 1, {"ok": True})
        with path.open("a") as handle:
            handle.write('{"kind": "result", "ns": "ns", "se')  # torn append
        resumed = RunJournal.open(path, self.FP, resume=True)
        assert resumed.completed("ns") == {1: {"ok": True}}
        assert [f.rule for f in resumed.findings] == ["DUR001"]
        assert resumed.findings[0].severity == "warning"
        # The journal stays usable: new records append cleanly.
        resumed.record("ns", 2, {"ok": True})
        resumed.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("ns", 1, {})
        lines = path.read_text().splitlines()
        lines[1] = "{corrupt"
        lines.append(json.dumps({"kind": "result", "ns": "ns", "seed": 2, "payload": {}}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="mid-file"):
            RunJournal.open(path, self.FP, resume=True)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal.open(path, self.FP).close()
        other = config_fingerprint({"specs": ["stall"], "seeds": [9]})
        with pytest.raises(ResumeMismatchError):
            RunJournal.open(path, other, resume=True)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"kind": "result", "ns": "n", "seed": 1, "payload": {}})
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="header"):
            RunJournal.open(path, self.FP, resume=True)

    def test_unknown_kinds_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal.open(path, self.FP) as journal:
            journal.record("ns", 1, {})
        with path.open("a") as handle:
            handle.write(json.dumps({"kind": "future-extension"}) + "\n")
        assert RunJournal.open(path, self.FP, resume=True).total_completed == 1

    def test_fingerprint_is_canonical(self):
        assert config_fingerprint({"b": 1, "a": 2}) == config_fingerprint(
            {"a": 2, "b": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


def _trace(n=3):
    return [
        IterationRecord(
            time=10 * i,
            thread_id=i % 2,
            index=i,
            epoch=0,
            start_time=10 * i,
            read_start_time=10 * i,
            read_end_time=10 * i + 1,
            first_update_time=10 * i + 2,
            end_time=10 * i + 3,
            step_size=0.05,
        )
        for i in range(n)
    ]


class TestLoadRecordsTornTail:
    def test_torn_tail_tolerated_with_finding(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(_trace(3), path)
        with path.open("a") as handle:
            handle.write('{"time": 99, "thread')  # no newline: torn append
        findings = []
        records = load_records(path, findings=findings)
        assert len(records) == 3
        assert [f.rule for f in findings] == ["DUR002"]
        assert findings[0].severity == "warning"

    def test_torn_tail_warns_without_findings_list(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(_trace(2), path)
        with path.open("a") as handle:
            handle.write("{torn")
        with pytest.warns(UserWarning, match="DUR002"):
            assert len(load_records(path)) == 2

    def test_complete_corrupt_line_still_raises(self, tmp_path):
        # A newline-terminated invalid line is corruption, not a torn
        # append — the loader must not silently drop it.
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ConfigurationError, match="trace.jsonl:1"):
            load_records(path)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(_trace(2), path)
        lines = path.read_text().splitlines()
        lines[0] = "{corrupt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="trace.jsonl:1"):
            load_records(path)

    def test_dump_is_atomic(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert dump_records(_trace(4), path) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]
        assert len(load_records(path)) == 4


class TestAppendLine:
    def test_lines_survive_and_parse(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("w") as handle:
            append_line(handle, json.dumps({"a": 1}))
            append_line(handle, json.dumps({"a": 2}))
            # fsync happened before return: the bytes are on disk even
            # though the handle is still open.
            with path.open() as reader:
                assert len(reader.read().splitlines()) == 2
        assert os.path.getsize(path) > 0
