"""Unit tests for the serve layer's pure pieces: job-spec validation
and fingerprinting, the certified result cache (digests, write-once,
corruption recovery), and the injectable clock seam."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.cache import ResultCache
from repro.serve.clock import FakeServeClock, ServeClock
from repro.serve.specs import (
    JOB_KINDS,
    execute_spec,
    journal_fingerprint,
    parse_job_spec,
    result_digest,
)


class TestParseJobSpec:
    def test_defaults_fill_and_canonicalize(self):
        spec = parse_job_spec({"kind": "chaos"})
        assert spec.kind == "chaos"
        assert spec.params["specs"] == ["prob-crash", "torn-update"]
        assert spec.jobs == 1
        assert len(spec.fingerprint) == 64

    def test_every_kind_parses_with_defaults(self):
        for kind in JOB_KINDS:
            payload = {"kind": kind}
            if kind == "experiment":
                payload["params"] = {"id": "E1"}
            spec = parse_job_spec(payload)
            assert spec.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            parse_job_spec({"kind": "mystery"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_job_spec([1, 2, 3])

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos param"):
            parse_job_spec({"kind": "chaos", "params": {"bogus": 1}})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job spec field"):
            parse_job_spec({"kind": "chaos", "extra": True})

    def test_bad_param_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad chaos param"):
            parse_job_spec({"kind": "chaos", "params": {"seeds": "many"}})

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("verify", {"memoize": "off"}),
            ("sanitize", {"strict": "false"}),
            ("chaos", {"recover": "no"}),
            ("chaos", {"monitors": 0}),
            ("chaos", {"threads": True}),
            ("chaos", {"threads": 2.7}),
            ("chaos", {"seeds": 2.9}),
            ("chaos", {"seeds": "2"}),
            ("zoo", {"algorithms": "hogwild"}),
            ("zoo", {"adversaries": ["random", 3]}),
            ("heal", {"adversary": 5}),
            ("verify", {"smt_engine": ["finite"]}),
        ],
    )
    def test_value_of_another_json_type_rejected(self, kind, params):
        """Each param takes only its own JSON type: at the parent,
        ``"off"`` turned memoization on and ``2.7`` ran 2 threads."""
        with pytest.raises(ConfigurationError, match=f"bad {kind} param"):
            parse_job_spec({"kind": kind, "params": params})

    def test_values_of_their_own_json_type_kept(self):
        params = {"variants": ["hogwild"], "threads": 3, "memoize": True}
        spec = parse_job_spec({"kind": "verify", "params": params})
        assert {name: spec.params[name] for name in params} == params

    def test_unknown_fault_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault spec"):
            parse_job_spec({"kind": "chaos", "params": {"specs": ["nope"]}})

    @pytest.mark.parametrize(
        "params",
        [{"check_interval": 0}, {"threads": 0}, {"iterations": -1}],
    )
    def test_out_of_range_chaos_param_rejected(self, params):
        with pytest.raises(ConfigurationError, match="must be >="):
            parse_job_spec({"kind": "chaos", "params": params})

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("zoo", {"threads": 0}),
            ("zoo", {"iterations": -1}),
            ("heal", {"threads": 0}),
            ("heal", {"iterations": -5}),
            ("heal", {"adversary": "bogus"}),
        ],
    )
    def test_out_of_range_zoo_and_heal_params_rejected(self, kind, params):
        """Refused at admission, not by the job's first worker."""
        with pytest.raises(ConfigurationError, match="must be >=|unknown adversary"):
            parse_job_spec({"kind": kind, "params": params})

    def test_experiment_requires_id(self):
        with pytest.raises(ConfigurationError, match="requires param 'id'"):
            parse_job_spec({"kind": "experiment"})

    def test_experiment_id_case_insensitive(self):
        low = parse_job_spec({"kind": "experiment", "params": {"id": "e1"}})
        up = parse_job_spec({"kind": "experiment", "params": {"id": "E1"}})
        assert low.fingerprint == up.fingerprint

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment id"):
            parse_job_spec({"kind": "experiment", "params": {"id": "E99"}})

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="'jobs' must be >= 1"):
            parse_job_spec({"kind": "chaos", "jobs": 0})


class TestFingerprints:
    def test_jobs_knob_excluded_from_fingerprint(self):
        one = parse_job_spec({"kind": "chaos", "jobs": 1})
        four = parse_job_spec({"kind": "chaos", "jobs": 4})
        assert one.fingerprint == four.fingerprint

    def test_params_change_the_fingerprint(self):
        a = parse_job_spec({"kind": "chaos"})
        b = parse_job_spec({"kind": "chaos", "params": {"seeds": 3}})
        assert a.fingerprint != b.fingerprint

    def test_kinds_never_collide(self):
        prints = set()
        for kind in ("chaos", "sanitize", "zoo", "heal", "verify"):
            prints.add(parse_job_spec({"kind": kind}).fingerprint)
        assert len(prints) == 5

    def test_journal_fingerprint_matches_cli_fingerprint(self):
        """A serve-side journal must resume under the plain CLI: the
        journal is pinned to the same inner fingerprint the matching
        command computes."""
        from repro.cli import build_parser
        from repro.experiments.grid import get_campaign

        spec = parse_job_spec(
            {"kind": "chaos", "params": {"specs": ["none"], "seeds": 2}}
        )
        args = build_parser().parse_args(
            ["chaos", "--specs", "none", "--seeds", "2", "--iterations", "120"]
        )
        chaos = get_campaign("chaos")
        cli = chaos.fingerprint(chaos.build(chaos.params_from_args(args)))
        assert journal_fingerprint(spec) == cli


class TestExecuteSpec:
    def test_chaos_result_matches_direct_run(self):
        """The serve execution path adds nothing to the result: it is
        the driver's own report, canonically serialized."""
        from repro.experiments.grid import get_campaign

        chaos = get_campaign("chaos")
        payload = {
            "kind": "chaos",
            "params": {"specs": ["none"], "seeds": 2, "iterations": 60},
        }
        spec = parse_job_spec(payload)
        result = execute_spec(payload)
        direct = chaos.run(chaos.build(spec.params))
        assert result["passed"] == direct.passed
        assert result["report"] == json.loads(direct.to_json())
        assert result["text"] == direct.render()

    def test_progress_fires_per_cell(self):
        counts = []
        execute_spec(
            {
                "kind": "chaos",
                "params": {"specs": ["none"], "seeds": 2, "iterations": 60},
            },
            progress=counts.append,
        )
        assert counts == [1, 2]

    def test_result_digest_is_canonical(self):
        a = result_digest({"b": 1, "a": [1, 2]})
        b = result_digest({"a": [1, 2], "b": 1})
        assert a == b
        assert a != result_digest({"a": [1, 2], "b": 2})


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("f" * 64) is None
        digest = cache.put("f" * 64, {"passed": True})
        hit = cache.get("f" * 64)
        assert hit == {"digest": digest, "result": {"passed": True}}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(tmp_path)
        digest = first.put("a" * 64, {"value": 3})
        second = ResultCache(tmp_path)
        hit = second.get("a" * 64)
        assert hit is not None and hit["digest"] == digest

    def test_memory_only_mode(self):
        cache = ResultCache(None)
        cache.put("b" * 64, {"x": 1})
        assert cache.get("b" * 64) is not None

    def test_write_once_keeps_first_and_counts_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.put("c" * 64, {"answer": 1})
        second = cache.put("c" * 64, {"answer": 2})
        assert second == first
        assert cache.get("c" * 64)["result"] == {"answer": 1}
        assert cache.stats()["mismatches"] == 1

    def test_corrupt_disk_entry_dropped_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("d" * 64, {"ok": True})
        path = tmp_path / f"{'d' * 64}.json"
        entry = json.loads(path.read_text())
        entry["result"]["ok"] = False  # bit-flip without fixing digest
        path.write_text(json.dumps(entry))
        fresh = ResultCache(tmp_path)
        assert fresh.get("d" * 64) is None
        assert fresh.stats()["corrupt"] == 1
        assert not path.exists()  # self-healed: bad entry removed

    def test_unparseable_disk_entry_is_a_miss(self, tmp_path):
        path = tmp_path / f"{'e' * 64}.json"
        path.write_text("torn{")
        cache = ResultCache(tmp_path)
        assert cache.get("e" * 64) is None
        assert cache.stats()["corrupt"] == 1


class TestServeClock:
    def test_fake_clock_advances_without_blocking(self):
        clock = FakeServeClock()
        clock.sleep(2.5)
        clock.advance(0.5)
        assert clock.monotonic() == 3.0
        assert clock.sleeps == [2.5]

    def test_fake_aio_sleep_records_and_returns(self):
        clock = FakeServeClock()

        async def go():
            await clock.aio_sleep(1.5)

        asyncio.run(go())
        assert clock.sleeps == [1.5]
        assert clock.monotonic() == 1.5

    def test_real_clock_sleep_zero_is_free(self):
        ServeClock().sleep(0.0)  # must not block or raise

    def test_real_wait_for_enforces_timeout(self):
        async def go():
            with pytest.raises(asyncio.TimeoutError):
                await ServeClock().wait_for(asyncio.Event().wait(), 0.05)

        asyncio.run(go())
