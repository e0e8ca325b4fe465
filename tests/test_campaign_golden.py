"""Byte pins for the five campaign grids: chaos, sanitize, zoo, heal and
verify.

For a tiny grid of each kind, run through the CLI, this pins the sha256
of the JSON and text reports, of the ``--metrics`` snapshot (every kind
but verify writes one) and the journal's header fingerprint.  It also
pins the serve fingerprint and canonical params of each kind's default
spec, the serve ``JOB_KINDS`` and each campaign subcommand's options.

``tests/data/campaign_golden/<kind>.journal.jsonl`` holds the first
few cells of each tiny grid's journal; resuming it must finish the grid
with the pinned bytes, so journals written before a refactor keep
resuming after it.  Verify runs with the finite SMT engine, so its bytes
do not depend on whether z3 is installed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import shutil

import pytest

from repro.cli import build_parser, main
from repro.serve.specs import JOB_KINDS, parse_job_spec

DATA = pathlib.Path(__file__).parent / "data" / "campaign_golden"

GRIDS = {
    "chaos": [
        "--specs", "none,prob-crash", "--seeds", "2", "--threads", "2",
        "--iterations", "40",
    ],
    "sanitize": ["--presets", "e1,racy", "--seeds", "2"],
    "zoo": [
        "--algorithms", "epoch-sgd,hogwild",
        "--adversaries", "round-robin,random", "--seeds", "2",
        "--threads", "2", "--iterations", "30",
    ],
    "heal": [
        "--algorithms", "epoch-sgd", "--plans", "none,nan-poison",
        "--seeds", "2", "--threads", "2", "--iterations", "60",
    ],
    "verify": [
        "--variants", "epoch-sgd,mutant-torn-counter",
        "--smt-engine", "finite", "--no-full-tree",
    ],
}

BASENAMES = {
    "chaos": "chaos_report",
    "sanitize": "analysis_report",
    "zoo": "zoo_report",
    "heal": "heal_report",
    "verify": "verify_report",
}

PINS = {
    "chaos": {
        "exit": 0,
        "json": "866b338ecfb4259b383bbe18eeb82f107a3ff36b74fa5906fcae11ea05023427",
        "txt": "e21d5eac8958f2c23a8df635c32750b3ec84c86a13853cd686182f2067178ddb",
        "metrics": "4ad3498caeb68a293984711eae252f54a510021b91efbb9fe7664b091d62d658",
        "fingerprint": "d951dda6f9ff9f514f36e8aee3af87c2547452558471e59f313b642852a6febe",
        "cells": 4,
    },
    "sanitize": {
        "exit": 1,
        "json": "100dc51e7e8c9dcdd7168e5a7d6e30f8c80ae363892140820ecb0936c8dc45e0",
        "txt": "02221583e54189e5d519af6a8885f28e1b31d1a3d90b641860ce825ddaf3377e",
        "metrics": "e245c5ef92afb019005f510bf7968b3f0357ec59105bce4d1eb78227dd818136",
        "fingerprint": "101cb1116e9c8990e1129876f74dcca2cb1ba208065b0cebc31086c2e69d4113",
        "cells": 4,
    },
    "zoo": {
        "exit": 0,
        "json": "0fd154362bc515453758f356000688e43dd38bf129409e8e732207ac6fb6f613",
        "txt": "96d9e436b9d24ebdc955c80c737b6f23246d208f9cbac134f9b8ee9df25c0dd1",
        "metrics": "61fa58d068f6715d179389b5ecb5b5fa13417ca390db47f01c5244f084be6417",
        "fingerprint": "94be233d3667219ce4f2cb6913157f203239fb7b6894a21d161985a3d182f65a",
        "cells": 8,
    },
    "heal": {
        "exit": 0,
        "json": "c15faf46a77d06b06f3d4bd4d75ab0059980873b91f429bb72c2813e123fb132",
        "txt": "ecdb136b019af7b754a01f3a643f416fb80b78511fe4480009ad6c14066bfda2",
        "metrics": "b81d68e777c27835409712ebc0f44097f45a1f10e2de0d8c0446b476a418eeab",
        "fingerprint": "4ddf57df48ba93aaa59662bf0b12b1e5f16304fd279fcd14f708bef4be05e546",
        "cells": 4,
    },
    "verify": {
        "exit": 0,
        "json": "6b93ec74219c0a234d1e9ffe7b92a96d8f6390863b91c83c5ed04e0ede8014e3",
        "txt": "1ff1e3d4190feb22887ceec3c76246ee7e5de648c40aa73f0aabf34ff3e50d39",
        "metrics": None,
        "fingerprint": "eda670ed4aaddc0a8f08c7ad6e7c82aac6bb1e8c1f87927366fc7bad17b0deed",
        "cells": 2,
    },
}

#: ``parse_job_spec({"kind": kind})``: fingerprint and canonical params.
SERVE_DEFAULTS = {
    "chaos": (
        "80a267bd5006cbb23d69357996db9b9d0990bf75c6150f71c94c006c9266b5d1",
        {
            "specs": ["prob-crash", "torn-update"], "seeds": 2,
            "base_seed": 1, "threads": 4, "iterations": 120,
            "check_interval": 64, "recover": True, "monitors": True,
        },
    ),
    "sanitize": (
        "e48c1d471819c0869eac2fd6b9db1b806214a471c7bf0f868727d2e101157627",
        {"presets": ["e1"], "seeds": 2, "base_seed": 1, "strict": False},
    ),
    "zoo": (
        "8a63639c77d9aaeab17aee90d42c0c0ba2100a723aa64ea418c83799e664c2b1",
        {
            "algorithms": ["epoch-sgd", "hogwild"],
            "adversaries": ["round-robin", "random"], "seeds": 2,
            "base_seed": 7000, "threads": 4, "iterations": 100,
            "sanitize": True,
        },
    ),
    "heal": (
        "de93a0adffa2faec781da0b243e7da2793e98984990b5754d591f550f138a00a",
        {
            "algorithms": ["epoch-sgd"], "plans": ["none", "nan-poison"],
            "seeds": 1, "base_seed": 8000, "threads": 4, "iterations": 150,
            "adversary": "random", "retry_budget": 8, "check_interval": 64,
        },
    ),
    "verify": (
        "47cca996ea86b491fcfd72fc76ceffc2c9ba08b8fd2457cbb1df092f2f670d82",
        {
            "variants": ["epoch-sgd"], "seeds": 1, "base_seed": 1,
            "threads": 2, "iterations": 1, "max_steps": 48,
            "full_tree": False, "memoize": False, "smt_engine": "finite",
        },
    ),
}

_STORE, _FLAG = "_StoreAction", "_StoreTrueAction"

#: Per subcommand, sorted by dest: (option strings, dest, default, type,
#: action, choices).
OPTIONS = {
    "chaos": [
        (("--base-seed",), "base_seed", 1, "int", _STORE, None),
        (("--check-interval",), "check_interval", 64, "int", _STORE, None),
        (("--iterations",), "iterations", 300, "int", _STORE, None),
        (("--jobs",), "jobs", None, "int", _STORE, None),
        (("--journal",), "journal", None, None, _STORE, None),
        (("--metrics",), "metrics", None, None, _STORE, None),
        (("--metrics-interval",), "metrics_interval", None, "float", _STORE, None),
        (("--no-monitors",), "no_monitors", False, None, _FLAG, None),
        (("--no-recovery",), "no_recovery", False, None, _FLAG, None),
        (("--out",), "out", None, None, _STORE, None),
        (("--resume",), "resume", False, None, _FLAG, None),
        (("--seeds",), "seeds", 4, "int", _STORE, None),
        (
            ("--specs",), "specs",
            "prob-crash,adaptive-crash,stall,torn-update", None, _STORE, None,
        ),
        (("--threads",), "threads", 4, "int", _STORE, None),
        (("--trace",), "trace", None, None, _STORE, None),
    ],
    "sanitize": [
        (("--base-seed",), "base_seed", 1, "int", _STORE, None),
        (("--jobs",), "jobs", None, "int", _STORE, None),
        (("--journal",), "journal", None, None, _STORE, None),
        (("--metrics",), "metrics", None, None, _STORE, None),
        (("--metrics-interval",), "metrics_interval", None, "float", _STORE, None),
        (("--out",), "out", None, None, _STORE, None),
        (("--presets",), "presets", "e1,e5,e7", None, _STORE, None),
        (("--resume",), "resume", False, None, _FLAG, None),
        (("--seeds",), "seeds", 2, "int", _STORE, None),
        (("--strict",), "strict", False, None, _FLAG, None),
    ],
    "zoo": [
        (
            ("--adversaries",), "adversaries",
            "round-robin,random,bounded-delay,stale-attack,contention-max",
            None, _STORE, None,
        ),
        (("--algorithms",), "algorithms", "all", None, _STORE, None),
        (("--base-seed",), "base_seed", 7000, "int", _STORE, None),
        (("--iterations",), "iterations", 200, "int", _STORE, None),
        (("--jobs",), "jobs", None, "int", _STORE, None),
        (("--journal",), "journal", None, None, _STORE, None),
        (("--metrics",), "metrics", None, None, _STORE, None),
        (("--metrics-interval",), "metrics_interval", None, "float", _STORE, None),
        (("--no-sanitize",), "no_sanitize", False, None, _FLAG, None),
        (("--out",), "out", None, None, _STORE, None),
        (("--resume",), "resume", False, None, _FLAG, None),
        (("--seeds",), "seeds", 2, "int", _STORE, None),
        (("--threads",), "threads", 4, "int", _STORE, None),
    ],
    "heal": [
        (("--adversary",), "adversary", "random", None, _STORE, None),
        (("--algorithms",), "algorithms", "default", None, _STORE, None),
        (("--base-seed",), "base_seed", 8000, "int", _STORE, None),
        (("--check-interval",), "check_interval", 64, "int", _STORE, None),
        (("--iterations",), "iterations", 200, "int", _STORE, None),
        (("--jobs",), "jobs", None, "int", _STORE, None),
        (("--journal",), "journal", None, None, _STORE, None),
        (("--metrics",), "metrics", None, None, _STORE, None),
        (("--metrics-interval",), "metrics_interval", None, "float", _STORE, None),
        (("--out",), "out", None, None, _STORE, None),
        (
            ("--plans",), "plans", "none,bit-flip,nan-poison,dup-write",
            None, _STORE, None,
        ),
        (("--resume",), "resume", False, None, _FLAG, None),
        (("--retry-budget",), "retry_budget", 8, "int", _STORE, None),
        (("--seeds",), "seeds", 2, "int", _STORE, None),
        (("--threads",), "threads", 4, "int", _STORE, None),
    ],
    "verify": [
        (("--base-seed",), "base_seed", 1, "int", _STORE, None),
        (("--iterations",), "iterations", 1, "int", _STORE, None),
        (("--jobs",), "jobs", None, "int", _STORE, None),
        (("--journal",), "journal", None, None, _STORE, None),
        (("--max-steps",), "max_steps", 48, "int", _STORE, None),
        (("--memoize",), "memoize", False, None, _FLAG, None),
        (("--no-full-tree",), "no_full_tree", False, None, _FLAG, None),
        (("--out",), "out", None, None, _STORE, None),
        (("--resume",), "resume", False, None, _FLAG, None),
        (("--seeds",), "seeds", 1, "int", _STORE, None),
        (
            ("--smt-engine",), "smt_engine", "auto", None, _STORE,
            ["auto", "z3", "finite"],
        ),
        (("--threads",), "threads", 2, "int", _STORE, None),
        (("--variants",), "variants", "default", None, _STORE, None),
    ],
}


def _sha(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(kind, out, journal, resume=False):
    metrics = [] if kind == "verify" else ["--metrics", str(out / "metrics.jsonl")]
    argv = [
        kind, *GRIDS[kind], "--out", str(out), "--journal", str(journal),
        *metrics, *(["--resume"] if resume else []),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


def _assert_pinned(kind, out, code):
    pins = PINS[kind]
    assert code == pins["exit"]
    assert _sha(out / f"{BASENAMES[kind]}.json") == pins["json"]
    assert _sha(out / f"{BASENAMES[kind]}.txt") == pins["txt"]
    if pins["metrics"] is None:
        assert not (out / "metrics.jsonl").exists()
    else:
        assert _sha(out / "metrics.jsonl") == pins["metrics"]


@pytest.mark.parametrize("kind", list(GRIDS))
def test_cold_grid_bytes(tmp_path, kind):
    journal = tmp_path / "journal.jsonl"
    code = _run(kind, tmp_path, journal)
    _assert_pinned(kind, tmp_path, code)
    lines = journal.read_text().splitlines()
    assert json.loads(lines[0])["fingerprint"] == PINS[kind]["fingerprint"]
    assert len(lines) - 1 == PINS[kind]["cells"]


@pytest.mark.parametrize("kind", list(GRIDS))
def test_committed_partial_journal_resumes_to_pinned_bytes(tmp_path, kind):
    journal = tmp_path / "journal.jsonl"
    shutil.copy(DATA / f"{kind}.journal.jsonl", journal)
    before = journal.read_text().splitlines()
    assert json.loads(before[0])["fingerprint"] == PINS[kind]["fingerprint"]
    assert 0 < len(before) - 1 < PINS[kind]["cells"]
    code = _run(kind, tmp_path, journal, resume=True)
    _assert_pinned(kind, tmp_path, code)
    after = journal.read_text().splitlines()
    assert after[: len(before)] == before
    assert len(after) - 1 == PINS[kind]["cells"]


@pytest.mark.parametrize("kind", list(GRIDS))
def test_serve_default_spec(kind):
    spec = parse_job_spec({"kind": kind})
    fingerprint, params = SERVE_DEFAULTS[kind]
    assert spec.fingerprint == fingerprint
    assert dict(spec.params) == params
    assert list(spec.params) == list(params)


def test_job_kinds():
    assert JOB_KINDS == ("experiment", "chaos", "sanitize", "zoo", "heal", "verify")


@pytest.mark.parametrize("kind", list(GRIDS))
def test_subcommand_options(kind):
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    rows = sorted(
        (
            (
                tuple(action.option_strings),
                action.dest,
                action.default,
                getattr(action.type, "__name__", None),
                type(action).__name__,
                action.choices,
            )
            for action in subparsers.choices[kind]._actions
            if not isinstance(action, argparse._HelpAction)
        ),
        key=lambda row: row[1],
    )
    assert rows == OPTIONS[kind]
