"""The crash-safe run journal: which seed-cells already finished.

A long run — a chaos campaign, a sanitizer grid, any seed ensemble — is
a list of independent *(namespace, seed)* cells, each deterministic
given its seed.  The journal is an append-only JSONL file recording one
line per completed cell, payload included, durably (flush + fsync) as
soon as the driver collects the cell's result.  After a SIGKILL, OOM or
power cut, reopening the journal with ``resume=True`` tells the driver
exactly which cells to skip — and hands back their stored results, so a
resumed run's final report is **byte-identical** to the uninterrupted
one: completed cells are replayed from the journal, the rest recompute
from their seeds.

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "fingerprint": "<sha256>"}
    {"kind": "result", "ns": "0:prob-crash", "seed": 3, "payload": {...}}

The header fingerprint hashes the run configuration (seeds, specs,
workload — everything except execution knobs like ``--jobs``), so a
journal can never silently resume a *different* run: a mismatch raises
:class:`~repro.errors.ResumeMismatchError`.

Because the journal is append-only, a crash mid-append can tear exactly
one line — the last.  The loader tolerates that: a malformed **final**
line is dropped and reported as a warning :class:`Finding` (rule
``DUR001``); a malformed line anywhere *else* is real corruption and
raises.  Unknown ``kind`` values are ignored for forward compatibility.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, ResumeMismatchError

PathLike = Union[str, pathlib.Path]

_VERSION = 1


def config_fingerprint(payload: Any) -> str:
    """Deterministic sha256 over a JSON-serializable config description.

    Canonical form: compact separators, sorted keys — the same config
    always hashes to the same hex digest, on any platform.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunJournal:
    """An open run journal (single writer, append-only).

    Use :meth:`open` rather than the constructor; it handles the
    fresh-start vs resume distinction and torn-tail recovery.  The
    object is a context manager — closing it closes the file handle
    (the on-disk journal of course persists).
    """

    def __init__(
        self,
        path: pathlib.Path,
        fingerprint: str,
        completed: Dict[str, Dict[int, Any]],
        findings: List[Any],
        handle: IO[str],
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        #: Stored payloads by namespace, then seed.
        self._completed = completed
        #: Warning findings from loading (torn trailing line, if any).
        self.findings = findings
        self._handle = handle

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: PathLike, fingerprint: str, resume: bool = False
    ) -> "RunJournal":
        """Open (and, unless resuming, reset) the journal at ``path``.

        With ``resume=False`` any existing journal is discarded and a
        fresh one is started.  With ``resume=True`` an existing journal
        is loaded — its completed cells become :meth:`completed` — after
        verifying its header fingerprint matches ``fingerprint``; a
        missing file simply starts fresh (there is nothing to resume,
        which is exactly what a first run looks like).
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        completed: Dict[str, Dict[int, Any]] = {}
        findings: List[Any] = []
        if resume and path.exists():
            completed, findings = cls._load(path, fingerprint)
            handle = path.open("a")
        else:
            handle = path.open("w")
            header = {"kind": "header", "version": _VERSION, "fingerprint": fingerprint}
            from repro.durable.atomic_io import append_line

            append_line(handle, json.dumps(header, sort_keys=True))
        return cls(path, fingerprint, completed, findings, handle)

    @staticmethod
    def _load(
        path: pathlib.Path, fingerprint: str
    ) -> Tuple[Dict[str, Dict[int, Any]], List[Any]]:
        from repro.analysis.report import Finding

        completed: Dict[str, Dict[int, Any]] = {}
        findings: List[Finding] = []
        lines = path.read_text().splitlines()
        # Trailing blank fragments are not records.
        while lines and not lines[-1].strip():
            lines.pop()
        header_seen = False
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict):
                    raise ValueError("journal entries are JSON objects")
            except ValueError as error:
                if index == len(lines) - 1:
                    # Torn tail from a crashed writer: drop + report.
                    findings.append(
                        Finding(
                            source="journal",
                            rule="DUR001",
                            severity="warning",
                            message=(
                                "dropped torn trailing journal line "
                                f"(crashed writer): {error}"
                            ),
                            location=f"{path.name}:{index + 1}",
                        )
                    )
                    continue
                raise ConfigurationError(
                    f"{path}:{index + 1}: corrupt journal line mid-file "
                    f"({error})"
                ) from None
            kind = entry.get("kind")
            if kind == "header":
                header_seen = True
                if entry.get("fingerprint") != fingerprint:
                    raise ResumeMismatchError(
                        f"journal {path} was written by a different run "
                        f"configuration (fingerprint "
                        f"{entry.get('fingerprint')!r} != {fingerprint!r}); "
                        "refusing to resume"
                    )
            elif kind == "result":
                try:
                    namespace, seed = str(entry["ns"]), int(entry["seed"])
                    payload = entry["payload"]
                except (KeyError, TypeError, ValueError) as error:
                    raise ConfigurationError(
                        f"{path}:{index + 1}: malformed result record "
                        f"({error})"
                    ) from None
                completed.setdefault(namespace, {})[seed] = payload
            # Unknown kinds: skip (forward compatibility).
        if not header_seen:
            raise ConfigurationError(
                f"journal {path} has no header line; not a run journal"
            )
        return completed, findings

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def completed(self, namespace: str) -> Dict[int, Any]:
        """Stored payloads of finished cells in ``namespace``, by seed."""
        return dict(self._completed.get(namespace, {}))

    @property
    def total_completed(self) -> int:
        """Number of finished cells recorded, across all namespaces."""
        return sum(len(seeds) for seeds in self._completed.values())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record(self, namespace: str, seed: int, payload: Any) -> None:
        """Durably record one finished cell (idempotent per cell)."""
        seed = int(seed)
        seeds = self._completed.setdefault(namespace, {})
        if seed in seeds:
            return
        from repro.durable.atomic_io import append_line

        entry = {"kind": "result", "ns": namespace, "seed": seed, "payload": payload}
        append_line(self._handle, json.dumps(entry, sort_keys=True))
        seeds[seed] = payload

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *_exc: Any) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        return (
            f"RunJournal(path={str(self.path)!r}, "
            f"completed={self.total_completed})"
        )
