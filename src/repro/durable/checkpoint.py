"""Checkpoints: consistent simulator cuts that restore byte-identically.

A simulation in this model is fully determined by (programs, seed,
schedule), and the engine only pauses at :meth:`Simulator.run_fast`
chunk boundaries — between steps, never inside one.  Those boundaries
(and, for Algorithm 2, the epoch turnovers Corollary 7.1 reasons about)
are therefore *consistent cuts*: every thread is exactly between two
shared-memory operations, and the global state is one model array, the
counters, the clock, each thread's lifecycle state, and the scheduler's
decision prefix.  :class:`Checkpoint` captures that cut and restores it
two ways:

* **by replay** (exact): rebuild the simulation from scratch and replay
  the recorded decision prefix through a
  :class:`~repro.sched.replay.PrefixReplayScheduler`.  In verify mode
  the inner scheduler is consulted on every prefix step and must agree
  with the recording — which simultaneously *certifies* determinism
  (any divergence raises) and restores the inner scheduler's own state
  (RNG draws, histories) to the cut, so the continuation is
  byte-identical to the uninterrupted run.
* **directly** (state-level): poke the captured memory image and clock
  into a freshly built simulator.  Thread-local coroutine positions are
  *not* restored, so this is only sound for stateless programs at
  iteration boundaries — exactly the lock-free property Algorithm 1 has
  and :func:`repro.faults.recovery.run_with_recovery` exploits.

Checkpoints serialize to deterministic JSON and are written with
:func:`~repro.durable.atomic_io.atomic_write`, so a crash mid-save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.errors import CheckpointRestoreError, ConfigurationError

PathLike = Union[str, pathlib.Path]

_VERSION = 1


@dataclass(frozen=True)
class ThreadCut:
    """One thread's lifecycle state at a cut."""

    thread_id: int
    name: str
    state: str  # ThreadState.value: "runnable" | "finished" | "crashed"
    steps_taken: int


def _digest_payload(
    seed: int,
    time: int,
    memory_values: Tuple[float, ...],
    memory_seq: int,
    threads: Tuple[ThreadCut, ...],
) -> str:
    canonical = json.dumps(
        {
            "seed": seed,
            "time": time,
            "values": list(memory_values),
            "seq": memory_seq,
            "threads": [asdict(t) for t in threads],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def state_digest(sim: Any) -> str:
    """Deterministic sha256 of a simulator's cut state (shared memory,
    clock, thread lifecycles) — equal digests mean equal cuts."""
    return _digest_payload(
        seed=getattr(sim, "seed", 0),
        time=sim.clock.now,
        memory_values=tuple(sim.memory._values),
        memory_seq=sim.memory._seq,
        threads=tuple(
            ThreadCut(t.thread_id, t.name, t.state.value, t.steps_taken)
            for t in sim.threads
        ),
    )


@dataclass(frozen=True)
class Checkpoint:
    """A consistent simulator cut (see module docstring).

    Attributes:
        seed: Root seed the simulator was built with.
        time: Logical time of the cut (steps executed so far).
        memory_values: The full shared-memory image.
        memory_seq: The memory's operation sequence counter.
        threads: Per-thread lifecycle state at the cut.
        schedule: The scheduler decision prefix from t=0 to the cut
            (empty when the run was not recorded; replay restore then
            refuses).
        label: Free-form tag ("epoch=3", "chunk=12", ...).
    """

    seed: int
    time: int
    memory_values: Tuple[float, ...]
    memory_seq: int
    threads: Tuple[ThreadCut, ...]
    schedule: Tuple[int, ...] = ()
    label: str = ""

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        sim: Any,
        schedule: Optional[Tuple[int, ...]] = None,
        label: str = "",
    ) -> "Checkpoint":
        """Snapshot ``sim`` at its current (between-steps) cut.

        ``schedule`` defaults to the decision prefix of a
        :class:`~repro.sched.replay.RecordingScheduler` when the
        simulator is driven by one (directly or as the outermost
        wrapper); otherwise the checkpoint is captured without a replay
        recipe and only supports direct restore / verification.
        """
        if schedule is None:
            from repro.sched.replay import PrefixReplayScheduler, RecordingScheduler

            scheduler = sim.scheduler
            if isinstance(scheduler, RecordingScheduler):
                schedule = tuple(scheduler.schedule)
            elif isinstance(scheduler, PrefixReplayScheduler):
                schedule = tuple(scheduler.decisions)
            else:
                schedule = ()
        return cls(
            seed=getattr(sim, "seed", 0),
            time=sim.clock.now,
            memory_values=tuple(sim.memory._values),
            memory_seq=sim.memory._seq,
            threads=tuple(
                ThreadCut(t.thread_id, t.name, t.state.value, t.steps_taken)
                for t in sim.threads
            ),
            schedule=tuple(int(s) for s in schedule),
            label=label,
        )

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Digest of the captured cut; equals ``state_digest(sim)`` of
        any simulator standing at the same cut."""
        return _digest_payload(
            self.seed, self.time, self.memory_values, self.memory_seq, self.threads
        )

    def verify(self, sim: Any, state_only: bool = False) -> List[Any]:
        """Compare ``sim``'s cut against this checkpoint.

        Returns determinism findings (rule ``CKPT001``..``CKPT004``),
        empty when the simulator stands exactly at the captured cut —
        the certificate the restore paths rely on.  ``state_only``
        restricts the comparison to shared state (memory image + clock),
        the contract :meth:`restore_direct` can honour.
        """
        from repro.analysis.report import Finding

        findings: List[Finding] = []

        def report(rule: str, message: str) -> None:
            findings.append(
                Finding(
                    source="checkpoint",
                    rule=rule,
                    message=message,
                    time=self.time,
                )
            )

        if sim.clock.now != self.time:
            report(
                "CKPT001",
                f"clock mismatch: simulator at t={sim.clock.now}, "
                f"checkpoint cut at t={self.time}",
            )
        values = tuple(sim.memory._values)
        if values != self.memory_values:
            diffs = [
                addr
                for addr, (a, b) in enumerate(zip(values, self.memory_values))
                if a != b
            ]
            if len(values) != len(self.memory_values):
                diffs.append(min(len(values), len(self.memory_values)))
            report(
                "CKPT002",
                "shared-memory image mismatch at address(es) "
                f"{diffs[:8]}{'...' if len(diffs) > 8 else ''}",
            )
        if not state_only and sim.memory._seq != self.memory_seq:
            report(
                "CKPT003",
                f"operation sequence mismatch: {sim.memory._seq} != "
                f"{self.memory_seq}",
            )
        if not state_only:
            cuts = tuple(
                ThreadCut(t.thread_id, t.name, t.state.value, t.steps_taken)
                for t in sim.threads
            )
            if cuts != self.threads:
                report(
                    "CKPT004",
                    f"thread states diverge: {cuts} != {self.threads}",
                )
        return findings

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore_by_replay(
        self,
        build: Callable[[Any], Any],
        inner: Any,
        verify: bool = True,
    ) -> Any:
        """Rebuild the run and replay the decision prefix up to the cut.

        Args:
            build: Callback constructing a *fresh* simulator (memory
                allocated, programs spawned, same seed) around the
                scheduler it is given.  It must not execute any steps.
            inner: The run's real scheduler, freshly constructed exactly
                as at t=0; after the prefix it takes over seamlessly.
            verify: Consult ``inner`` on every prefix step and require
                agreement with the recording (certifies determinism and
                restores the inner scheduler's own state).  With
                ``False`` the prefix is forced blindly — faster, but the
                inner scheduler's state is *not* advanced; only sound
                for stateless schedulers.

        Returns the restored simulator, standing exactly at the cut
        (certified via :meth:`verify`; divergence raises
        :class:`~repro.errors.CheckpointRestoreError`).
        """
        if not self.schedule and self.time:
            raise ConfigurationError(
                "checkpoint has no recorded schedule prefix; replay "
                "restore needs one (capture under a RecordingScheduler)"
            )
        from repro.obs.causal import trace_span
        from repro.sched.replay import PrefixReplayScheduler

        scheduler = PrefixReplayScheduler(inner, self.schedule, verify=verify)
        sim = build(scheduler)
        if sim.clock.now != 0:
            raise ConfigurationError(
                "build() must return a fresh simulator at t=0, got "
                f"t={sim.clock.now}"
            )
        with trace_span(
            "checkpoint.replay", label=self.label, steps=len(self.schedule)
        ):
            sim.run_fast(max_steps=len(self.schedule))
        findings = self.verify(sim)
        if findings:
            raise CheckpointRestoreError(
                "replayed run diverged from the checkpointed cut: "
                + "; ".join(str(f) for f in findings),
                findings=findings,
            )
        return sim

    def restore_direct(self, sim: Any) -> Any:
        """Poke the captured shared state into a fresh simulator.

        Restores the memory image, operation counter and clock only.
        Thread coroutine positions are not (cannot be) restored, so the
        target's threads must be freshly spawned stateless programs that
        re-read shared state — and every thread of the checkpoint must
        have been runnable at the cut.  Certified with
        ``verify(sim, state_only=True)`` before returning.
        """
        if any(t.state != "runnable" for t in self.threads):
            raise ConfigurationError(
                "direct restore requires every checkpointed thread to be "
                "runnable at the cut (finished/crashed coroutine "
                "positions cannot be re-created); use restore_by_replay"
            )
        if sim.clock.now != 0:
            raise ConfigurationError(
                f"direct restore target must be fresh (t=0), got "
                f"t={sim.clock.now}"
            )
        if len(sim.memory._values) != len(self.memory_values):
            raise ConfigurationError(
                "direct restore target has a different memory layout: "
                f"{len(sim.memory._values)} != {len(self.memory_values)} "
                "locations"
            )
        sim.memory._values[:] = list(self.memory_values)
        sim.memory._seq = self.memory_seq
        sim.clock._now = self.time
        findings = self.verify(sim, state_only=True)
        if findings:  # pragma: no cover - poke-then-check safety net
            raise CheckpointRestoreError(
                "direct restore failed verification: "
                + "; ".join(str(f) for f in findings),
                findings=findings,
            )
        return sim

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, digest included)."""
        payload = {
            "version": _VERSION,
            "seed": self.seed,
            "time": self.time,
            "memory_values": list(self.memory_values),
            "memory_seq": self.memory_seq,
            "threads": [asdict(t) for t in self.threads],
            "schedule": list(self.schedule),
            "label": self.label,
            "digest": self.digest(),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def _parse(cls, text: str) -> Tuple["Checkpoint", Optional[str]]:
        """Parse JSON into a checkpoint plus its *stored* digest (or
        ``None`` when the payload predates digests).  Raises
        :class:`~repro.errors.ConfigurationError` on malformed text;
        digest validation is left to the caller."""
        try:
            payload = json.loads(text)
            checkpoint = cls(
                seed=int(payload["seed"]),
                time=int(payload["time"]),
                memory_values=tuple(float(v) for v in payload["memory_values"]),
                memory_seq=int(payload["memory_seq"]),
                threads=tuple(
                    ThreadCut(
                        thread_id=int(t["thread_id"]),
                        name=str(t["name"]),
                        state=str(t["state"]),
                        steps_taken=int(t["steps_taken"]),
                    )
                    for t in payload["threads"]
                ),
                schedule=tuple(int(s) for s in payload["schedule"]),
                label=str(payload.get("label", "")),
            )
        except (ValueError, KeyError, TypeError) as error:
            raise ConfigurationError(f"not a checkpoint: {error}") from None
        stored = payload.get("digest")
        return checkpoint, None if stored is None else str(stored)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        checkpoint, stored = cls._parse(text)
        if stored is not None and stored != checkpoint.digest():
            raise ConfigurationError(
                "checkpoint digest mismatch (corrupt or hand-edited file)"
            )
        return checkpoint

    def save(self, path: PathLike) -> pathlib.Path:
        """Write the checkpoint atomically (crash leaves the old one)."""
        from repro.durable.atomic_io import atomic_write

        return atomic_write(path, self.to_json())

    @classmethod
    def load(cls, path: PathLike) -> "Checkpoint":
        return cls.from_json(pathlib.Path(path).read_text())


def inspect_checkpoint(text: str) -> Tuple[Optional[Checkpoint], List[Any]]:
    """Triage an on-disk checkpoint without raising.

    Where :meth:`Checkpoint.from_json` treats damage as a hard
    configuration error, this returns ``(checkpoint, findings)`` in the
    sanitizer's vocabulary, so recovery tooling can *report* a damaged
    artifact and fall back instead of crashing:

    * ``CKPT005`` — the stored digest disagrees with the recomputed one
      (e.g. the digest field was truncated on disk); the parsed
      checkpoint is still returned for forensics, but must not be
      restored from.
    * ``CKPT006`` — the text is not a checkpoint at all (torn JSON,
      wrong schema); no checkpoint is returned.
    """
    from repro.analysis.report import Finding

    try:
        checkpoint, stored = Checkpoint._parse(text)
    except ConfigurationError as error:
        return None, [
            Finding(
                source="checkpoint",
                rule="CKPT006",
                message=f"unreadable checkpoint: {error}",
                time=0,
            )
        ]
    findings: List[Any] = []
    if stored is not None and stored != checkpoint.digest():
        findings.append(
            Finding(
                source="checkpoint",
                rule="CKPT005",
                message=(
                    "stored digest does not match the checkpoint contents "
                    f"(expected {checkpoint.digest()[:12]}..., file says "
                    f"{stored[:12] + '...' if stored else '<empty>'}); "
                    "truncated or corrupted on disk — do not restore"
                ),
                time=checkpoint.time,
            )
        )
    return checkpoint, findings
