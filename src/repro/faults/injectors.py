"""Runtime fault injectors and the scheduler that hosts them.

Injectors act *below* the scheduling decision: the
:class:`FaultInjectionScheduler` consults every injector at each
selection point — exactly where the model's adversary acts — then
delegates the actual pick to the inner scheduler.  An injector may:

* crash threads before the pick (:meth:`FaultInjector.before_select`),
* veto threads for this pick via stall windows
  (:meth:`FaultInjector.stalled`),
* inspect the chosen thread's *pending* operation and arrange a crash
  right after it executes (:meth:`FaultInjector.after_choice` — how torn
  updates are injected at op granularity without any per-step hook).

Besides the scheduling faults, *value-corruption* injectors (silent data
corruption: bit flips, NaN/Inf poisoning, duplicated and dropped writes)
also act at selection points, mutating stored values through the
unlogged ``poke`` path.  A poke costs no logical time, appends nothing
to the op log, and is invisible to every scheduler — so corrupting never
perturbs the schedule, only the values, which is exactly what "silent"
means.  Corruption injectors honor *suppression windows* (half-open
``[start, end)`` logical-time intervals) inside which they neither draw
nor fire; the heal layer uses these to retry a rolled-back chunk
fault-free while keeping checkpoint replay certification sound (windows
are part of the rebuildable engine configuration, not mutable state).

Because everything happens at ``select`` time, injection behaves
identically under :meth:`~repro.runtime.simulator.Simulator.run` and the
elided :meth:`~repro.runtime.simulator.Simulator.run_fast` batch loop —
the engine never needs step records to inject faults.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.faults.spec import (
    AdaptiveCrashSpec,
    BitFlipSpec,
    DroppedWriteSpec,
    DuplicateWriteSpec,
    InjectorSpec,
    PoisonSpec,
    ProbabilisticCrashSpec,
    StallSpec,
    TornUpdateSpec,
)
from repro.errors import ConfigurationError, UnknownAddressError
from repro.runtime.policy import live_hook
from repro.runtime.rng import RngStream
from repro.sched.base import Scheduler
from repro.shm.ops import OP_FETCH_ADD, OP_GUARDED_FETCH_ADD, OP_WRITE

#: Opcodes that mutate a model entry — the ops a torn-update fault tears.
_UPDATE_OPCODES = frozenset({OP_FETCH_ADD, OP_GUARDED_FETCH_ADD, OP_WRITE})


class FaultInjector:
    """Base class: a fault policy consulted at every selection point."""

    #: Crashes this injector has fired.
    fired: int = 0

    def before_select(self, sim, engine: "FaultInjectionScheduler") -> None:
        """Fire any crash due *now* (before the scheduler picks)."""

    def stalled(self, sim, engine: "FaultInjectionScheduler") -> Iterable[int]:
        """Thread ids this injector forbids from being picked right now."""
        return ()

    def after_choice(self, sim, engine: "FaultInjectionScheduler", thread) -> None:
        """Observe the chosen thread (and its pending op) before it runs."""


class ProbabilisticCrashInjector(FaultInjector):
    """Seeded memoryless crashes: each victim dies with probability
    ``rate`` at every selection point (budget-aware)."""

    def __init__(self, spec: ProbabilisticCrashSpec, rng: RngStream) -> None:
        self.spec = spec
        self.rng = rng
        self.fired = 0

    def before_select(self, sim, engine) -> None:
        spec = self.spec
        if sim.now < spec.after_time:
            return
        if spec.max_crashes is not None and self.fired >= spec.max_crashes:
            return
        victims = (
            spec.victims if spec.victims is not None else range(len(sim.threads))
        )
        for tid in victims:
            if tid >= len(sim.threads) or not sim.threads[tid].is_runnable:
                continue
            # One draw per runnable victim per select keeps the stream
            # aligned between run() and run_fast() (same select sequence).
            if self.rng.uniform() < spec.rate and engine.try_crash(sim, tid):
                self.fired += 1
                if (
                    spec.max_crashes is not None
                    and self.fired >= spec.max_crashes
                ):
                    return


class AdaptiveCrashInjector(FaultInjector):
    """Crash a victim the moment its published ``phase`` annotation
    matches — the adaptive adversary aiming for the worst instant."""

    def __init__(self, spec: AdaptiveCrashSpec, rng: RngStream) -> None:
        self.spec = spec
        self.fired = 0

    def before_select(self, sim, engine) -> None:
        spec = self.spec
        if sim.now < spec.after_time or self.fired >= spec.max_crashes:
            return
        victims = (
            spec.victims if spec.victims is not None else range(len(sim.threads))
        )
        for tid in victims:
            if tid >= len(sim.threads):
                continue
            thread = sim.threads[tid]
            if not thread.is_runnable:
                continue
            if thread.context.annotations.get("phase") != spec.phase:
                continue
            if engine.try_crash(sim, tid):
                self.fired += 1
                return  # at most one adaptive kill per selection point


class StallInjector(FaultInjector):
    """Deterministic delay windows during which victims take no steps."""

    def __init__(self, spec: StallSpec, rng: RngStream) -> None:
        self.spec = spec
        self.stall_steps = 0  # selection points at which a victim was vetoed

    def stalled(self, sim, engine) -> Iterable[int]:
        if not self.spec.open_at(sim.now):
            return ()
        self.stall_steps += 1
        return self.spec.victims


class TornUpdateInjector(FaultInjector):
    """Crash a thread immediately *after* an update op on the watched
    segment lands — a steerable torn-update fault.

    The injector inspects the chosen thread's pending op at select time;
    if the op is an update into the watched segment and the (seeded) coin
    fires, the thread is doomed: it executes exactly that op and is
    crashed at the next selection point, before it can take another step.
    """

    def __init__(self, spec: TornUpdateSpec, rng: RngStream) -> None:
        self.spec = spec
        self.rng = rng
        self.fired = 0
        self.torn = 0
        self._doomed: Set[int] = set()
        self._segment: Optional[Tuple[int, int]] = None  # (base, end)

    def _watch_range(self, sim) -> Optional[Tuple[int, int]]:
        if self._segment is None:
            try:
                seg = sim.memory.segment(self.spec.segment)
            except UnknownAddressError:
                return None
            self._segment = (seg.base, seg.base + seg.length)
        return self._segment

    def before_select(self, sim, engine) -> None:
        if not self._doomed:
            return
        for tid in sorted(self._doomed):
            if engine.try_crash(sim, tid):
                self.fired += 1
                self.torn += 1
        self._doomed.clear()

    def after_choice(self, sim, engine, thread) -> None:
        spec = self.spec
        if sim.now < spec.after_time:
            return
        if spec.max_crashes is not None and (
            self.fired + len(self._doomed) >= spec.max_crashes
        ):
            return
        if spec.victims is not None and thread.thread_id not in spec.victims:
            return
        op = thread.pending_op
        if op is None or op.opcode not in _UPDATE_OPCODES:
            return
        watch = self._watch_range(sim)
        if watch is None or not watch[0] <= op.address < watch[1]:
            return
        if self.rng.uniform() < spec.rate:
            self._doomed.add(thread.thread_id)


def _flip_bit(value: float, bit: int) -> float:
    """Flip one bit of a float64's IEEE-754 image."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))
    return flipped


class ValueCorruptionInjector(FaultInjector):
    """Base for silent-data-corruption injectors.

    Corruption mutates stored values via ``memory.poke`` — unlogged,
    free of logical time, invisible to schedulers — so it never perturbs
    the select sequence, only the numbers.  Suppression windows
    (:attr:`suppress_windows`, half-open ``[start, end)`` logical-time
    intervals) gate both the RNG draws and the effects: because they are
    indexed by logical time, a freshly built engine carrying the same
    windows reproduces the exact corruption pattern during checkpoint
    replay — the property the heal layer's rollback certification
    relies on.
    """

    def __init__(self, spec, rng: RngStream) -> None:
        self.spec = spec
        self.rng = rng
        self.corrupted = 0  # corruption events applied to memory
        self.suppress_windows: Tuple[Tuple[int, int], ...] = ()
        self._segment: Optional[Tuple[int, int]] = None  # (base, end)

    def _charged(self) -> int:
        """Corruption events counted against ``max_corruptions``."""
        return self.corrupted

    def _active(self, sim) -> bool:
        spec = self.spec
        now = sim.now
        if now < spec.after_time:
            return False
        if (
            spec.max_corruptions is not None
            and self._charged() >= spec.max_corruptions
        ):
            return False
        for start, end in self.suppress_windows:
            if start <= now < end:
                return False
        return True

    def _watch_range(self, sim) -> Optional[Tuple[int, int]]:
        if self._segment is None:
            try:
                seg = sim.memory.segment(self.spec.segment)
            except UnknownAddressError:
                return None
            self._segment = (seg.base, seg.base + seg.length)
        return self._segment


class BitFlipInjector(ValueCorruptionInjector):
    """Flip a random bit of a random watched component (seeded)."""

    def before_select(self, sim, engine) -> None:
        if not self._active(sim):
            return
        watch = self._watch_range(sim)
        if watch is None:
            return
        # Coin first, cell/bit only on a hit: a miss costs one draw
        # regardless of segment size, keeping streams cheap and aligned.
        if self.rng.uniform() >= self.spec.rate:
            return
        base, end = watch
        address = base + int(self.rng.integers(0, end - base))
        bit = int(self.rng.integers(0, 64))
        sim.memory.poke(address, _flip_bit(sim.memory.peek(address), bit))
        self.corrupted += 1
        engine.note_corruption()


class PoisonInjector(ValueCorruptionInjector):
    """Overwrite a random watched component with NaN or ±Inf (seeded)."""

    def before_select(self, sim, engine) -> None:
        if not self._active(sim):
            return
        watch = self._watch_range(sim)
        if watch is None:
            return
        if self.rng.uniform() >= self.spec.rate:
            return
        base, end = watch
        address = base + int(self.rng.integers(0, end - base))
        if self.spec.mode == "nan":
            value = math.nan
        else:
            value = math.inf if self.rng.uniform() < 0.5 else -math.inf
        sim.memory.poke(address, value)
        self.corrupted += 1
        engine.note_corruption()


class _WriteEchoInjector(ValueCorruptionInjector):
    """Shared machinery for duplicated / dropped ``fetch&add`` faults.

    The decision is taken at select time by inspecting the chosen
    thread's pending op (the op then provably lands this very step); the
    echo — re-applying or revoking its delta — is poked in at the next
    selection point, mirroring :class:`TornUpdateInjector`'s
    decide-then-fire structure.  Only plain ``fetch&add`` is watched:
    a guarded fetch&add may legally not land, so echoing it would not
    be *silent* corruption but a semantics change.
    """

    #: +1 re-applies the delta (duplicate); -1 revokes it (drop).
    echo_sign = 1.0

    def __init__(self, spec, rng: RngStream) -> None:
        super().__init__(spec, rng)
        self._pending: List[Tuple[int, float]] = []

    def _charged(self) -> int:
        return self.corrupted + len(self._pending)

    def before_select(self, sim, engine) -> None:
        if not self._pending:
            return
        for address, delta in self._pending:
            sim.memory.poke(
                address, sim.memory.peek(address) + self.echo_sign * delta
            )
            self.corrupted += 1
            engine.note_corruption()
        self._pending.clear()

    def after_choice(self, sim, engine, thread) -> None:
        spec = self.spec
        if not self._active(sim):
            return
        if spec.victims is not None and thread.thread_id not in spec.victims:
            return
        op = thread.pending_op
        if op is None or op.opcode != OP_FETCH_ADD:
            return
        watch = self._watch_range(sim)
        if watch is None or not watch[0] <= op.address < watch[1]:
            return
        if self.rng.uniform() < spec.rate:
            self._pending.append((op.address, op.delta))


class DuplicateWriteInjector(_WriteEchoInjector):
    """Apply a landed ``fetch&add`` delta a second time (at-least-once)."""

    echo_sign = 1.0


class DroppedWriteInjector(_WriteEchoInjector):
    """Revoke a landed ``fetch&add`` delta (lost update)."""

    echo_sign = -1.0


def build_injector(spec: InjectorSpec, rng: RngStream) -> FaultInjector:
    """Instantiate the runtime injector for one spec."""
    if isinstance(spec, ProbabilisticCrashSpec):
        return ProbabilisticCrashInjector(spec, rng)
    if isinstance(spec, AdaptiveCrashSpec):
        return AdaptiveCrashInjector(spec, rng)
    if isinstance(spec, StallSpec):
        return StallInjector(spec, rng)
    if isinstance(spec, TornUpdateSpec):
        return TornUpdateInjector(spec, rng)
    if isinstance(spec, BitFlipSpec):
        return BitFlipInjector(spec, rng)
    if isinstance(spec, PoisonSpec):
        return PoisonInjector(spec, rng)
    if isinstance(spec, DuplicateWriteSpec):
        return DuplicateWriteInjector(spec, rng)
    if isinstance(spec, DroppedWriteSpec):
        return DroppedWriteInjector(spec, rng)
    raise ConfigurationError(f"unknown injector spec: {type(spec).__name__}")


class FaultInjectionScheduler(Scheduler):
    """Compose fault injectors below any inner scheduler.

    At each selection point the engine (1) lets every injector fire due
    crashes, (2) collects the stall veto set, (3) asks the inner
    scheduler for its pick and deterministically reroutes it to the
    lowest-id non-stalled runnable thread when the pick is vetoed (a
    stall is a delay, so *someone else* runs), and (4) shows the chosen
    thread to every injector before its pending op executes.

    Crash-budget accounting is centralized in :meth:`try_crash`: the
    model's hard ``n - 1`` rule, the spec-level ``crash_budget``, and a
    conservative "never kill the last runnable thread" guard.  Requests
    the budget rejects are counted in :attr:`skipped_crashes`.

    Like :class:`~repro.sched.crash.CrashScheduler`, the inner's hooks
    are forwarded only when live, so benign inners keep ``run_fast``'s
    elided path.
    """

    def __init__(
        self,
        inner: Scheduler,
        injectors: Sequence[FaultInjector] = (),
        crash_budget: Optional[int] = None,
        name: str = "",
    ) -> None:
        self.inner = inner
        self.injectors = tuple(injectors)
        self.crash_budget = crash_budget
        self.name = name or "faults"
        self.crashes_fired = 0
        self.skipped_crashes = 0
        self.stall_reroutes = 0
        self._m_crashes = None
        self._m_skipped = None
        self._m_reroutes = None
        self._m_corruptions = None
        spawn_hook = live_hook(inner, "on_spawn")
        if spawn_hook is not None:
            self.on_spawn = spawn_hook
        step_hook = live_hook(inner, "on_step")
        if step_hook is not None:
            self.on_step = step_hook

    def attach_metrics(self, metrics) -> None:
        """Wire ``repro_faults_*`` counters (fault events are rare, so
        they are counted per event — the per-step select path stays
        uninstrumented).  ``None`` detaches."""
        if metrics is None:
            self._m_crashes = self._m_skipped = self._m_reroutes = None
            self._m_corruptions = None
            return
        self._m_crashes = metrics.counter(
            "repro_faults_crashes_total", "injected crashes fired"
        )
        self._m_skipped = metrics.counter(
            "repro_faults_crashes_skipped_total",
            "crash requests rejected by the budget guards",
        )
        self._m_reroutes = metrics.counter(
            "repro_faults_stall_reroutes_total",
            "picks rerouted around stalled threads",
        )
        self._m_corruptions = metrics.counter(
            "repro_faults_corruptions_total",
            "value-corruption events applied to shared memory",
        )

    def note_corruption(self) -> None:
        """Count one applied corruption event (called by injectors)."""
        if self._m_corruptions is not None:
            self._m_corruptions.inc()

    @property
    def corruptions(self) -> int:
        """Corruption events applied to memory across all injectors."""
        return sum(
            injector.corrupted
            for injector in self.injectors
            if isinstance(injector, ValueCorruptionInjector)
        )

    def set_suppression(self, windows: Sequence[Tuple[int, int]]) -> None:
        """Install logical-time suppression windows on every corruption
        injector (scheduling-fault injectors are unaffected).  The heal
        layer passes the same windows to replay-rebuilt engines, so the
        corruption pattern is a pure function of (spec, seed, windows).
        """
        frozen = tuple((int(start), int(end)) for start, end in windows)
        for injector in self.injectors:
            if isinstance(injector, ValueCorruptionInjector):
                injector.suppress_windows = frozen

    def try_crash(self, sim, thread_id: int) -> bool:
        """Crash ``thread_id`` if every budget allows it.

        Returns ``True`` when the crash fired.  Rejections (dead victim
        excluded) are tallied in :attr:`skipped_crashes` so campaigns can
        report how often the budget saved the run.
        """
        if thread_id >= len(sim.threads) or not sim.threads[thread_id].is_runnable:
            return False
        if self.crash_budget is not None and self.crashes_fired >= self.crash_budget:
            self.skipped_crashes += 1
            if self._m_skipped is not None:
                self._m_skipped.inc()
            return False
        # Keep one runnable thread alive: implies the model's n-1 rule
        # (crashed <= n - runnable <= n - 1) and keeps time advancing.
        if sim.runnable_count <= 1 or sim.crashed_count + 1 >= len(sim.threads):
            self.skipped_crashes += 1
            if self._m_skipped is not None:
                self._m_skipped.inc()
            return False
        sim.crash(thread_id)
        self.crashes_fired += 1
        if self._m_crashes is not None:
            self._m_crashes.inc()
        return True

    def select(self, sim) -> int:
        injectors = self.injectors
        for injector in injectors:
            injector.before_select(sim, self)
        stalled: Set[int] = set()
        for injector in injectors:
            stalled.update(injector.stalled(sim, self))
        choice = self.inner.select(sim)
        if stalled and choice in stalled:
            for tid, thread in enumerate(sim.threads):
                if thread.is_runnable and tid not in stalled:
                    self.stall_reroutes += 1
                    if self._m_reroutes is not None:
                        self._m_reroutes.inc()
                    choice = tid
                    break
            # All runnable threads stalled: let the pick through —
            # the adversary may not freeze time.
        chosen = sim.threads[choice]
        for injector in injectors:
            injector.after_choice(sim, self, chosen)
        return choice
