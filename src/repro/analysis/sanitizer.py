"""Race/staleness sanitizer — a FastTrack-style happens-before tracker
over the simulator's operation stream.

Every operation in this model executes atomically in one total order, so
memory never *tears* — what can still go wrong is algorithmic: a program
that reads ``X[k]``, computes locally, and then **writes** ``X[k]``
silently discards every update other threads landed in between.  That is
the classic lost-update hazard ("Taming the Wild", De Sa et al.,
NIPS'15) that Algorithm 1 avoids by using ``fetch&add`` and that
CAS-consistent variants (Bäckström et al., 2021) avoid by validating.
Nothing in a program's *types* prevents it, so the sanitizer watches
executions for it.

Mechanism (FastTrack adapted to sequentially consistent memory):

* every thread carries a **vector clock**, advanced on each of its
  operations;
* atomic read-modify-writes (``FetchAdd``, ``CompareAndSwap``, DCAS,
  guarded fetch&add) act as release+acquire on their address — each
  address accumulates a synchronization clock that RMWs join both ways,
  building the happens-before relation;
* plain ``Read``/``Write`` are tracked as last-read/last-write epochs
  per address.  A plain write by thread *t* whose value basis is a read
  that other threads have written past — with no happens-before edge
  ordering the intervening write before *t*'s — is a **lost update**
  (rule ``RS001``).
* at quiescence the sanitizer additionally flags **torn multi-entry
  updates** — threads that crashed mid-update with a partially applied
  gradient (``RS002``) — and checks **Lemma 6.1's total order** over the
  run's iteration records (``LEM61``, shared with the chaos monitors).

Cost model: the sanitizer consumes the shared memory's operation log at
**chunk boundaries** (:meth:`~repro.runtime.simulator.Simulator.
run_analyzed`), like every :class:`~repro.runtime.simulator.Analyzer`
(the chaos monitors among them) — the ``run_fast`` hot loop is
untouched, and a simulation without analyzers attached pays nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.lemmas import iteration_order_findings
from repro.analysis.report import Finding
from repro.errors import ConfigurationError
from repro.runtime.events import IterationRecord
from repro.runtime.simulator import Analyzer
from repro.runtime.thread import ThreadState
from repro.shm.ops import (
    OP_COMPARE_AND_SWAP,
    OP_DCSS,
    OP_FETCH_ADD,
    OP_GUARDED_FETCH_ADD,
    OP_NOOP,
    OP_READ,
    OP_WRITE,
)

#: Rule ids emitted by the sanitizer (see DESIGN.md §11).
RULE_LOST_UPDATE = "RS001"
RULE_TORN_UPDATE = "RS002"

#: A vector clock: thread id -> last-seen operation count of that thread.
VectorClock = Dict[int, int]


class _AddressState:
    """Per-address happens-before bookkeeping (FastTrack epochs)."""

    __slots__ = ("sync", "last_write", "write_count", "last_read")

    def __init__(self) -> None:
        #: Clock joined by atomic RMWs (the release/acquire channel).
        self.sync: VectorClock = {}
        #: Epoch of the most recent write-like op: (tid, clk, time).
        self.last_write: Optional[Tuple[int, int, int]] = None
        #: Total write-like operations applied to this address.
        self.write_count = 0
        #: Per-thread most recent plain read: tid -> (time, write_count).
        self.last_read: Dict[int, Tuple[int, int]] = {}


def _join(into: VectorClock, other: VectorClock) -> None:
    for tid, clk in other.items():
        if into.get(tid, 0) < clk:
            into[tid] = clk


class RaceStalenessSanitizer(Analyzer):
    """The race/staleness sanitizer (rules ``RS001``, ``RS002``,
    ``LEM61``).

    Args:
        check_iteration_order: Run the Lemma 6.1 total-order check over
            the trace's iteration records at quiescence.
        max_findings_per_rule: Report at most this many findings per
            rule (the totals stay exact — a summary finding reports the
            suppressed count), keeping reports readable on pathological
            programs.  Suppression is deterministic: the first N findings
            in execution order survive.
    """

    name = "race-staleness"

    def __init__(
        self,
        check_iteration_order: bool = True,
        max_findings_per_rule: int = 50,
    ) -> None:
        super().__init__()
        if max_findings_per_rule < 1:
            raise ConfigurationError(
                f"max_findings_per_rule must be >= 1, got {max_findings_per_rule}"
            )
        self.check_iteration_order = check_iteration_order
        self.max_findings_per_rule = max_findings_per_rule
        self._cursor = 0
        self._clocks: Dict[int, VectorClock] = {}
        self._addresses: Dict[int, _AddressState] = {}
        self._suppressed: Dict[str, int] = {}
        self._emitted: Dict[str, int] = {}
        self._segment_map: List[str] = []
        #: Exact per-rule totals, suppression included.
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Finding plumbing
    # ------------------------------------------------------------------
    def _emit(self, finding: Finding) -> None:
        self.counts[finding.rule] = self.counts.get(finding.rule, 0) + 1
        emitted = self._emitted.get(finding.rule, 0)
        if emitted >= self.max_findings_per_rule:
            self._suppressed[finding.rule] = (
                self._suppressed.get(finding.rule, 0) + 1
            )
            return
        self._emitted[finding.rule] = emitted + 1
        self.findings.append(finding)

    def _locate(self, sim, address: int) -> str:
        """Human-readable location: ``segment[offset]`` when the address
        belongs to a named segment, ``addr=N`` otherwise."""
        if len(self._segment_map) != sim.memory.size:
            table = ["" for _ in range(sim.memory.size)]
            for segment in sim.memory._segments.values():
                for offset in range(segment.length):
                    table[segment.base + offset] = f"{segment.name}[{offset}]"
            self._segment_map = table
        label = (
            self._segment_map[address]
            if 0 <= address < len(self._segment_map)
            else ""
        )
        return label or f"addr={address}"

    # ------------------------------------------------------------------
    # The happens-before tracker
    # ------------------------------------------------------------------
    def _clock(self, tid: int) -> VectorClock:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 0}
            self._clocks[tid] = clock
        return clock

    def _state(self, address: int) -> _AddressState:
        state = self._addresses.get(address)
        if state is None:
            state = _AddressState()
            self._addresses[address] = state
        return state

    def _happens_before(self, epoch: Tuple[int, int, int], tid: int) -> bool:
        writer, clk, _time = epoch
        return self._clocks.get(tid, {}).get(writer, 0) >= clk

    def _atomic(self, sim, tid: int, address: int, time: int, write: bool) -> None:
        clock = self._clock(tid)
        state = self._state(address)
        _join(clock, state.sync)
        _join(state.sync, clock)
        if write:
            state.last_write = (tid, clock[tid], time)
            state.write_count += 1
            state.last_read.pop(tid, None)

    def _plain_read(self, tid: int, address: int, time: int) -> None:
        state = self._state(address)
        state.last_read[tid] = (time, state.write_count)

    def _plain_write(self, sim, tid: int, address: int, time: int) -> None:
        state = self._state(address)
        read = state.last_read.get(tid)
        if read is not None:
            read_time, writes_at_read = read
            intervening = state.write_count - writes_at_read
            last = state.last_write
            if (
                intervening > 0
                and last is not None
                and last[0] != tid
                and not self._happens_before(last, tid)
            ):
                self._emit(
                    Finding(
                        source=self.name,
                        rule=RULE_LOST_UPDATE,
                        severity="error",
                        time=time,
                        thread_id=tid,
                        location=self._locate(sim, address),
                        message=(
                            f"lost update: thread {tid} wrote a value based "
                            f"on its read at t={read_time}, overwriting "
                            f"{intervening} concurrent update(s), most "
                            f"recently by thread {last[0]} at t={last[2]} "
                            f"(use fetch&add or CAS-validate instead of "
                            f"write)"
                        ),
                    )
                )
        clock = self._clock(tid)
        state.last_write = (tid, clock[tid], time)
        state.write_count += 1
        # The write supersedes the thread's read basis: a later write
        # without a fresh read is measured against this write instead.
        state.last_read[tid] = (time, state.write_count)

    def _process(self, sim, record) -> None:
        tid = record.thread_id
        op = record.op
        time = record.time
        clock = self._clock(tid)
        clock[tid] = clock.get(tid, 0) + 1
        opcode = getattr(op, "opcode", -1)
        if opcode == OP_READ:
            self._plain_read(tid, op.address, time)
        elif opcode == OP_WRITE:
            self._plain_write(sim, tid, op.address, time)
        elif opcode == OP_FETCH_ADD:
            self._atomic(sim, tid, op.address, time, write=True)
        elif opcode == OP_COMPARE_AND_SWAP:
            self._atomic(sim, tid, op.address, time, write=bool(record.result))
        elif opcode == OP_DCSS:
            self._atomic(sim, tid, op.guard_address, time, write=False)
            self._atomic(sim, tid, op.address, time, write=bool(record.result))
        elif opcode == OP_GUARDED_FETCH_ADD:
            landed = bool(record.result[0]) if record.result else False
            self._atomic(sim, tid, op.guard_address, time, write=False)
            self._atomic(sim, tid, op.address, time, write=landed)
        elif opcode == OP_NOOP:
            pass
        else:
            # Unknown custom primitive: conservatively treat it as an
            # atomic RMW on its address (never a false positive).
            self._atomic(sim, tid, op.address, time, write=True)

    # ------------------------------------------------------------------
    # Analyzer protocol
    # ------------------------------------------------------------------
    def drain(self, sim) -> None:
        """Process operation-log entries appended since the last drain."""
        log = sim.memory.log
        for index in range(self._cursor, len(log)):
            self._process(sim, log[index])
        self._cursor = len(log)

    def finish(self, sim) -> None:
        """Drain the tail, then run the quiescence-only checks."""
        self.drain(sim)
        self._check_torn_updates(sim)
        if self.check_iteration_order:
            records = [
                e for e in sim.trace if isinstance(e, IterationRecord)
            ]
            for finding in iteration_order_findings(records, source=self.name):
                self._emit(finding)
        for rule in sorted(self._suppressed):
            self.findings.append(
                Finding(
                    source=self.name,
                    rule=rule,
                    severity="warning",
                    message=(
                        f"{self._suppressed[rule]} further {rule} finding(s) "
                        f"suppressed (showing first "
                        f"{self.max_findings_per_rule}; exact total: "
                        f"{self.counts[rule]})"
                    ),
                )
            )
        self._suppressed.clear()

    def _check_torn_updates(self, sim) -> None:
        """Crashed threads holding a partially applied multi-component
        gradient left a torn model update behind."""
        for thread in sim.threads:
            if thread.state is not ThreadState.CRASHED:
                continue
            annotations = thread.context.annotations
            pending = annotations.get("pending_gradient")
            if annotations.get("phase") == "update" and pending is not None:
                self._emit(
                    Finding(
                        source=self.name,
                        rule=RULE_TORN_UPDATE,
                        severity="warning",
                        time=sim.now,
                        thread_id=thread.thread_id,
                        message=(
                            f"torn update: thread {thread.thread_id} "
                            f"({thread.name}) crashed mid-update with a "
                            f"partially applied gradient (model components "
                            f"may hold a mix of old and new updates)"
                        ),
                    )
                )
