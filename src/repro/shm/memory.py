"""The sequentially consistent shared memory.

:class:`SharedMemory` owns a flat table of atomic locations and applies
:class:`~repro.shm.ops.Operation` descriptors to it one at a time.  Because
operations are applied in a single total order, the memory *is* its own
sequential-consistency witness; the optional operation log records that
order so the checkers in :mod:`repro.shm.history` and the contention
analysis in :mod:`repro.theory.contention` can inspect it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import InvalidOperationError, UnknownAddressError
from repro.shm.ops import DISPATCH_TABLE, Operation


@dataclass(frozen=True)
class LogRecord:
    """One entry of the totally ordered operation log.

    Attributes:
        seq: Position of the operation in the global total order (0-based).
        time: Logical time at which the operation was applied.  In the
            simulator this equals ``seq`` (time is measured in scheduled
            shared-memory steps), but direct (non-simulated) use may pass
            any monotone value.
        thread_id: Identifier of the invoking thread, or ``-1`` for direct
            (non-simulated) accesses.
        op: The operation descriptor that was applied.
        result: The value returned to the invoking thread.
    """

    seq: int
    time: int
    thread_id: int
    op: Operation
    result: Any


@dataclass
class _Segment:
    """Bookkeeping for one named allocation."""

    name: str
    base: int
    length: int


class SharedMemory:
    """A flat table of atomic locations with a total operation order.

    Args:
        record_log: When ``True`` (the default) every applied operation is
            appended to :attr:`log`.  Long simulations that only need final
            values can disable recording to save memory.

    Example:
        >>> mem = SharedMemory()
        >>> base = mem.allocate(2, name="X")
        >>> mem.execute(FetchAdd(base, 5.0))
        0.0
        >>> mem.execute(Read(base))
        5.0
    """

    #: Opcode → metric-name fragment for :meth:`attach_metrics`.
    _OP_NAMES = (
        "read",
        "write",
        "fetch_add",
        "compare_and_swap",
        "dcss",
        "guarded_fetch_add",
        "noop",
    )

    def __init__(self, record_log: bool = True) -> None:
        self._values: List[float] = []
        self._segments: Dict[str, _Segment] = {}
        self.record_log = record_log
        self.log: List[LogRecord] = []
        self._seq = 0
        self._op_counters: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(
        self, length: int = 1, name: Optional[str] = None, initial: float = 0.0
    ) -> int:
        """Allocate ``length`` contiguous locations, all set to ``initial``.

        Returns the base address.  ``name`` registers the segment for
        later lookup via :meth:`segment`; names must be unique.
        """
        if length < 1:
            raise InvalidOperationError(f"allocation length must be >= 1, got {length}")
        base = len(self._values)
        self._values.extend([initial] * length)
        if name is not None:
            if name in self._segments:
                raise InvalidOperationError(f"segment name already in use: {name!r}")
            self._segments[name] = _Segment(name=name, base=base, length=length)
        return base

    def segment(self, name: str) -> _Segment:
        """Return the (name, base, length) record of a named allocation."""
        try:
            return self._segments[name]
        except KeyError:
            raise UnknownAddressError(-1) from None

    @property
    def size(self) -> int:
        """Total number of allocated locations."""
        return len(self._values)

    # ------------------------------------------------------------------
    # Non-step inspection (used by adversaries, metrics and tests; does
    # NOT consume logical time and is not part of the operation log).
    # ------------------------------------------------------------------
    def peek(self, address: int) -> float:
        """Inspect a location without taking a step."""
        self._check(address)
        return self._values[address]

    def peek_range(self, base: int, length: int) -> List[float]:
        """Inspect ``length`` consecutive locations without taking steps."""
        self._check(base)
        self._check(base + length - 1)
        return list(self._values[base : base + length])

    def poke(self, address: int, value: float) -> None:
        """Set a location directly (test/setup helper; not logged)."""
        self._check(address)
        self._values[address] = value

    # ------------------------------------------------------------------
    # Telemetry (repro.obs)
    # ------------------------------------------------------------------
    def attach_metrics(self, metrics: Any) -> None:
        """Wire per-opcode operation counters into :meth:`execute`.

        ``None`` detaches.  Note the scope: the
        ``run_fast()`` elided path dispatches straight off the opcode
        table and bypasses :meth:`execute`, so opcode counters are only
        populated on the standard (logged) path — by design, the hot
        loop is never instrumented per step.
        """
        if metrics is None:
            self._op_counters = None
            return
        self._op_counters = [
            metrics.counter(
                f"repro_shm_op_{name}_total", f"{name} operations applied"
            )
            for name in self._OP_NAMES
        ]

    # ------------------------------------------------------------------
    # The one and only mutation path for simulated threads
    # ------------------------------------------------------------------
    def execute(self, op: Operation, time: int = -1, thread_id: int = -1) -> Any:
        """Apply ``op`` atomically and return its result.

        This is the linearization point of every primitive: operations are
        applied in the order :meth:`execute` is called, which the simulator
        drives one scheduled step at a time.
        """
        result = self._apply(op)
        if self._op_counters is not None:
            opcode = getattr(op, "opcode", -1)
            if 0 <= opcode < len(self._op_counters):
                self._op_counters[opcode].inc()
        if self.record_log:
            if time < 0:
                time = self._seq
            self.log.append(
                LogRecord(
                    seq=self._seq, time=time, thread_id=thread_id, op=op, result=result
                )
            )
        self._seq += 1
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(self, address: int) -> None:
        if not 0 <= address < len(self._values):
            raise UnknownAddressError(address)

    def _apply(self, op: Operation) -> Any:
        # Opcode-table dispatch: one class-attribute lookup plus a tuple
        # index, instead of the former isinstance chain (up to 7 checks on
        # the hottest path of every simulation step).
        opcode = getattr(op, "opcode", -1)
        if 0 <= opcode < len(DISPATCH_TABLE):
            return DISPATCH_TABLE[opcode](op, self._values)
        if isinstance(op, Operation) and opcode >= 0:
            # Custom descriptor registered outside the built-in table:
            # fall back to its own apply().
            return op.apply(self._values)
        raise InvalidOperationError(f"unknown operation type: {type(op).__name__}")
