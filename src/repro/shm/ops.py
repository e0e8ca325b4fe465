"""Atomic operation descriptors.

Simulated threads do not touch memory directly.  Instead they *yield* one
of the descriptor objects defined here; the runtime hands the descriptor
to :class:`repro.shm.memory.SharedMemory`, which applies it atomically and
feeds the result back into the thread's coroutine.  One yielded descriptor
is one *shared-memory step* — the unit in which the paper measures time.

All descriptors are small frozen dataclasses so they can be logged,
compared, replayed and shared: a program may yield one instance for
many steps (:class:`~repro.core.epoch_sgd.SGDProgram` yields one claim
and one read per model entry for its whole run), and the log, the
fault injectors and the analyzers may hold it long after.  Never
mutate a descriptor; build a new one (``dataclasses.replace``).
``address`` is an integer into the flat location table managed by
:class:`~repro.shm.memory.SharedMemory`.

Dispatch: every concrete descriptor class carries a dense integer
:attr:`~Operation.opcode` and implements :meth:`~Operation.apply`, the
pure semantics of the primitive against a flat value table.  The memory
applies descriptors through :data:`DISPATCH_TABLE` — a tuple indexed by
opcode — instead of an ``isinstance`` chain, which is what keeps the
simulator's per-step cost flat (this is the innermost loop of every
Monte-Carlo run; see DESIGN.md "Performance architecture").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, List, Tuple

from repro.errors import UnknownAddressError

#: Dense opcodes, one per concrete descriptor class (indices into
#: :data:`DISPATCH_TABLE`).
OP_READ = 0
OP_WRITE = 1
OP_FETCH_ADD = 2
OP_COMPARE_AND_SWAP = 3
OP_DCSS = 4
OP_GUARDED_FETCH_ADD = 5
OP_NOOP = 6


@dataclass(frozen=True)
class Operation:
    """Base class for every atomic shared-memory primitive.

    Attributes:
        address: Flat index of the memory location this operation targets.
    """

    #: Dense dispatch index; concrete subclasses override it.  ``-1``
    #: marks the abstract base (never dispatchable).
    opcode: ClassVar[int] = -1

    address: int

    def apply(self, values: List[float]):
        """Apply this primitive to the flat location table ``values``.

        Mutates ``values`` in place and returns the step result fed back
        to the invoking thread.  Raises :class:`UnknownAddressError` for
        out-of-range addresses.  Subclasses must override.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement apply()"
        )


@dataclass(frozen=True)
class Read(Operation):
    """Atomically read a location; the step result is its current value."""

    opcode: ClassVar[int] = OP_READ

    def apply(self, values: List[float]) -> float:
        address = self.address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        return values[address]


@dataclass(frozen=True)
class Write(Operation):
    """Atomically overwrite a location with ``value``; the result is ``None``.

    The paper points out (Section 1) that whole-model ``write`` updates let
    a delayed thread obliterate all progress; Algorithm 1 therefore uses
    :class:`FetchAdd`.  ``Write`` is kept so the ablation benchmarks can
    demonstrate exactly that failure mode.
    """

    opcode: ClassVar[int] = OP_WRITE

    value: float

    def apply(self, values: List[float]) -> None:
        address = self.address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        values[address] = self.value
        return None


@dataclass(frozen=True)
class FetchAdd(Operation):
    """Atomic ``fetch&add``: add ``delta`` and return the *previous* value.

    This matches the paper's primitive: "The fetch&add operation takes one
    argument, and returns the value of the register before the increment
    was performed."
    """

    opcode: ClassVar[int] = OP_FETCH_ADD

    delta: float

    def apply(self, values: List[float]) -> float:
        address = self.address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        previous = values[address]
        values[address] = previous + self.delta
        return previous


@dataclass(frozen=True)
class CompareAndSwap(Operation):
    """Atomic compare-and-swap.

    If the location currently holds ``expected``, store ``new`` and return
    ``True``; otherwise leave it unchanged and return ``False``.
    """

    opcode: ClassVar[int] = OP_COMPARE_AND_SWAP

    expected: float
    new: float

    def apply(self, values: List[float]) -> bool:
        address = self.address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        if values[address] == self.expected:
            values[address] = self.new
            return True
        return False


@dataclass(frozen=True)
class DoubleCompareSingleSwap(Operation):
    """DCAS as used by Algorithm 2's epoch isolation.

    Compares *two* locations — a guard (typically the epoch counter) and
    the target — and swaps only the target:

    if ``mem[guard_address] == guard_expected`` and
    ``mem[address] == expected`` then ``mem[address] = new`` and the result
    is ``True``; otherwise nothing changes and the result is ``False``.
    """

    opcode: ClassVar[int] = OP_DCSS

    expected: float
    new: float
    guard_address: int = -1
    guard_expected: float = 0.0

    def apply(self, values: List[float]) -> bool:
        address, guard_address = self.address, self.guard_address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        if not 0 <= guard_address < len(values):
            raise UnknownAddressError(guard_address)
        if (
            values[guard_address] == self.guard_expected
            and values[address] == self.expected
        ):
            values[address] = self.new
            return True
        return False


@dataclass(frozen=True)
class GuardedFetchAdd(Operation):
    """A ``fetch&add`` conditioned on a guard location.

    If ``mem[guard_address] == guard_expected``, performs
    ``fetch&add(address, delta)`` and returns ``(True, previous_value)``.
    Otherwise returns ``(False, current_value)`` and changes nothing.

    This is the primitive Algorithm 2 needs to ensure "a gradient update
    can only be applied to X in the same epoch when it was generated": the
    guard is the shared epoch counter.  It is implementable from the
    paper's DCAS via the standard read-then-DCAS retry loop; we provide it
    directly so that simulated runs don't spend steps on retries that a
    real DCAS loop would resolve, while preserving the same semantics (the
    add happens atomically iff the epoch still matches).
    """

    opcode: ClassVar[int] = OP_GUARDED_FETCH_ADD

    delta: float
    guard_address: int = -1
    guard_expected: float = 0.0

    def apply(self, values: List[float]) -> Tuple[bool, float]:
        address, guard_address = self.address, self.guard_address
        if not 0 <= address < len(values):
            raise UnknownAddressError(address)
        if not 0 <= guard_address < len(values):
            raise UnknownAddressError(guard_address)
        current = values[address]
        if values[guard_address] == self.guard_expected:
            values[address] = current + self.delta
            return (True, current)
        return (False, current)


@dataclass(frozen=True)
class Noop(Operation):
    """A step that touches memory but changes nothing and returns ``None``.

    Useful for modeling busy-waiting or adversary-inserted padding steps;
    it still consumes one unit of logical time.
    """

    opcode: ClassVar[int] = OP_NOOP

    address: int = 0

    def apply(self, values: List[float]) -> None:
        if not 0 <= self.address < len(values):
            raise UnknownAddressError(self.address)
        return None


def _build_dispatch_table() -> Tuple[Callable, ...]:
    """The opcode-indexed dispatch table.

    Entry ``i`` is the unbound ``apply`` of the descriptor class whose
    opcode is ``i``; :meth:`SharedMemory._apply` indexes it with
    ``op.opcode`` instead of walking an ``isinstance`` chain.
    """
    classes = (
        Read,
        Write,
        FetchAdd,
        CompareAndSwap,
        DoubleCompareSingleSwap,
        GuardedFetchAdd,
        Noop,
    )
    table: List[Callable] = [Operation.apply] * len(classes)
    for cls in classes:
        if table[cls.opcode] is not Operation.apply:
            raise ValueError(f"duplicate opcode {cls.opcode} for {cls.__name__}")
        table[cls.opcode] = cls.apply
    return tuple(table)


#: Opcode-indexed tuple of ``apply`` functions, built once at import.
DISPATCH_TABLE: Tuple[Callable, ...] = _build_dispatch_table()
