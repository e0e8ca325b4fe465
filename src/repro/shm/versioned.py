"""Versioned array + seqlock-style double-collect consistent scans.

Algorithm 1 reads the model entry by entry, so its views v_θ can be
*inconsistent* — that inconsistency is what the whole paper is about.
The classic shared-memory alternative is a **consistent scan** over a
seqlock-disciplined array: every entry carries a version counter;
writers bump it to *odd* before touching the value and to *even* after
(so an odd version means "write in flight"), and readers double-collect
(read all versions, read all values, read all versions again), retrying
unless the two version collects are identical and all even.

Correctness of a consistent collect (standard seqlock argument): if a
write to cell i were in flight while the reader collected cell i's
value, the version was odd at one of the collects; if a write completed
between the collects, the version advanced by 2 — either way the collects
differ and the scan retries.  Hence a successful collect equals the
memory state at some instant inside the scan.  (The naive
value-then-version protocol, without odd markers, admits a torn
``(old_0, new_1)`` collect whose versions still match — which is exactly
why seqlocks exist.)

This gives the substrate for the "price of consistency" ablation (A2):
consistent views remove the √d view-error blow-up, but each scan costs
≥ 3d steps instead of d, every *update* costs 3 steps instead of 1
(version-odd, value, version-even), retries burn steps under contention,
and an adversary can starve a scanner indefinitely (the scan is only
obstruction-free).  Algorithm 1's choice of cheap inconsistent reads +
analysis is exactly the other side of that trade.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.shm.array import AtomicArray
from repro.shm.memory import SharedMemory


class VersionedArray:
    """An :class:`AtomicArray` of values with a parallel version array.

    Args:
        memory: Backing shared memory.
        length: Number of logical entries d.
        name: Optional base name; registers ``<name>`` and
            ``<name>.versions`` segments.
    """

    def __init__(
        self, memory: SharedMemory, length: int, name: str = ""
    ) -> None:
        if length < 1:
            raise ConfigurationError(f"length must be >= 1, got {length}")
        self._version(AtomicArray.allocate(memory, length, name=name or None), name)

    @classmethod
    def over(cls, values: AtomicArray, name: str = "") -> "VersionedArray":
        """Version an already allocated value array (allocates only the
        ``<name>.versions`` segment)."""
        array = cls.__new__(cls)
        array._version(values, name)
        return array

    def _version(self, values: AtomicArray, name: str) -> None:
        self.memory, self.values, self.length = values.memory, values, values.length
        self.versions = AtomicArray.allocate(
            values.memory, values.length, name=f"{name}.versions" if name else None
        )

    def load(self, values: np.ndarray) -> None:
        """Initialize the value entries (setup helper; versions reset)."""
        self.values.load(values)
        self.versions.load(np.zeros(self.length))

    def snapshot(self) -> np.ndarray:
        """Omniscient value snapshot (metrics only; no steps)."""
        return self.values.snapshot()

    # ------------------------------------------------------------------
    # Protocols (sub-generators for simulated threads)
    # ------------------------------------------------------------------
    def update_ops(self, index: int, delta: float) -> Generator:
        """(generator) Add ``delta`` to entry ``index`` under the seqlock
        discipline: version fetch&add (→ odd, "write in flight"), value
        fetch&add, version fetch&add (→ even).  Three shared-memory
        steps."""
        yield self.versions.fetch_add_op(index, 1.0)
        yield self.values.fetch_add_op(index, delta)
        yield self.versions.fetch_add_op(index, 1.0)

    def scan_ops(
        self, max_retries: int = -1
    ) -> Generator[object, float, Tuple[np.ndarray, bool, int]]:
        """(generator) Seqlock double-collect consistent scan.

        Repeats (collect versions, collect values, collect versions)
        until the two version collects are identical *and all even*;
        returns ``(values, consistent, retries)``.  With
        ``max_retries >= 0`` the scan gives up after that many failed
        rounds and returns the last (possibly inconsistent) value collect
        with ``consistent=False`` — the fallback an implementation needs,
        because under an adversarial scheduler the pure scan can be
        starved forever (it is only obstruction-free).

        Drive with ``values, ok, retries = yield from arr.scan_ops()``.
        """
        retries = 0
        while True:
            before: List[float] = []
            for j in range(self.length):
                version = yield self.versions.read_op(j)
                before.append(version)
            collected = np.empty(self.length)
            for j in range(self.length):
                collected[j] = yield self.values.read_op(j)
            after: List[float] = []
            for j in range(self.length):
                version = yield self.versions.read_op(j)
                after.append(version)
            all_even = all(v % 2.0 == 0.0 for v in before)
            if before == after and all_even:
                return collected, True, retries
            retries += 1
            if 0 <= max_retries <= retries:
                return collected, False, retries
