"""Deterministic, splittable random-number streams.

Every source of randomness in the library — thread-local coin flips,
gradient sampling noise, stochastic schedulers, Monte-Carlo experiment
seeds — draws from an :class:`RngStream`.  Streams are derived from a root
seed via :class:`numpy.random.SeedSequence` spawning, which guarantees
independence between streams and bit-for-bit reproducibility of whole
experiments from a single integer.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class RngStream:
    """A named, seeded random stream.

    Thin wrapper over :class:`numpy.random.Generator` that remembers its
    seed sequence so children can be spawned deterministically.

    Args:
        seed_seq: The seed sequence backing this stream.  Pass an ``int``
            to create a root stream.
    """

    def __init__(self, seed_seq) -> None:
        if isinstance(seed_seq, (int, np.integer)):
            seed_seq = np.random.SeedSequence(int(seed_seq))
        self.seed_seq: np.random.SeedSequence = seed_seq
        self.generator = np.random.Generator(np.random.PCG64(seed_seq))

    @classmethod
    def root(cls, seed: int) -> "RngStream":
        """Create a root stream from an integer seed."""
        return cls(np.random.SeedSequence(seed))

    def spawn(self, n: int) -> List["RngStream"]:
        """Derive ``n`` independent child streams."""
        return [RngStream(child) for child in self.seed_seq.spawn(n)]

    def spawn_one(self) -> "RngStream":
        """Derive a single independent child stream."""
        return self.spawn(1)[0]

    # -- draws -------------------------------------------------------------
    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian draw(s)."""
        return self.generator.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform draw(s)."""
        return self.generator.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integer draw(s) in ``[low, high)``."""
        return self.generator.integers(low, high, size=size)

    def choice(self, options: Sequence, p=None):
        """Choose one element of ``options`` (optionally weighted)."""
        index = self.generator.choice(len(options), p=p)
        return options[int(index)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self.generator.shuffle(items)

    def __repr__(self) -> str:
        return f"RngStream(entropy={self.seed_seq.entropy!r})"


def spawn_streams(seed: int, n: int) -> List[RngStream]:
    """Create ``n`` independent streams from a root integer seed."""
    return RngStream.root(seed).spawn(n)


#: Raw 64-bit words a :class:`BlockDraws` fetches per refill.
DRAW_BLOCK = 512

_MASK32 = 0xFFFFFFFF
_TWO32 = 0x100000000
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class BlockDraws:
    """Scalar draws from a PCG64 generator, served from raw-output blocks.

    ``random()`` returns exactly what ``generator.uniform()`` would and
    ``below(n)`` exactly what ``int(generator.integers(0, n))`` would,
    call for call, in any interleaving — the same 64-bit words, the same
    upper-32-bit half buffered between 32-bit draws, Lemire's
    multiply-and-reject for bounded integers — but without numpy's
    per-call dispatch, which costs far more than the draw itself.
    ``tests/test_runtime_rng_clock.py`` pins the equivalence against the
    installed numpy.

    The helper reads ahead ``DRAW_BLOCK`` words at a time, so once it
    owns a generator nothing else may draw from that generator.
    """

    __slots__ = ("_bit_generator", "_words", "_half")

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        state = bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"BlockDraws needs a PCG64 generator, got {state['bit_generator']}"
            )
        self._bit_generator = bit_generator
        self._words: List[int] = []
        # PCG64 serves a 32-bit draw as the low half of a fresh word and
        # keeps the high half for the next one; adopt a pending half.
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> List[int]:
        words = self._bit_generator.random_raw(DRAW_BLOCK).tolist()
        words.reverse()  # pop() from the end serves them in order
        self._words = words
        return words

    def random(self) -> float:
        """A float in [0, 1) — ``Generator.uniform()``'s next value."""
        words = self._words or self._refill()
        return (words.pop() >> 11) * _DOUBLE_UNIT

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        words = self._words or self._refill()
        word = words.pop()
        self._half = word >> 32
        return word & _MASK32

    def below(self, n: int) -> int:
        """An int in [0, n) — ``int(Generator.integers(0, n))``'s next
        value; ``n == 1`` consumes no draw."""
        if n < 2 or n >= _TWO32:
            if n == 1:
                return 0
            raise ValueError(f"below() needs 1 <= n < 2**32, got {n}")
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_TWO32 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32
