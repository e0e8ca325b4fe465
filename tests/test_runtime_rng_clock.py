"""Unit tests for RngStream, BlockDraws and Clock."""

import random

import numpy as np
import pytest

from repro.runtime.clock import Clock
from repro.runtime.rng import DRAW_BLOCK, BlockDraws, RngStream, spawn_streams


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream.root(42)
        b = RngStream.root(42)
        assert a.normal() == b.normal()
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_different_seeds_differ(self):
        draws_a = RngStream.root(1).normal(size=8)
        draws_b = RngStream.root(2).normal(size=8)
        assert not np.allclose(draws_a, draws_b)

    def test_spawn_children_are_independent_and_deterministic(self):
        first = [s.normal() for s in RngStream.root(7).spawn(3)]
        second = [s.normal() for s in RngStream.root(7).spawn(3)]
        assert first == second
        assert len(set(first)) == 3  # children differ from each other

    def test_spawn_one(self):
        child = RngStream.root(3).spawn_one()
        assert isinstance(child, RngStream)

    def test_spawn_streams_helper(self):
        streams = spawn_streams(5, 4)
        assert len(streams) == 4

    def test_choice_and_weights(self):
        stream = RngStream.root(0)
        options = ["a", "b", "c"]
        picks = {stream.choice(options) for _ in range(50)}
        assert picks <= set(options)
        assert len(picks) > 1

    def test_choice_with_p(self):
        stream = RngStream.root(0)
        picks = {stream.choice(["a", "b"], p=[1.0, 0.0]) for _ in range(10)}
        assert picks == {"a"}

    def test_uniform_bounds(self):
        stream = RngStream.root(1)
        draws = stream.uniform(2.0, 3.0, size=100)
        assert np.all(draws >= 2.0) and np.all(draws < 3.0)

    def test_shuffle_in_place(self):
        stream = RngStream.root(9)
        items = list(range(20))
        stream.shuffle(items)
        assert sorted(items) == list(range(20))


#: Bounds that hit every branch of below(): no draw, small ranges, the
#: rejection loop (just above 2**31 about half the draws are rejected)
#: and the largest accepted range.
BELOW_BOUNDS = (1, 2, 3, 4, 7, 10, 2**31 + 1, 2**31 + 12345, 2**32 - 1)


class TestBlockDraws:
    """BlockDraws must replay numpy's scalar draws exactly: the schedulers
    that use it promise the decisions numpy's calls would have made.  A
    numpy release that changes these streams fails here first."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_interleaved_draws_equal_numpy_scalar_calls(self, seed):
        twin = RngStream.root(seed).generator
        draws = BlockDraws(RngStream.root(seed).generator)
        script = random.Random(seed)
        calls = 50_000
        for k in range(calls):
            if script.random() < 0.3:
                assert draws.random() == twin.uniform(), k
            else:
                if script.random() < 0.8:
                    n = script.choice(BELOW_BOUNDS)
                else:
                    n = script.randrange(1, 2**32)
                assert draws.below(n) == int(twin.integers(0, n)), (k, n)
        # The run crossed many block refills, mid-sequence.
        assert calls // 2 > 10 * DRAW_BLOCK

    def test_adopts_a_pending_32_bit_half(self):
        generator = np.random.Generator(np.random.PCG64(5))
        twin = np.random.Generator(np.random.PCG64(5))
        generator.integers(0, 7)  # leaves the word's upper half buffered
        twin.integers(0, 7)
        assert generator.bit_generator.state["has_uint32"]
        draws = BlockDraws(generator)
        for _ in range(3 * DRAW_BLOCK):
            assert draws.below(5) == int(twin.integers(0, 5))
            assert draws.random() == twin.uniform()

    def test_below_one_consumes_no_draw(self):
        twin = RngStream.root(3).generator
        draws = BlockDraws(RngStream.root(3).generator)
        for _ in range(100):
            assert draws.below(1) == 0
        assert draws.random() == twin.uniform()

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_out_of_range_bounds_rejected(self, n):
        with pytest.raises(ValueError):
            BlockDraws(RngStream.root(0).generator).below(n)

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError):
            BlockDraws(np.random.Generator(np.random.MT19937(0)))


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_tick_returns_pre_increment(self):
        clock = Clock()
        assert clock.tick() == 0
        assert clock.tick() == 1
        assert clock.now == 2

    def test_custom_start(self):
        clock = Clock(start=10)
        assert clock.tick() == 10
