import math

import numpy as np
import pytest

from uavlift.rng import SplitMix64

# Reference outputs of the published constants for seed 1234567; any
# implementation of the documented update must reproduce these exactly.
REFERENCE_STREAM = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_reference_stream():
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(5)] == REFERENCE_STREAM


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_uniform_range():
    gen = SplitMix64(7)
    draws = [gen.uniform(-3.0, 5.0) for _ in range(10_000)]
    assert all(-3.0 <= d < 5.0 for d in draws)
    # crude coverage check: both halves of the interval get hits
    assert any(d < 1.0 for d in draws) and any(d > 1.0 for d in draws)


def test_uniform_degenerate_interval_is_exact():
    gen = SplitMix64(3)
    assert all(gen.uniform(5.0, 5.0) == 5.0 for _ in range(50))


def test_normal_moments():
    gen = SplitMix64(11)
    draws = [gen.normal(2.0, 3.0) for _ in range(20_000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert mean == pytest.approx(2.0, abs=0.1)
    assert math.sqrt(var) == pytest.approx(3.0, rel=0.05)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SplitMix64(-1)


# Seeds for the vectorized draws: the edges of the 64-bit state space and
# 196 more spread over it by the generator itself.
EDGE_SEEDS = [0, 1, 2**63, 2**64 - 1]
_spread = SplitMix64(20240601)
SEEDS = EDGE_SEEDS + [_spread.next_u64() for _ in range(196)]


def scalar_uniforms(seed: int, count: int, low=0.0, high=1.0) -> list[str]:
    gen = SplitMix64(seed)
    return [gen.uniform(low, high).hex() for _ in range(count)]


def hexes(values) -> list[str]:
    return [v.hex() for v in np.asarray(values).ravel().tolist()]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_vectorized_draws_match_the_scalar_stream(count):
    for seed in SEEDS:
        assert hexes(SplitMix64(seed).uniforms(count)) == scalar_uniforms(seed, count), seed
        assert hexes(SplitMix64(seed).uniforms(count, -3.0, 5.0)) == scalar_uniforms(
            seed, count, -3.0, 5.0
        ), seed


# The scalar stream costs about 0.1 s per 36 000 draws, so the long draws
# cover the edge seeds and a dozen others, not all 200.
@pytest.mark.parametrize("seed", EDGE_SEEDS + SEEDS[4:16])
def test_a_long_block_matches_the_scalar_stream(seed):
    assert hexes(SplitMix64(seed).uniforms(3 * 12000)) == scalar_uniforms(seed, 3 * 12000)


def test_per_column_bounds_follow_the_interleaved_scalar_draws():
    low, high = np.array([-1.0, 0.0, 4500.0]), np.array([1.0, 250.0, 18000.0])
    for seed in SEEDS[:20]:
        gen = SplitMix64(seed)
        expected = [
            gen.uniform(lo, hi).hex() for _ in range(50) for lo, hi in zip(low.tolist(), high.tolist())
        ]
        assert hexes(SplitMix64(seed).uniforms((50, 3), low, high)) == expected


def test_block_draws_advance_the_state_like_scalar_draws():
    for seed in SEEDS:
        blocks = SplitMix64(seed)
        scalar = SplitMix64(seed)
        first = blocks.uniforms(7)
        assert blocks.state == (scalar.state + 7 * 0x9E3779B97F4A7C15) % 2**64
        assert hexes(first) == [scalar.uniform().hex() for _ in range(7)]
        assert blocks.uniform().hex() == scalar.uniform().hex()
        assert hexes(blocks.uniforms(0)) == []
        assert hexes(blocks.uniforms(4)) == [scalar.uniform().hex() for _ in range(4)]


def test_vectorized_degenerate_interval_is_exact():
    assert hexes(SplitMix64(3).uniforms(50, 5.0, 5.0)) == [(5.0).hex()] * 50
