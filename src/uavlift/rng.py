"""Deterministic, portable pseudo-random generation.

Every random draw in this package flows through :class:`SplitMix64`, a
64-bit counter-based generator fully specified by three constants so that
any language with unsigned 64-bit arithmetic reproduces the same stream:

    state'  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = state'
    z       = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  = z xor (z >> 31)

Uniform doubles take the top 53 bits of the output, so the uniform stream
is bit-exact everywhere. The k-th draw after a state s uses the state
s + k * 0x9E3779B97F4A7C15 mod 2^64, so `SplitMix64.uniforms` computes a
block of draws at once in NumPy uint64 arithmetic, bit-identical to as many
scalar `uniform` calls. Gaussian draws use the Box-Muller transform and
therefore inherit the platform's libm accuracy (identical in practice,
equal to within 1 ulp in the worst case).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53_INV = 2.0 ** -53


def check_seed(seed: int) -> int:
    """`seed` if it is a valid generator seed, an integer in [0, 2^64).
    A larger seed would alias the one 2^64 below it."""
    if not 0 <= seed <= _MASK64:
        raise ValidationError(f"seed must be a non-negative integer below 2**64, got {seed}")
    return seed


class SplitMix64:
    """Counter-based 64-bit generator; see module docstring for the update."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform double in [low, high); exactly `low` when the interval is degenerate."""
        u = (self.next_u64() >> 11) * _TWO53_INV
        return low + (high - low) * u

    def uniforms(self, shape, low=0.0, high=1.0) -> np.ndarray:
        """The next prod(shape) uniform draws as an array of `shape`, filled in
        C order, bit-identical to as many `uniform(low, high)` calls; `low`
        and `high` may be arrays that broadcast against `shape`."""
        count = int(np.prod(shape))
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GAMMA) & _MASK64
        u = (z >> np.uint64(11)).astype(np.float64).reshape(shape) * _TWO53_INV
        return low + (high - low) * u

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two uniforms."""
        # First uniform shifted into (0, 1] so the log argument is never zero.
        u1 = ((self.next_u64() >> 11) + 1) * _TWO53_INV
        u2 = (self.next_u64() >> 11) * _TWO53_INV
        return mean + std * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
