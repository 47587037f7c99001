"""Deterministic counter-based random numbers, the plain-integer reference.

The generator is splitmix64.  State advances by the 64-bit golden-ratio
constant and each output is the avalanche of the new state:

    GOLDEN = 0x9E3779B97F4A7C15
    finalize(z):
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
    output k of a stream seeded with s  =  finalize(s + (k + 1) * GOLDEN)

All arithmetic is modulo 2**64.  Trial i of a simulation with master seed
`seed` uses its own stream seeded with mix(seed, i) = finalize(seed + i *
GOLDEN), so trials can be evaluated in any order, in any grouping, and the
draws never change.  Doubles take the top 53 bits: (x >> 11) * 2**-53,
uniform on [0, 1), so a double is below 1/2 exactly when x < HALF_U64 =
2**63: a fair coin can read the top bit and skip forming the double.

This module needs no numpy, so the tree generators that draw from a Stream
run without it.  The numpy port used by the vectorized simulators is the
rng module, and the two must agree bit for bit.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

DOUBLE_SCALE = 2.0 ** -53
HALF_U64 = 1 << 63  # to_double(x) < 0.5 exactly when x < HALF_U64


def check_seed(seed) -> None:
    """Refuse a seed outside [0, 2**64): one would be reduced mod 2**64."""
    if type(seed) is bool or not isinstance(seed, int) or not 0 <= seed <= MASK:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")


def finalize(z: int) -> int:
    """Avalanche a 64-bit value (splitmix64 output function)."""
    z &= MASK
    z = (z ^ (z >> 30)) * MIX1 & MASK
    z = (z ^ (z >> 27)) * MIX2 & MASK
    return z ^ (z >> 31)


def mix(seed: int, i: int) -> int:
    """Derive the stream seed for trial i from the master seed."""
    return finalize((seed + i * GOLDEN) & MASK)


def to_double(x: int) -> float:
    return (x >> 11) * DOUBLE_SCALE


class Stream:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK
        return finalize(self._state)

    def next_double(self) -> float:
        return to_double(self.next_u64())
