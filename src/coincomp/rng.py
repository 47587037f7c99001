"""Deterministic counter-based random numbers for reproducible simulations.

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

Two implementations are provided and must agree bit for bit: a plain
integer one (reference, used by the tree generators) and a numpy one
(used by the vectorized simulators).  np_draw_top, for fair coins only,
stops before finalize's last xorshift, which leaves bit 63 unchanged, so
it agrees with the others on the top bit and on nothing else.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

DOUBLE_SCALE = 2.0 ** -53
HALF_U64 = 1 << 63  # to_double(x) < 0.5 exactly when x < HALF_U64


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


# numpy port; scalar constants are pre-reduced mod 2**64 in python ints so
# only silent elementwise wraparound is exercised.

_NP_MIX1 = np.uint64(MIX1)
_NP_MIX2 = np.uint64(MIX2)
_NP_GOLDEN = np.uint64(GOLDEN)
_NP_27, _NP_30, _NP_31 = np.uint64(27), np.uint64(30), np.uint64(31)


def np_finalize_top(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """finalize(z) in place in z, up to but not including its last xorshift.

    z ^= z >> 31 leaves bit 63 as it was, so the result has the top bit of
    finalize(z): it is below HALF_U64 exactly when finalize(z) is.  scratch
    is a buffer of z's shape that is overwritten.
    """
    np.right_shift(z, _NP_30, out=scratch)
    z ^= scratch
    z *= _NP_MIX1
    np.right_shift(z, _NP_27, out=scratch)
    z ^= scratch
    z *= _NP_MIX2
    return z


def np_finalize(z: np.ndarray) -> np.ndarray:
    z = np.array(z, dtype=np.uint64)  # a copy: the input is left as it was
    scratch = np.empty_like(z)
    np_finalize_top(z, scratch)
    np.right_shift(z, _NP_31, out=scratch)
    z ^= scratch
    return z


def np_stream_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """mix(seed, i) for i in [lo, hi) as a uint64 array."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    base = np.uint64(seed & MASK) + idx * _NP_GOLDEN
    return np_finalize(base)


def _np_offset(k) -> np.ndarray:
    # k * GOLDEN mod 2**64 for an int or an int array.  k is cast to uint64
    # first: a mixed int64/uint64 operation would promote to float64 and lose
    # bits.  The ufunc wraps silently, where numpy scalar arithmetic warns.
    return np.multiply(np.asarray(k, dtype=np.uint64), _NP_GOLDEN)


def np_skip(stream_seeds: np.ndarray, k) -> np.ndarray:
    """Seeds of the streams whose output j is output k + j of each stream."""
    return stream_seeds + _np_offset(k)


def np_draw_u64(stream_seeds: np.ndarray, k) -> np.ndarray:
    """k-th output (0-based) of each stream.

    k is an int or an array of ints in [0, 2**64 - 1), broadcast against the
    stream seeds.
    """
    return np_finalize(stream_seeds + _np_offset(k + 1))


def np_draw_offsets(width: int) -> np.ndarray:
    """The offsets (k + 1) * GOLDEN that np_draw_u64 adds for draws k in
    [0, width), as a (width, 1) column: row k of a step-major block."""
    return _np_offset(np.arange(1, width + 1))[:, None]


def np_draw_top(stream_seeds: np.ndarray, offsets: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """Draws with the top bit of np_draw_u64, written to `out` in place.

    out[j, i] = finalize(stream_seeds[i] + offsets[j]) without the last
    xorshift (see np_finalize_top), so out[j, i] < HALF_U64 exactly when
    draw j of stream i is below 1/2 as a double; the other bits mean
    nothing.  `offsets` is a slice of np_draw_offsets, and `out` and
    `scratch` are (len(offsets), len(stream_seeds)) buffers.
    """
    np.add(offsets, stream_seeds, out=out)
    return np_finalize_top(out, scratch)


def np_draw_double(stream_seeds: np.ndarray, k) -> np.ndarray:
    return (np_draw_u64(stream_seeds, k) >> np.uint64(11)) * DOUBLE_SCALE
