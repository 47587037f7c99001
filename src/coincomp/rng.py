"""splitmix64 on numpy arrays, for the vectorized simulators.

The generator, its seeding and its doubles are defined in the splitmix
module, the plain-integer reference that the tree generators use; every
kernel here agrees with it bit for bit.  np_draw_top, for fair coins only,
stops before finalize's last xorshift, which leaves bit 63 unchanged, so
it agrees with the others on the top bit (below splitmix.HALF_U64 or not)
and on nothing else.
"""

from __future__ import annotations

import numpy as np

from .splitmix import DOUBLE_SCALE, GOLDEN, MASK, MIX1, MIX2

# scalar constants are pre-reduced mod 2**64 in python ints so
# only silent elementwise wraparound is exercised.

_NP_MIX1 = np.uint64(MIX1)
_NP_MIX2 = np.uint64(MIX2)
_NP_GOLDEN = np.uint64(GOLDEN)
_NP_11, _NP_27 = np.uint64(11), np.uint64(27)
_NP_30, _NP_31 = np.uint64(30), np.uint64(31)


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


def _np_finalize_own(z: np.ndarray) -> np.ndarray:
    # finalize(z) in place in z, a uint64 array that no caller holds
    scratch = np.empty_like(z)
    np_finalize_top(z, scratch)
    np.right_shift(z, _NP_31, out=scratch)
    z ^= scratch
    return z


def np_stream_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """mix(seed, i) for i in [lo, hi) as a uint64 array."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    base = np.uint64(seed & MASK) + idx * _NP_GOLDEN
    return _np_finalize_own(base)


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
    return _np_finalize_own(np.asarray(stream_seeds + _np_offset(k + 1)))


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
    x = np_draw_u64(stream_seeds, k)
    x >>= _NP_11
    return x * DOUBLE_SCALE
