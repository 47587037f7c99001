"""Generator correctness: reference values, stream independence, numpy parity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coincomp import rng, splitmix
from conftest import finalize_input


# finalize() of small integers, computed once with an independent
# implementation of the same mixing function (64-bit splitmix finalizer)
_REFERENCE = {
    0: 0,
    1: 0x5692161D100B05E5,
    2: 0xDBD238973A2B148A,
    0xDEADBEEF: 0x4E062702EC929EEA,
}


def test_finalize_reference_values():
    for x, expected in _REFERENCE.items():
        assert splitmix.finalize(x) == expected


def test_stream_matches_published_sequence():
    # first outputs of the original C splitmix64 with state 1234567
    s = splitmix.Stream(1234567)
    assert [s.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_finalize_zero_is_zero():
    # the finalizer has no additive constant, so 0 maps to 0; streams avoid
    # this by always offsetting with the increment before finalizing
    assert splitmix.finalize(0) == 0


@given(st.integers(min_value=0, max_value=splitmix.MASK))
def test_finalize_stays_in_range(x):
    assert 0 <= splitmix.finalize(x) <= splitmix.MASK


@given(st.integers(min_value=0, max_value=splitmix.MASK))
def test_to_double_unit_interval(x):
    d = splitmix.to_double(x)
    assert 0.0 <= d < 1.0


def test_stream_is_deterministic():
    a = splitmix.Stream(987654321)
    b = splitmix.Stream(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_streams_with_different_seeds_differ():
    a = splitmix.Stream(1)
    b = splitmix.Stream(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


@given(st.integers(min_value=0, max_value=splitmix.MASK),
       st.integers(min_value=0, max_value=1 << 20))
def test_mix_matches_manual_offset(seed, i):
    assert splitmix.mix(seed, i) == splitmix.finalize(
        (seed + i * splitmix.GOLDEN) & splitmix.MASK)


def test_numpy_seeds_match_scalar_mix():
    seeds = rng.np_stream_seeds(42, 1000, 1100)
    assert seeds.dtype == np.uint64
    for off, s in enumerate(seeds):
        assert int(s) == splitmix.mix(42, 1000 + off)


def test_numpy_draws_match_stream():
    # the k-th vectorized draw must equal the k-th next_u64() of the
    # per-trial Stream; this is the contract simulate relies on
    seeds = rng.np_stream_seeds(7, 0, 50)
    streams = [splitmix.Stream(splitmix.mix(7, i)) for i in range(50)]
    for k in range(6):
        expected = [s.next_u64() for s in streams]
        got = rng.np_draw_u64(seeds, k)
        assert [int(x) for x in got] == expected


def test_numpy_doubles_match_stream():
    seeds = rng.np_stream_seeds(11, 0, 20)
    streams = [splitmix.Stream(splitmix.mix(11, i)) for i in range(20)]
    for k in range(4):
        expected = [s.next_double() for s in streams]
        got = rng.np_draw_double(seeds, k)
        assert list(got) == expected


def test_double_mean_is_plausible():
    # crude sanity: 10^4 doubles from one stream average near 1/2
    s = splitmix.Stream(3)
    xs = [s.next_double() for _ in range(10000)]
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


def _stream_output(seed, k):
    # output k of a stream: next_u64() once its state has advanced k times
    return splitmix.Stream(
        (seed + k * splitmix.GOLDEN) & splitmix.MASK).next_u64()


def test_array_indices_match_stepped_streams():
    seeds = rng.np_stream_seeds(5, 0, 8)
    streams = [splitmix.Stream(splitmix.mix(5, i)) for i in range(8)]
    expected = [[s.next_u64() for _ in range(6)] for s in streams]
    got = rng.np_draw_u64(seeds[:, None], np.arange(6))
    assert got.dtype == np.uint64
    assert got.tolist() == expected


_EDGE_SEEDS = [0, 1, (1 << 63) - 1, 1 << 63, splitmix.MASK - splitmix.GOLDEN,
               splitmix.MASK - 1, splitmix.MASK]
_EDGE_STEPS = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 7, (1 << 63) - 1,
               1 << 63, splitmix.MASK - 1]


def test_array_indices_wrap_like_the_stream():
    # indices past 2**32 and seeds near 2**64 make every sum wrap mod 2**64
    seeds = np.array(_EDGE_SEEDS, dtype=np.uint64)
    got = rng.np_draw_u64(seeds[:, None], np.array(_EDGE_STEPS, dtype=np.uint64))
    assert got.tolist() == [[_stream_output(s, k) for k in _EDGE_STEPS]
                            for s in _EDGE_SEEDS]
    # an int64 index array draws the same outputs as a uint64 one
    small = [k for k in _EDGE_STEPS if k < 1 << 63]
    assert rng.np_draw_u64(seeds[:, None], np.array(small, dtype=np.int64)).tolist() \
        == [[_stream_output(s, k) for k in small] for s in _EDGE_SEEDS]


@given(st.lists(st.integers(min_value=0, max_value=splitmix.MASK), min_size=1,
                max_size=4),
       st.lists(st.integers(min_value=0, max_value=splitmix.MASK - 1), min_size=1,
                max_size=4))
def test_array_indices_match_stream(seeds, steps):
    got = rng.np_draw_u64(np.array(seeds, dtype=np.uint64)[:, None],
                          np.array(steps, dtype=np.uint64))
    assert got.tolist() == [[_stream_output(s, k) for k in steps] for s in seeds]
    doubles = rng.np_draw_double(np.array(seeds, dtype=np.uint64)[:, None],
                                 np.array(steps, dtype=np.uint64))
    assert doubles.tolist() == [
        [splitmix.to_double(_stream_output(s, k)) for k in steps] for s in seeds]


@given(st.integers(min_value=0, max_value=splitmix.MASK),
       st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=0, max_value=1 << 40))
def test_skip_moves_the_stream_start(seed, k, j):
    seeds = np.array([seed], dtype=np.uint64)
    assert rng.np_draw_u64(rng.np_skip(seeds, k), j).tolist() == \
        rng.np_draw_u64(seeds, k + j).tolist() == [_stream_output(seed, k + j)]


def test_top_bit_is_the_fair_coin():
    # a double is below 1/2 exactly when its u64 is below 2**63
    half = splitmix.HALF_U64
    edges = [0, half - (1 << 11) - 1, half - (1 << 11), half - 1, half,
             half + 1, half + (1 << 11), splitmix.MASK]
    xs = np.array(edges, dtype=np.uint64)
    below = ((xs >> np.uint64(11)) * splitmix.DOUBLE_SCALE < 0.5).tolist()
    assert below == [x < half for x in edges]
    assert below == [splitmix.to_double(x) < 0.5 for x in edges]
    seeds = rng.np_stream_seeds(3, 0, 4096)
    for k in (0, 1, 1 << 40):
        assert np.array_equal(rng.np_draw_u64(seeds, k) < half,
                              rng.np_draw_double(seeds, k) < 0.5)


def test_finalize_leaves_its_input():
    z = np.arange(1, 9, dtype=np.uint64)
    rng.np_finalize(z)
    assert z.tolist() == list(range(1, 9))


def _truncated_draws(seeds, k, width):
    # draws k .. k + width - 1 of each stream, as rows, through np_draw_top
    shape = (width, seeds.size)
    return rng.np_draw_top(rng.np_skip(seeds, k), rng.np_draw_offsets(width),
                           np.empty(shape, dtype=np.uint64),
                           np.empty(shape, dtype=np.uint64))


_NEAR_TOP_SEEDS = ([splitmix.MASK - i for i in range(8)]
                   + [splitmix.MASK - splitmix.GOLDEN])


@pytest.mark.parametrize("k", [0, 1, 1 << 40, splitmix.MASK - 1])
@pytest.mark.parametrize("seeds", [
    rng.np_stream_seeds(3, 0, 4096),
    rng.np_stream_seeds(splitmix.MASK - 2, 0, 512),
    np.array(_EDGE_SEEDS + _NEAR_TOP_SEEDS, dtype=np.uint64),
], ids=["block", "master-seed-near-2**64", "stream-seeds-near-2**64"])
def test_truncated_draw_keeps_the_top_bit(seeds, k):
    # draw index 2**64 - 2 is the last one np_draw_u64 takes
    width = 1 if k == splitmix.MASK - 1 else 3
    top = _truncated_draws(seeds, k, width)
    for j in range(width):
        full = rng.np_draw_u64(seeds, k + j)
        assert np.array_equal(top[j] >> np.uint64(63), full >> np.uint64(63))
        # the one step left out is the last xorshift
        assert np.array_equal(top[j] ^ (top[j] >> np.uint64(31)), full)


def test_truncated_finalize_at_the_top_bit_edge():
    half = splitmix.HALF_U64
    pres = [half - 1, half, half + 1]
    zs = [finalize_input(p) for p in pres]
    assert [splitmix.finalize(z) for z in zs] == [p ^ (p >> 31) for p in pres]
    z = np.array(zs, dtype=np.uint64)
    assert rng.np_finalize_top(z.copy(), np.empty_like(z)).tolist() == pres
    # the same values as draw 0 of the streams seeded z - GOLDEN
    seeds = np.array([(x - splitmix.GOLDEN) & splitmix.MASK for x in zs],
                     dtype=np.uint64)
    top = _truncated_draws(seeds, 0, 1)
    assert top.tolist() == [pres]
    assert (top[0] < half).tolist() == [True, False, False]
    assert (rng.np_draw_u64(seeds, 0) < half).tolist() == [True, False, False]
    assert (rng.np_draw_double(seeds, 0) < 0.5).tolist() == [True, False, False]
