import numpy as np
import pytest

from tablecount.rng import (
    MASK64,
    SplitMix64Stream,
    _raw_matrix,
    derive_seed,
    derive_seed_block,
    exponential_matrix,
    integer_matrix,
    mix64,
    truncated_exponential_matrix,
    uniform_matrix,
)


def _row(draw, seed, count, *args):
    """The first count values of draw on the one stream seeded by seed."""
    return draw(np.array([seed], dtype=np.uint64), count, *args)[0]


def test_mix64_matches_vector_path():
    seed = 12345
    block = _row(_raw_matrix, seed, 5)
    gamma = 0x9E3779B97F4A7C15
    expected = [mix64((seed + (k + 1) * gamma) & MASK64) for k in range(5)]
    assert [int(v) for v in block] == expected


def test_same_seed_same_stream():
    a = _row(uniform_matrix, 99, 100)
    b = _row(uniform_matrix, 99, 100)
    assert np.array_equal(a, b)


def test_chunking_does_not_change_values():
    whole = SplitMix64Stream(7).integers(8, 1000)
    s = SplitMix64Stream(7)
    parts = np.concatenate([s.integers(5, 1000), s.integers(3, 1000)])
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole, _row(integer_matrix, 7, 8, 1000))


def test_uniform_range_and_spread():
    u = _row(uniform_matrix, 3, 20000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_exponential_moments():
    g = _row(exponential_matrix, 11, 200000)
    assert g.min() >= 0.0
    assert abs(g.mean() - 1.0) < 0.01
    assert abs(g.var() - 1.0) < 0.05


def test_truncated_exponential_zeroes_the_tail():
    g = _row(truncated_exponential_matrix, 5, 50000, 1.5)
    assert g.max() <= 1.5
    # mass above the threshold becomes exact zeros
    assert (g == 0.0).mean() > np.exp(-1.5) - 0.02
    assert (g == 0.0).mean() < np.exp(-1.5) + 0.02


def test_integers_cover_range():
    vals = SplitMix64Stream(21).integers(10000, 4)
    assert set(np.unique(vals)) == {0, 1, 2, 3}


def test_derive_seed_children_are_distinct():
    parent = 424242
    kids = {derive_seed(parent, i) for i in range(100)}
    assert len(kids) == 100
    assert parent not in kids


def test_spawn_streams_disagree():
    a = _row(uniform_matrix, derive_seed(1000, 0), 50)
    b = _row(uniform_matrix, derive_seed(1000, 1), 50)
    assert not np.array_equal(a, b)


def test_matrix_paths_match_per_stream_draws():
    master = 777
    seeds = derive_seed_block(master, 6)
    assert [int(s) for s in seeds] == [derive_seed(master, i) for i in range(6)]

    mat = uniform_matrix(seeds, 9)
    for i in range(6):
        row = _row(uniform_matrix, derive_seed(master, i), 9)
        assert np.array_equal(mat[i], row)

    trunc = truncated_exponential_matrix(seeds, 9, 1.2)
    for i in range(6):
        row = _row(truncated_exponential_matrix, derive_seed(master, i), 9, 1.2)
        assert np.array_equal(trunc[i], row)


def test_derive_seed_block_offset_continues_the_block():
    whole = derive_seed_block(31, 52)
    parts = [derive_seed_block(31, 13, start) for start in range(0, 40, 13)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert int(derive_seed_block(31, 1, 2**40)[0]) == derive_seed(31, 2**40)
    with pytest.raises(ValueError):
        derive_seed_block(31, 3, -1)


def _reference_mix_block(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reference_uniform(seeds, columns, start):
    # the draws with one temporary per operation, as a reference for the in-place code
    idx = np.arange(start + 1, start + columns + 1, dtype=np.uint64)
    raw = _reference_mix_block(seeds[:, None].astype(np.uint64) + idx[None, :] * np.uint64(0x9E3779B97F4A7C15))
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_in_place_draws_keep_the_seeds_and_the_values():
    seeds = derive_seed_block(2024, 37, 5)
    kept = seeds.copy()
    idx = np.arange(6, 43, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    assert np.array_equal(seeds, _reference_mix_block(np.uint64(2024) ^ _reference_mix_block(idx)))
    assert [int(s) for s in seeds] == [derive_seed(2024, 5 + i) for i in range(37)]
    for start in (0, 4):
        u = _reference_uniform(seeds, 13, start)
        assert np.array_equal(uniform_matrix(seeds, 13, start), u)
        assert np.array_equal(exponential_matrix(seeds, 13, start), -np.log1p(-u))
        assert np.array_equal(integer_matrix(seeds, 13, 7, start),
                              np.minimum((u * 7).astype(np.int64), 6))
        g = -np.log1p(-u)
        assert np.array_equal(truncated_exponential_matrix(seeds, 13, 0.7, start),
                              np.where(g <= 0.7, g, 0.0))
    # the first row by the scalar finalizer, independent of any array code
    first = [(mix64((int(seeds[0]) + k * 0x9E3779B97F4A7C15) & MASK64) >> 11) * 2.0**-53
             for k in range(1, 14)]
    assert uniform_matrix(seeds, 13).tolist()[0] == first
    assert np.array_equal(seeds, kept)
