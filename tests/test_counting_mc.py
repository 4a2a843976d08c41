import math
import tracemalloc

import numpy as np
import pytest

from oracles import weighted_count_bruteforce
from tablecount import counting
from tablecount.errors import EnumerationBudgetError, PermanentSizeError, ValidationError
from tablecount.rng import DRAW_BUDGET, derive_seed_block, exponential_matrix
from tablecount.permanent import permanent_float_batch
from tablecount.counting import (
    Z_95,
    Margins,
    WeightMatrix,
    chebyshev_sample_count,
    exact_count_bruteforce,
    mc_estimate_count,
    mc_sample_values,
    variance_ratio_report,
)


def test_single_sample_matches_hand_permanent():
    # for unit margins the block matrix is the raw exponential matrix, so each
    # sample value must equal g00*g11 + g01*g10 for the drawn cells
    m = Margins([1, 1], [1, 1])
    seed = 7
    values = mc_sample_values(m, 4, seed)
    cells = exponential_matrix(derive_seed_block(seed, 4), 4).reshape(4, 2, 2)
    for i in range(4):
        g = cells[i]
        assert values[i] == pytest.approx(g[0, 0] * g[1, 1] + g[0, 1] * g[1, 0], rel=1e-12)


def test_sample_values_repeat_block_structure():
    # margins (2,1)x(2,1): block matrix repeats the row-0 draws twice and the
    # col-0 draws twice, so every sample permanent is a polynomial in 4 cells
    m = Margins([2, 1], [2, 1])
    seed = 11
    values = mc_sample_values(m, 8, seed)
    cells = exponential_matrix(derive_seed_block(seed, 8), 4).reshape(8, 2, 2)
    for i in range(8):
        a, b, c, d = cells[i, 0, 0], cells[i, 0, 1], cells[i, 1, 0], cells[i, 1, 1]
        block = np.array([[a, a, b], [a, a, b], [c, c, d]])
        per = sum(
            block[0, p[0]] * block[1, p[1]] * block[2, p[2]]
            for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        )
        assert values[i] == pytest.approx(per, rel=1e-12)


def test_estimate_deterministic_and_chunk_invariant():
    m = Margins([2, 2, 2], [2, 2, 2])
    a = mc_estimate_count(m, 3000, seed=5)
    b = mc_estimate_count(m, 3000, seed=5)
    c = mc_estimate_count(m, 3000, seed=5, chunk_size=17)
    assert a == b
    assert a.mean == c.mean and a.std_err == c.std_err
    d = mc_estimate_count(m, 3000, seed=6)
    assert d.mean != a.mean


def test_sample_values_identical_for_every_chunk_size():
    m = Margins([2, 1], [1, 1, 1])
    values = mc_sample_values(m, 50, seed=9, chunk_size=50)
    for chunk_size in (1, 7, 49, 10**6):
        assert np.array_equal(mc_sample_values(m, 50, seed=9, chunk_size=chunk_size), values)


def test_estimate_memory_per_sample_is_bounded():
    # child seeds are derived per chunk: beyond the chunk, only the per-sample
    # values and one temporary of np.std stay alive, 16 bytes a sample
    samples = 10**6
    tracemalloc.start()
    try:
        mc_estimate_count(Margins([1], [1]), samples, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * samples


def test_sample_values_memory_is_bounded():
    # one chunk of 8x8 blocks is 8 MiB; the gathered blocks already lie in the
    # kernel's (column, row, batch) order, so it copies nothing, and a second
    # block array alive at the peak would pass 16 MiB
    tracemalloc.start()
    try:
        mc_sample_values(Margins([4, 4], [2, 2, 2, 2]), 16384, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_estimate_ci_contains_truth():
    m = Margins([2, 2, 2], [2, 2, 2])
    est = mc_estimate_count(m, 40000, seed=3)
    assert est.ci_low <= 21 <= est.ci_high
    assert est.num_samples == 40000


def test_estimate_mean_near_truth_small_case():
    m = Margins([2, 2], [2, 2])
    est = mc_estimate_count(m, 60000, seed=1)
    assert abs(est.mean - 3) < 4 * est.std_err


def test_needs_two_samples():
    with pytest.raises(ValidationError):
        mc_estimate_count(Margins([1, 1], [1, 1]), 1, seed=0)


def test_size_limit_guard():
    m = Margins([5] * 5, [5] * 5)
    with pytest.raises(PermanentSizeError):
        mc_sample_values(m, 2, seed=0)


def test_weighted_unit_weights_match_plain_scaled():
    # with all weights 1 the weighted sampler targets the raw table count
    m = Margins([2, 2], [2, 2])
    w = WeightMatrix([[1, 1], [1, 1]])
    est = mc_estimate_count(m, 30000, seed=9, weights=w)
    assert abs(est.mean - 3) < 4 * est.std_err
    plain = mc_sample_values(m, 30000, seed=9)
    weighted = mc_sample_values(m, 30000, seed=9, weights=w)
    assert np.array_equal(plain, weighted)
    assert est == mc_estimate_count(m, 30000, seed=9)


def test_weighted_estimate_tracks_bruteforce_target():
    m = Margins([2, 1], [1, 1, 1])
    w = WeightMatrix([[0.5, 1.0, 2.0], [1.5, 0.25, 1.0]])
    target = weighted_count_bruteforce(m, w, include_factorials=False)
    est = mc_estimate_count(m, 80000, seed=13, weights=w)
    assert abs(est.mean - target) < 4 * est.std_err


def test_draw_budget_guard_before_allocating():
    # 10^12 samples of 4 cells would need terabytes; the request fails first
    m = Margins([2, 2], [2, 2])
    with pytest.raises(EnumerationBudgetError) as info:
        mc_estimate_count(m, 10**12, seed=0)
    assert info.value.limit == DRAW_BUDGET
    with pytest.raises(EnumerationBudgetError):
        mc_sample_values(m, DRAW_BUDGET // 4 + 1, seed=0)


def test_weighted_scaling_by_constant():
    # doubling every weight multiplies each degree-N term by 2^N
    m = Margins([1, 1], [1, 1])
    w1 = WeightMatrix([[1, 1], [1, 1]])
    w2 = WeightMatrix([[2, 2], [2, 2]])
    v1 = mc_sample_values(m, 500, seed=2, weights=w1)
    v2 = mc_sample_values(m, 500, seed=2, weights=w2)
    assert np.allclose(v2, 4 * v1)


def test_chebyshev_sample_count_formula():
    m = Margins([1, 1], [1, 1])
    assert chebyshev_sample_count(m, 0.5) == math.ceil((2 ** 4 - 1) / ((1 / 3) * 0.25))
    assert chebyshev_sample_count(m, 0.5, failure=0.05) == math.ceil(15 / (0.05 * 0.25))
    with pytest.raises(ValidationError):
        chebyshev_sample_count(m, 0.0)


def test_variance_report_unit_margins():
    m = Margins([1, 1], [1, 1])
    rep = variance_ratio_report(m, 200000, seed=4)
    # E[per^2]/E[per]^2 = 10/4 for two unit margins
    assert abs(rep.empirical_ratio - 2.5) < 3 * rep.slack
    assert rep.bound_part2 == 16.0
    assert rep.rho == 1
    assert rep.bound_part3_exponent == pytest.approx(2.0)
    assert rep.bound_part3 == pytest.approx(math.exp(2.0))
    assert rep.within_part2


def test_variance_report_overflow_exponent_reported():
    m = Margins([3, 3], [3, 3])
    rep = variance_ratio_report(m, 1000, seed=4)
    assert rep.rho == 3
    assert rep.bound_part3_exponent == pytest.approx(9 * math.factorial(6))
    assert rep.bound_part3 is None


def _gathered_sample_values(margins, num_samples, seed, weights=None, chunk_size=16384):
    # the reference feed: a (batch, row, column) block array gathered from the
    # cells by advanced indexing, then the float kernel
    m, n = margins.num_rows, margins.num_cols
    row_of = np.repeat(np.arange(m), margins.row_sums)
    col_of = np.repeat(np.arange(n), margins.col_sums)
    out = np.empty(num_samples)
    for start in range(0, num_samples, chunk_size):
        stop = min(start + chunk_size, num_samples)
        cells = exponential_matrix(derive_seed_block(seed, stop - start, start), m * n).reshape(-1, m, n)
        if weights is not None:
            cells = cells * weights.to_numpy()
        out[start:stop] = permanent_float_batch(cells[:, row_of][:, :, col_of])
    return out


FEED_MARGINS = [
    ([1], [1]),
    ([1, 1], [2]),
    ([2, 1], [1, 1, 1]),
    ([2, 2], [2, 2]),
    ([3, 2], [1, 1, 1, 1, 1]),
    ([1] * 6, [1] * 6),
    ([3, 3, 1], [2, 2, 3]),
    ([4, 4], [2, 2, 2, 2]),
    ([3, 3, 3], [3, 3, 3]),
    ([5, 5], [4, 3, 3]),
    ([6, 5], [11]),
    ([4, 4, 4], [4, 4, 4]),
]


@pytest.mark.parametrize("rows, cols", FEED_MARGINS)
def test_sample_values_match_the_gathered_reference(rows, cols):
    m = Margins(rows, cols)
    # at N = 8, 5000 samples take two default chunks of 4096
    samples = 5000 if m.total <= 8 else 300
    want = _gathered_sample_values(m, samples, 21)
    assert np.array_equal(mc_sample_values(m, samples, 21), want)
    for chunk_size in (7, 2049):
        assert np.array_equal(mc_sample_values(m, samples, 21, chunk_size=chunk_size), want)
    if m.total <= 8:
        w = WeightMatrix([[0.25 + 0.5 * i + 0.3 * j for j in range(len(cols))] for i in range(len(rows))])
        got = mc_sample_values(m, 3000, 22, weights=w, chunk_size=999)
        assert np.array_equal(got, _gathered_sample_values(m, 3000, 22, w))


def test_default_chunk_holds_at_most_2_18_entries(monkeypatch):
    shapes = []
    kernel = counting.permanent_float_batch

    def recording(blocks):
        # the kernel's (column, row, batch) layout, handed over as a view
        assert blocks.transpose(2, 1, 0).flags.c_contiguous
        shapes.append(blocks.shape[0])
        return kernel(blocks)

    monkeypatch.setattr(counting, "permanent_float_batch", recording)
    cases = [
        (Margins([1], [1]), 40000, [16384, 16384, 7232]),
        (Margins([4, 4], [2, 2, 2, 2]), 10000, [4096, 4096, 1808]),
        (Margins([3, 3], [2, 2, 2]), 8000, [7281, 719]),
        # N = 12 and above: one solve of at most 2000 samples is one chunk
        (Margins([4, 4, 4], [4, 4, 4]), 2000, [2000]),
        (Margins([4, 4, 4], [4, 4, 4]), 2049, [2048, 1]),
    ]
    for m, samples, want in cases:
        shapes.clear()
        mc_sample_values(m, samples, 5)
        assert shapes == want


def test_estimate_and_variance_report_match_numpy_statistics():
    for rows, cols, samples in (([1, 1], [1, 1], 2), ([2, 1], [1, 1, 1], 3), ([2, 2], [2, 2], 30001)):
        m = Margins(rows, cols)
        values = mc_sample_values(m, samples, 8)
        divisor = float(m.divisor())
        mean = float(np.mean(values)) / divisor
        std_err = float(np.std(values, ddof=1)) / (divisor * math.sqrt(samples))
        est = mc_estimate_count(m, samples, 8)
        assert (est.mean, est.std_err, est.ci_low, est.ci_high) == (
            mean, std_err, mean - Z_95 * std_err, mean + Z_95 * std_err)
        squares = values * values
        m1, m2 = float(np.mean(values)), float(np.mean(squares))
        se1 = float(np.std(values, ddof=1)) / math.sqrt(samples)
        se2 = float(np.std(squares, ddof=1)) / math.sqrt(samples)
        rep = variance_ratio_report(m, samples, 8)
        assert rep.empirical_ratio == m2 / (m1 * m1)
        assert rep.slack == 3.0 * (se2 / m2 + 2.0 * se1 / m1)


def test_sample_values_peak_memory_is_a_few_chunks():
    # N = 8 takes 4096 samples a chunk: a 2 MiB block array and the 0.8 MB
    # output, where the gathered feed peaked near 22 MiB
    tracemalloc.start()
    try:
        mc_sample_values(Margins([4, 4], [2, 2, 2, 2]), 100000, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_estimate_takes_its_standard_error_in_place():
    # np.std's steps run on the values themselves: no second full-length array
    samples = 10**6
    tracemalloc.start()
    try:
        mc_estimate_count(Margins([1], [1]), samples, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * samples


@pytest.mark.parametrize("rows, cols, samples, bound", [
    ([7, 7], [7, 7], 1000, 1e-4),
    ([4] * 4, [4] * 4, 100, 1e-9),
    ([3] * 4, [4] * 3, 300, 1e-10),
    ([4, 4], [2] * 4, 2000, 1e-10),
])
def test_sample_values_near_the_non_negative_sum(rows, cols, samples, bound):
    # the box engine sums the same block permanent's non-negative terms, one
    # per table, so it bounds the float kernel's cancellation sample by sample
    m = Margins(rows, cols)
    cells = exponential_matrix(derive_seed_block(11, samples), m.num_rows * m.num_cols)
    divisor = m.divisor()
    want = np.array([counting.weighted_fy_count(m, WeightMatrix(c.tolist())) * divisor
                     for c in cells.reshape(-1, m.num_rows, m.num_cols)])
    assert np.max(np.abs(mc_sample_values(m, samples, 11) / want - 1)) <= bound
