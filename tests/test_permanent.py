from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from tablecount.errors import DimensionMismatchError, PermanentSizeError, ValidationError
from tablecount.permanent import (
    gram_matrix,
    pairing_via_permanent,
    permanent_exact,
    permanent_float_batch,
)
from tablecount.polynomial import LinearForm, product_of_forms, scalar_product


def naive_permanent(rows):
    n = len(rows)
    total = 0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= rows[i][sigma[i]]
        total += prod
    return total


def pseudo_rational(i, j, tag):
    return Fraction((i * 7 + j * 3 + tag) % 13 - 6, 1 + (i + j + tag) % 4)


def test_permanent_identity():
    assert permanent_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_permanent_all_ones():
    assert permanent_exact([[1, 1, 1]] * 3) == 6


def test_permanent_2x2():
    assert permanent_exact([[1, 2], [3, 4]]) == 10


def test_permanent_matches_naive():
    for n in range(1, 7):
        rows = [[pseudo_rational(i, j, n) for j in range(n)] for i in range(n)]
        assert permanent_exact(rows) == naive_permanent(rows)


def test_permanent_row_and_column_permutations():
    n = 5
    rows = [[pseudo_rational(i, j, 1) for j in range(n)] for i in range(n)]
    base = permanent_exact(rows)
    sigma = (3, 0, 4, 1, 2)
    assert permanent_exact([rows[sigma[i]] for i in range(n)]) == base
    assert permanent_exact([[row[sigma[j]] for j in range(n)] for row in rows]) == base


def test_permanent_row_multilinearity():
    rows = [[pseudo_rational(i, j, 2) for j in range(4)] for i in range(4)]
    t = Fraction(5, 3)
    scaled = [list(r) for r in rows]
    scaled[2] = [t * v for v in scaled[2]]
    assert permanent_exact(scaled) == t * permanent_exact(rows)


def test_permanent_size_limit():
    with pytest.raises(PermanentSizeError):
        permanent_exact([[1] * 23] * 23)


def test_permanent_rejects_ragged():
    with pytest.raises(ValidationError):
        permanent_exact([[1, 2], [3]])


def test_permanent_float_path_close_to_exact():
    rows = [[float(pseudo_rational(i, j, 3)) for j in range(6)] for i in range(6)]
    exact = permanent_exact([[pseudo_rational(i, j, 3) for j in range(6)] for i in range(6)])
    assert permanent_exact(rows) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permanent_exact_float_error_on_positive_matrix(seed):
    # no signed sum, so a positive float matrix keeps nearly every digit
    rows = np.random.default_rng(seed).uniform(0.1, 2.0, size=(12, 12)).tolist()
    exact = permanent_exact([[Fraction(v) for v in row] for row in rows])
    assert abs(permanent_exact(rows) - exact) <= 1e-14 * exact


def test_permanent_float_batch_matches_scalar():
    rng = np.random.default_rng(4)
    batch = rng.uniform(0.1, 2.0, size=(20, 5, 5))
    vals = permanent_float_batch(batch)
    for k in range(20):
        assert vals[k] == pytest.approx(permanent_exact(batch[k].tolist()), rel=1e-10)


def test_permanent_float_batch_chunk_invariance():
    rng = np.random.default_rng(9)
    batch = rng.uniform(0.0, 3.0, size=(33, 6, 6))
    whole = permanent_float_batch(batch)
    parts = np.concatenate([permanent_float_batch(batch[:10]), permanent_float_batch(batch[10:])])
    assert np.array_equal(whole, parts)


def glynn_row_major(batch):
    """Gray-code Glynn over (B, N) half sums, each product taken left to right."""
    b, n = batch.shape[0], batch.shape[1]
    if n == 0:
        return np.ones(b)
    half = batch[:, :, 0].copy()
    for j in range(1, n):
        half += batch[:, :, j]
    half *= 0.5

    def product():
        prod = half[:, 0].copy()
        for i in range(1, n):
            prod *= half[:, i]
        return prod

    total = product()
    gray = 0
    for g in range(1, 1 << (n - 1)):
        flip = (g & -g).bit_length() - 1
        gray ^= 1 << flip
        if gray & (1 << flip):
            half -= batch[:, :, flip + 1]
        else:
            half += batch[:, :, flip + 1]
        # the sign vector d has d_0 = +1 and d_{j+1} = -1 for each set bit j
        if bin(gray).count("1") % 2 == 0:
            total += product()
        else:
            total -= product()
    return total * 2


@pytest.mark.parametrize("n", range(13))
def test_permanent_float_batch_bit_identical_to_reference(n):
    rng = np.random.default_rng(100 + n)
    for b in (1, 2, 257):
        batch = rng.standard_normal((b, n, n)) * rng.exponential(size=(b, n, n))
        kept = batch.copy()
        for view in (batch, batch[::2], batch.transpose(0, 2, 1)):
            assert np.array_equal(permanent_float_batch(view), glynn_row_major(view))
        assert np.array_equal(batch, kept)


def test_gram_matrix_orthonormal_coordinates():
    e1, e2 = LinearForm([1, 0]), LinearForm([0, 1])
    assert gram_matrix([e1, e2], [e1, e2]) == ((1, 0), (0, 1))


def test_gram_matrix_all_ones():
    ones = LinearForm([1, 1])
    e1, e2 = LinearForm([1, 0]), LinearForm([0, 1])
    assert gram_matrix([ones, ones], [e1, e2]) == ((1, 1), (1, 1))


def test_gram_matrix_orthogonal_forms():
    assert gram_matrix([LinearForm([1, 0])], [LinearForm([0, 1])]) == ((0,),)


def test_gram_matrix_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        gram_matrix([LinearForm([1, 0])], [])


def test_pairing_via_permanent_examples():
    e1, e2 = LinearForm([1, 0]), LinearForm([0, 1])
    ones = LinearForm([1, 1])
    assert pairing_via_permanent([e1, e2], [e1, e2]) == 1
    assert pairing_via_permanent([ones, ones], [e1, e2]) == 2
    assert pairing_via_permanent([e1, e1], [e1, e1]) == 2


def test_pairing_via_permanent_equals_expanded_scalar_product():
    # random-looking integer forms, m up to 5 factors in up to 5 variables
    for m, n, tag in [(2, 3, 0), (3, 3, 1), (4, 5, 2), (5, 4, 3)]:
        F = [LinearForm([(i * 5 + j * 2 + tag) % 7 - 3 for j in range(n)]) for i in range(m)]
        G = [LinearForm([(i * 3 + j * 4 + tag) % 5 - 2 for j in range(n)]) for i in range(m)]
        via_perm = pairing_via_permanent(F, G)
        direct = scalar_product(product_of_forms(F), product_of_forms(G))
        assert via_perm == direct
