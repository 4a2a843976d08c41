"""Exact permanents and the Gram matrix construction built on them.

An exact permanent is one coefficient of a product of row factors, so the
box dynamic program of the polynomial module evaluates it, one series
(1, M_ij) per column axis for each row, exactly for int/Fraction entries.  A
batch variant evaluates many same-size float matrices at once for sampling
loops by Glynn's formula, a signed sum over the 2^(N-1) sign vectors whose
first sign is +1, in Gray-code order, with the batch on the last, contiguous
axis; its per-matrix results do not depend on how the batch is chunked.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ._np import np
from .errors import DimensionMismatchError, PermanentSizeError, ValidationError
from .polynomial import AxisRow, Coeff, LinearForm, box_coefficient

DEFAULT_SIZE_LIMIT = 22


def permanent_exact(matrix) -> Coeff:
    """Permanent as the coefficient of x_1 ... x_N in prod_i (sum_j M_ij x_j).

    The box dynamic program over unit margins computes it: row i is the
    AxisRow with series (1, M_ij) along axis j, and a state is the set of
    columns used so far.  Exact for int/Fraction entries; float sums of
    non-negative entries do not cancel.  N^2 shifted adds over the 2^N
    states; N above DEFAULT_SIZE_LIMIT fails loudly before work starts.
    """
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValidationError("matrix is not square")
    if n > DEFAULT_SIZE_LIMIT:
        raise PermanentSizeError(
            f"matrix size {n} exceeds limit {DEFAULT_SIZE_LIMIT}", limit=DEFAULT_SIZE_LIMIT
        )
    factors = [AxisRow(1, 1, (1,) * n, lambda row=row: [(1, m) for m in row]) for row in rows]
    return box_coefficient(factors, [frozenset((1,))] * n)


def permanent_float_batch(matrices: np.ndarray) -> np.ndarray:
    """Permanents of a (B, N, N) float array, one value per matrix, for N up
    to DEFAULT_SIZE_LIMIT.

    Glynn's formula: perm(A) = 2 * sum over d in {+-1}^N with d_0 = +1 of
    (prod_j d_j) * prod_i h_i(d), where h_i(d) = 1/2 * sum_j d_j a_ij.  Its
    2^(N-1) - 1 Gray-code steps are half of Ryser's 2^N - 1, and its signed
    row sums cancel far less than Ryser's subset sums (Glynn 2010, in the
    Balasubramanian-Bax-Franklin-Glynn Gray-code form).

    The input is read in (column, row, batch) order, copied once unless that
    view is already contiguous.  The half sums start as the columns added
    left to right, times 0.5.  Each Gray-code step adds or subtracts one
    (N, B) column slab and takes the product over the rows with one reduce
    along axis 0: per matrix, the arithmetic of a row-major loop in its
    order.  The product runs left to right, the signed products accumulate
    in Gray-code order, and the halving and the final doubling are exact, so
    values are bit-identical to that loop's and do not depend on the batch.
    """
    arr = np.asarray(matrices, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError("expected a (batch, N, N) array")
    b, n = arr.shape[0], arr.shape[1]
    if n > DEFAULT_SIZE_LIMIT:
        raise PermanentSizeError(
            f"matrix size {n} exceeds limit {DEFAULT_SIZE_LIMIT}", limit=DEFAULT_SIZE_LIMIT
        )
    if n == 0:
        return np.ones(b)
    cols = np.ascontiguousarray(arr.transpose(2, 1, 0))
    half = cols[0].copy()
    for col in cols[1:]:
        half += col
    half *= 0.5
    total = np.multiply.reduce(half, axis=0)
    prod = np.empty(b)
    gray = 0
    for g in range(1, 1 << (n - 1)):
        flip = (g & -g).bit_length() - 1
        gray ^= 1 << flip
        # d_{flip+1} turns to -1 when its Gray bit sets, which moves each half
        # sum by one whole entry
        if gray & (1 << flip):
            half -= cols[flip + 1]
        else:
            half += cols[flip + 1]
        np.multiply.reduce(half, axis=0, out=prod)
        # each step flips one sign, so prod_j d_j is (-1)^g
        if g % 2 == 0:
            total += prod
        else:
            total -= prod
    return total * 2


def gram_matrix(F: Sequence[LinearForm], G: Sequence[LinearForm]) -> Tuple[Tuple[Coeff, ...], ...]:
    """Rows of pairwise form pairings b_ij = <f_i, g_j> (dot products)."""
    if len(F) != len(G):
        raise DimensionMismatchError(f"form lists of lengths {len(F)} and {len(G)}")
    return tuple(tuple(f.dot(g) for g in G) for f in F)


def pairing_via_permanent(F: Sequence[LinearForm], G: Sequence[LinearForm]) -> Coeff:
    """Scalar product of two products of N forms, as the permanent of their Gram matrix."""
    return permanent_exact(gram_matrix(F, G))
