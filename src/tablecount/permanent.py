"""Exact permanents and the block/Gram matrix constructions built on them.

The permanent is evaluated by Ryser's inclusion-exclusion over column subsets,
walking subsets in Gray-code order so each step updates one column of running
row sums.  Exact (int/Fraction) entries take an exact arithmetic path; float
entries take a compensated-summation path.  A vectorized batch variant
evaluates many same-size float matrices at once for sampling loops; its
per-matrix results do not depend on how the batch is chunked.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .errors import DimensionMismatchError, PermanentSizeError, ValidationError
from .polynomial import Coeff, LinearForm

DEFAULT_SIZE_LIMIT = 22


class SquareMatrix:
    """Immutable N x N matrix with exact or float entries."""

    __slots__ = ("size", "entries")

    def __init__(self, entries: Sequence[Sequence[Coeff]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValidationError(f"row of length {len(row)} in a {n}x{n} matrix")
        self.size = n
        self.entries = rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"SquareMatrix({self.size}x{self.size})"

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.float64)


class BlockStructure:
    """Consecutive row/column groupings of {0..N-1} with equal totals."""

    __slots__ = ("row_sizes", "col_sizes", "total")

    def __init__(self, row_sizes: Sequence[int], col_sizes: Sequence[int]):
        rs = tuple(int(v) for v in row_sizes)
        cs = tuple(int(v) for v in col_sizes)
        if not rs or not cs:
            raise ValidationError("empty block structure")
        if any(v < 0 for v in rs + cs):
            raise ValidationError("negative block size")
        if sum(rs) != sum(cs):
            raise ValidationError(f"row blocks cover {sum(rs)} indices, column blocks {sum(cs)}")
        self.row_sizes = rs
        self.col_sizes = cs
        self.total = sum(rs)

    def row_of_index(self) -> List[int]:
        """block index for each of the N row positions"""
        out = []
        for i, size in enumerate(self.row_sizes):
            out.extend([i] * size)
        return out

    def col_of_index(self) -> List[int]:
        out = []
        for j, size in enumerate(self.col_sizes):
            out.extend([j] * size)
        return out


def build_block_matrix(structure: BlockStructure, cell_values: Sequence[Sequence[Coeff]]) -> SquareMatrix:
    """N x N matrix that is constant on each block, with the given cell values."""
    m, n = len(structure.row_sizes), len(structure.col_sizes)
    if len(cell_values) != m or any(len(row) != n for row in cell_values):
        raise DimensionMismatchError(f"cell grid must be {m}x{n}")
    row_of = structure.row_of_index()
    col_of = structure.col_of_index()
    return SquareMatrix(
        [[cell_values[row_of[s]][col_of[t]] for t in range(structure.total)] for s in range(structure.total)]
    )


def _as_rows(matrix) -> Sequence[Sequence[Coeff]]:
    if isinstance(matrix, SquareMatrix):
        return matrix.entries
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValidationError("matrix is not square")
    return rows


def permanent_exact(matrix, size_limit: int = DEFAULT_SIZE_LIMIT) -> Coeff:
    """Permanent by Ryser inclusion-exclusion; exact for int/Fraction entries.

    Float entries are accumulated with Kahan compensation instead.  Runtime is
    O(2^N * N); the size limit fails loudly before work starts.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return 1  # empty product over the empty permutation
    if n > size_limit:
        raise PermanentSizeError(f"matrix size {n} exceeds limit {size_limit}", limit=size_limit)
    exact = not any(isinstance(v, float) for row in rows for v in row)

    row_sums: List[Coeff] = [0] * n
    total: Coeff = 0
    comp = 0.0  # Kahan carry, float path only
    popcount = 0
    gray = 0
    for g in range(1, 1 << n):
        flip = (g & -g).bit_length() - 1
        gray ^= 1 << flip
        if gray & (1 << flip):
            popcount += 1
            for i in range(n):
                row_sums[i] += rows[i][flip]
        else:
            popcount -= 1
            for i in range(n):
                row_sums[i] -= rows[i][flip]
        prod: Coeff = 1
        for v in row_sums:
            prod *= v
        signed = prod if popcount % 2 == 0 else -prod
        if exact:
            total += signed
        else:
            # Kahan compensated accumulation
            y = signed - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return total if n % 2 == 0 else -total


def permanent_float_batch(matrices: np.ndarray, size_limit: int = DEFAULT_SIZE_LIMIT) -> np.ndarray:
    """Permanents of a (B, N, N) float array, one value per matrix.

    Subset enumeration order is fixed, so each matrix's value is independent
    of the batch it arrives in.
    """
    arr = np.asarray(matrices, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError("expected a (batch, N, N) array")
    b, n = arr.shape[0], arr.shape[1]
    if n > size_limit:
        raise PermanentSizeError(f"matrix size {n} exceeds limit {size_limit}", limit=size_limit)
    if n == 0:
        return np.ones(b)
    row_sums = np.zeros((b, n))
    total = np.zeros(b)
    gray = 0
    popcount = 0
    for g in range(1, 1 << n):
        flip = (g & -g).bit_length() - 1
        gray ^= 1 << flip
        if gray & (1 << flip):
            popcount += 1
            row_sums += arr[:, :, flip]
        else:
            popcount -= 1
            row_sums -= arr[:, :, flip]
        prod = np.prod(row_sums, axis=1)
        if popcount % 2 == 0:
            total += prod
        else:
            total -= prod
    return total if n % 2 == 0 else -total


def gram_matrix(F: Sequence[LinearForm], G: Sequence[LinearForm]) -> SquareMatrix:
    """Matrix of pairwise form pairings b_ij = <f_i, g_j> (dot products)."""
    if len(F) != len(G):
        raise DimensionMismatchError(f"form lists of lengths {len(F)} and {len(G)}")
    return SquareMatrix([[f.dot(g) for g in G] for f in F])


def pairing_via_permanent(
    F: Sequence[LinearForm], G: Sequence[LinearForm], size_limit: int = DEFAULT_SIZE_LIMIT
) -> Coeff:
    """Scalar product of two products of N forms, as the permanent of their Gram matrix."""
    return permanent_exact(gram_matrix(F, G), size_limit=size_limit)
