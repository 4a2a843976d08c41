"""Counter-mode pseudo-random streams built on the SplitMix64 finalizer.

Every draw is a pure function of (seed, position), so results never depend on
how work is chunked or parallelized: position k of a stream is the same number
whether it is produced in one vectorized call or many small ones.  Sub-streams
derived with ``derive_seed`` are statistically independent of the parent and of
each other, which lets a simulation hand one child seed to each replicate and
stay reproducible under any execution order.
"""

from __future__ import annotations

from ._np import np

MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Distinct multiplier for seed derivation so child streams never alias
# positions of the parent output stream.
_SPLIT = 0xC2B2AE3D27D4EB4F

_INV_2_53 = 2.0 ** -53

# Most random values one request may draw, 800 MB as doubles: 11 times the
# largest routine request, 10^6 Monte Carlo samples of 9 cells.
DRAW_BUDGET = 10**8


def mix64(x: int) -> int:
    """64-bit avalanche finalizer from SplitMix64."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed, independent of the parent output stream.

    Children for distinct indices are decorrelated by a full avalanche pass;
    index may be any non-negative integer.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    tag = mix64(((index + 1) * _SPLIT) & MASK64)
    return mix64((seed ^ tag) & MASK64)


def _mix_block(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array, in place: x must be an array the
    caller allocated for it.  Each step holds one shift temporary."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def _raw_matrix(seeds: np.ndarray, columns: int, start: int = 0) -> np.ndarray:
    """Row i holds the uint64 outputs start .. start+columns-1 of the stream
    seeded by seeds[i]."""
    if columns < 0:
        raise ValueError("count must be non-negative")
    idx = np.arange(start + 1, start + columns + 1, dtype=np.uint64)
    idx *= np.uint64(_GAMMA)
    return _mix_block(seeds[:, None].astype(np.uint64) + idx[None, :])


def derive_seed_block(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Child seeds start..start+count-1 as one uint64 array; row i equals
    derive_seed(seed, start + i).

    Like derive_seed, any integer seed is taken mod 2^64.
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    tags = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    tags *= np.uint64(_SPLIT)
    tags = _mix_block(tags)
    tags ^= np.uint64(seed & MASK64)
    return _mix_block(tags)


def uniform_matrix(seeds: np.ndarray, columns: int, start: int = 0) -> np.ndarray:
    """Doubles in [0, 1) with 53 random bits each.  Row i of this and every
    matrix draw below reads positions start .. start+columns-1 of seeds[i]."""
    raw = _raw_matrix(seeds, columns, start)
    raw >>= np.uint64(11)
    out = raw.astype(np.float64)
    out *= _INV_2_53
    return out


def integer_matrix(seeds: np.ndarray, columns: int, upper: int, start: int = 0) -> np.ndarray:
    """Integers uniform on {0, ..., upper-1}."""
    if upper <= 0:
        raise ValueError("upper must be positive")
    return np.minimum((uniform_matrix(seeds, columns, start) * upper).astype(np.int64), upper - 1)


def exponential_matrix(seeds: np.ndarray, columns: int, start: int = 0) -> np.ndarray:
    """Standard exponential variates via inversion."""
    # -log1p(-u) is exact for u near 0 and finite for all u < 1
    g = uniform_matrix(seeds, columns, start)
    np.negative(g, out=g)
    np.log1p(g, out=g)
    return np.negative(g, out=g)


def truncated_exponential_matrix(
    seeds: np.ndarray, columns: int, kappa: float, start: int = 0
) -> np.ndarray:
    """Exponential variates with values above kappa replaced by zero."""
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    g = exponential_matrix(seeds, columns, start)
    return np.where(g <= kappa, g, 0.0)


class SplitMix64Stream:
    """Sequential view over one counter-mode stream, for integer draws.

    The stream tracks its position, so successive calls return successive
    blocks: integers(5) then integers(3) yields the numbers of integers(8).
    Each call is the one-row integer_matrix draw at the position; the other
    draws read a one-seed row of their *_matrix function.
    """

    def __init__(self, seed: int, position: int = 0):
        self.seed = seed & MASK64
        self.position = position

    def _row(self, draw, count: int, *args) -> np.ndarray:
        block = draw(np.array([self.seed], dtype=np.uint64), count, *args, start=self.position)
        self.position += count
        return block[0]

    def integers(self, count: int, upper: int) -> np.ndarray:
        return self._row(integer_matrix, count, upper)
