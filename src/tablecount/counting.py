"""Counting non-negative integer matrices with prescribed row and column sums.

Entry points by family:

* exact oracles: ``exact_count_bruteforce`` (counts the tables ``iter_tables``
  lists), ``exact_count_dp`` and ``exact_count_01``: a memoized dynamic program
  over sorted remaining margins, line by line, or a dense pass over the box of
  one side's partial sums where that costs less, within one node budget.
* closed forms: ``fisher_yates_count`` (the factorial-weighted count, which has
  an exact product formula) and ``bekessy_estimate`` (asymptotic; its log is
  ``bekessy_log_estimate``).
* weighted exact: ``weighted_fy_count`` sums prod w_ij^d_ij / d_ij! over tables
  with the box dynamic program, exactly for rational weights.
* Monte Carlo: ``mc_estimate_count`` averages exact permanents of random
  block matrices whose cells are i.i.d. standard exponentials; the expected
  permanent equals the count times the product of margin factorials.  Given
  weights, it scales each cell by its weight and estimates the weight-power
  sum over tables.  ``variance_ratio_report`` checks the second-moment ratio
  against its proven bounds.
* low-rank: ``lowrank_asymptotic_count`` and friends replace each row's
  symmetric polynomial by a small random family of linear forms and read the
  count off the coefficient of x^c (c = column sums) in the product of the
  row factors, carrying a multiplicative (1 +/- eps)^N guarantee band.

The dense pass, weighted exact and every low-rank variant build their row
factors here (per-axis series, or tables for the sampled families) and read
their coefficient off the one engine ``polynomial.box_coefficient``.

All randomized paths are deterministic functions of their seed: sample i uses
the child seed derive_seed(seed, i), so chunked or parallel evaluation cannot
change results.
"""

from __future__ import annotations

import json
import math
import numbers
import statistics
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import sub
from typing import Dict, Iterator, List, Sequence, Tuple

from ._np import np
from .errors import (
    DimensionMismatchError,
    EnumerationBudgetError,
    PermanentSizeError,
    TermBudgetError,
    ValidationError,
)
from .lowrank import (
    approx_coefficients,
    build_e_tilde,
    build_h_tilde,
    choose_elementary_sample_count,
    choose_sample_count,
)
from .permanent import DEFAULT_SIZE_LIMIT, permanent_float_batch
from .polynomial import (
    BOX_STEP_BUDGET,
    DEFAULT_TERM_CAP,
    AxisRow,
    Coeff,
    box_coefficient,
    box_work,
    bounded_compositions,
    factorial,
    parse_coeff,
)
from .rng import DRAW_BUDGET, derive_seed, derive_seed_block, exponential_matrix

DEFAULT_NODE_BUDGET = 10**7
# A default Monte Carlo chunk holds at most CHUNK_ENTRIES block-matrix entries
# (2 MiB of doubles), and from MIN_CHUNK to MAX_CHUNK samples.
CHUNK_ENTRIES = 2**18
MIN_CHUNK = 2048
MAX_CHUNK = 16384
# sampled forms per distinct margin value in the counting pipelines; the
# conservative concentration formula is used when it asks for fewer
DEFAULT_FORMS_PER_VALUE = 128
DEFAULT_WEIGHTED_FORMS_PER_ROW = 64

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def _integers(values: Sequence[int], what: str) -> Tuple[int, ...]:
    """The values as ints; bools and non-integral numbers are rejected, not truncated."""
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValidationError(f"{what} must be integers, got {v!r}")
        out.append(int(v))
    return tuple(out)


class Margins:
    """Validated row and column sums with a common total."""

    __slots__ = ("row_sums", "col_sums", "total")

    def __init__(self, row_sums: Sequence[int], col_sums: Sequence[int]):
        rows = _integers(row_sums, "row sums")
        cols = _integers(col_sums, "column sums")
        if not rows or not cols:
            raise ValidationError("margins need at least one row and one column")
        if any(v < 1 for v in rows):
            raise ValidationError("row sums must be positive integers")
        if any(v < 1 for v in cols):
            raise ValidationError("column sums must be positive integers")
        if sum(rows) != sum(cols):
            raise ValidationError(
                f"row sums total {sum(rows)} but column sums total {sum(cols)}"
            )
        self.row_sums = rows
        self.col_sums = cols
        self.total = sum(rows)

    @property
    def num_rows(self) -> int:
        return len(self.row_sums)

    @property
    def num_cols(self) -> int:
        return len(self.col_sums)

    @property
    def rho(self) -> int:
        """Largest marginal."""
        return max(max(self.row_sums), max(self.col_sums))

    def divisor(self) -> int:
        """Product of all margin factorials."""
        return math.prod(map(factorial, self.row_sums + self.col_sums))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Margins):
            return NotImplemented
        return self.row_sums == other.row_sums and self.col_sums == other.col_sums

    def __repr__(self) -> str:
        return f"Margins(rows={list(self.row_sums)}, cols={list(self.col_sums)})"


class WeightMatrix:
    """Non-negative cell weights, exact or float entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Coeff]]):
        rows = tuple(tuple(v) for v in entries)
        if not rows or not rows[0]:
            raise ValidationError("weight matrix must be non-empty")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValidationError("ragged weight matrix")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ValidationError(f"weights must be numbers, got {v!r}")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValidationError("weights must be finite")
                if v < 0:
                    raise ValidationError("weights must be non-negative")
        self.entries = rows

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.entries[0])

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"WeightMatrix({self.num_rows}x{self.num_cols})"


def _check_weight_shape(margins: Margins, weights: WeightMatrix) -> None:
    if weights.num_rows != margins.num_rows or weights.num_cols != margins.num_cols:
        raise DimensionMismatchError(
            f"weights are {weights.num_rows}x{weights.num_cols}, margins are "
            f"{margins.num_rows}x{margins.num_cols}"
        )


@dataclass(frozen=True)
class CountEstimate:
    """Monte Carlo point estimate with normal-approximation uncertainty."""

    mean: float
    std_err: float
    ci_low: float
    ci_high: float
    num_samples: int
    seed: int


@dataclass(frozen=True)
class VarianceReport:
    """Empirical second-moment ratio against the proven bounds."""

    empirical_ratio: float
    slack: float
    bound_part2: int
    rho: int
    bound_part3_exponent: int
    bound_part3: float | None
    within_part2: bool
    num_samples: int
    seed: int


@dataclass(frozen=True)
class LowRankResult:
    """Outcome of a low-rank pairing: value plus the multiplicative band."""

    value: object
    guarantee_factor: Tuple[float, float]
    epsilon: float
    seed: int
    form_counts: Tuple[int, ...]
    term_count: int
    repeats: int


# ---------------------------------------------------------------------------
# exact oracles


class _NodeBudget:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise EnumerationBudgetError(
                f"enumeration exceeded {self.limit} nodes", limit=self.limit
            )


def iter_tables(margins: Margins, node_budget: int = DEFAULT_NODE_BUDGET) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Yield every table with the given margins (small instances only)."""
    budget = _NodeBudget(node_budget)
    m = margins.num_rows

    def rec(i: int, rem_cols: Tuple[int, ...], prefix: tuple) -> Iterator[tuple]:
        if i == m - 1:
            budget.spend()
            yield prefix + (rem_cols,)
            return
        for comp in bounded_compositions(margins.row_sums[i], rem_cols):
            budget.spend()
            yield from rec(i + 1, tuple(a - b for a, b in zip(rem_cols, comp)), prefix + (comp,))

    return rec(0, margins.col_sums, ())


def exact_count_bruteforce(margins: Margins, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count the tables iter_tables lists, one by one.

    Independent of the dynamic program: no memoization, so it cross-checks it.
    """
    return sum(1 for _ in iter_tables(margins, node_budget))


def _line_count(lines: Sequence[int], state: Sequence[int], cap: int | None,
                node_budget: int) -> int:
    """Tables filled one line (row or column) at a time; entries at most cap.

    Line i takes a composition of lines[i] bounded by the remaining opposite
    sums (each capped at cap), and one node is spent per composition.  The
    remaining lines treat the opposite lines symmetrically, so the completion
    count only depends on the multiset of remaining sums; sorting the state
    collapses equivalent branches, and the memo holds one count per state.
    """
    budget = _NodeBudget(node_budget)
    depth = len(lines)
    # memo[i] maps a sorted state to its count from line i on; the loop reads
    # it before recursing, so a known state costs no call
    memo: List[Dict[Tuple[int, ...], int]] = [{} for _ in range(depth)]
    memo.append({(0,) * len(state): 1})

    def count(i: int, state: Tuple[int, ...]) -> int:
        if i == depth:
            return 0 if any(state) else 1
        bounds = state if cap is None else tuple(min(s, cap) for s in state)
        below = memo[i + 1]
        total = 0
        for comp in bounded_compositions(lines[i], bounds):
            budget.spend()
            rest = tuple(sorted(map(sub, state, comp)))
            known = below.get(rest)
            total += count(i + 1, rest) if known is None else known
        memo[i][state] = total
        return total

    return count(0, tuple(sorted(state)))


# box_work's operations per node of the sorted DP: about 1.5 us each (2-core x86)
_OPS_PER_NODE = 1000


def _cheaper_side(sides, budget: int = BOX_STEP_BUDGET):
    """(work, box, rows) of the (box, rows) pair box_work counts fewer operations for."""
    return min(((box_work(box, rows, budget), box, rows) for box, rows in sides), key=lambda side: side[0])


def _count(lines: Sequence[int], state: Sequence[int], cap: int | None, node_budget: int) -> int:
    """The sorted line DP, or the dense pass where the DP would cost more.

    Both are exact.  The dense pass is box_coefficient over the box of one
    side's sums so far (counts do not change under transposing), with an
    all-ones AxisRow per line of the other side, (1, 1) for 0-1 counts, on
    the side box_work counts fewer operations for: D nodes.  The DP runs
    first within min(D, node_budget - D) nodes, so the dense pass still fits
    the budget when the DP stops there; with D past node_budget the DP runs
    alone within node_budget.  So margins are counted when either path fits
    the budget, at about twice the cheaper path's cost at most.
    """
    limit = node_budget * _OPS_PER_NODE
    sides = [(box, [AxisRow(r, other.count(r), (1,) * len(box) if cap == 1 else tuple(box))
                    for r in sorted(set(other))]) for box, other in ((state, lines), (lines, state))]
    work, box, rows = _cheaper_side(sides, limit)
    dense = -(-work // _OPS_PER_NODE)
    if dense > node_budget:
        return _line_count(lines, state, cap, node_budget)
    try:
        return _line_count(lines, state, cap, min(dense, node_budget - dense))
    except EnumerationBudgetError:
        return box_coefficient(rows, _singletons(box), work_budget=limit)


def exact_count_dp(margins: Margins, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Column-by-column count over memoized sorted remaining row sums, or the
    dense pass when that costs less; see _count."""
    return _count(margins.col_sums, margins.row_sums, None, node_budget)


def exact_count_01(margins: Margins, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count 0-1 tables row by row over sorted remaining column sums, or by
    the dense pass when that costs less (see _count); infeasible margins give 0."""
    return _count(margins.row_sums, margins.col_sums, 1, node_budget)


# ---------------------------------------------------------------------------
# closed forms


def fisher_yates_count(margins: Margins) -> Fraction:
    """Weighted count under weight prod 1/d_ij!: exactly N! over margin factorials.

    The multinomial N! / prod r_i! is an integer, built as a product of
    binomials, so the fraction reduces it against prod c_j! alone: a far
    smaller gcd than N! against the product of every margin factorial.
    """
    multinomial, used = 1, 0
    for r in margins.row_sums:
        used += r
        multinomial *= math.comb(used, r)
    return Fraction(multinomial, math.prod(map(factorial, margins.col_sums)))


def _bekessy_exponent(margins: Margins) -> float:
    n_total = margins.total
    row_pairs = sum(math.comb(r, 2) for r in margins.row_sums)
    col_pairs = sum(math.comb(c, 2) for c in margins.col_sums)
    return 2.0 * row_pairs * col_pairs / (n_total * n_total)


def bekessy_estimate(margins: Margins, log_value: float | None = None) -> float | None:
    """Closed-form asymptotic count: the factorial ratio times an exponential
    correction in the pairwise margin statistics.  None when the value lies
    outside the float range, as a log a unit past the largest float's shows
    before the exact ratio is built; bekessy_log_estimate always has it, and a
    caller that holds it passes it as log_value."""
    if log_value is None:
        log_value = bekessy_log_estimate(margins)
    if log_value > math.log(sys.float_info.max) + 1:
        return None
    try:
        value = float(fisher_yates_count(margins)) * math.exp(_bekessy_exponent(margins))
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def bekessy_log_estimate(margins: Margins) -> float:
    """Natural log of the Bekessy estimate, with log N! and the logs of the
    margin factorials from math.lgamma, so it is finite for any margins and
    builds no factorial."""
    log_divisor = math.fsum(math.lgamma(s + 1) for s in margins.row_sums + margins.col_sums)
    return math.lgamma(margins.total + 1) - log_divisor + _bekessy_exponent(margins)


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def mc_sample_values(
    margins: Margins,
    num_samples: int,
    seed: int,
    weights: WeightMatrix | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Raw per-sample permanents of the random block matrix.

    Sample k draws its cell exponentials (row-major) from the child stream
    derive_seed(seed, k); with weights, cell (i, j) is scaled by w_ij.  Values
    are independent of chunk_size, which defaults to CHUNK_ENTRIES // N^2
    samples clamped to [MIN_CHUNK, MAX_CHUNK].  The permanent size N is at
    most DEFAULT_SIZE_LIMIT, and the samples times the cells at most
    DRAW_BUDGET.
    """
    n_total = margins.total
    if n_total > DEFAULT_SIZE_LIMIT:
        raise PermanentSizeError(
            f"margins total {n_total} exceeds permanent size limit {DEFAULT_SIZE_LIMIT}",
            limit=DEFAULT_SIZE_LIMIT,
        )
    if num_samples < 1:
        raise ValidationError("need at least one sample")
    if chunk_size is None:
        chunk_size = min(MAX_CHUNK, max(MIN_CHUNK, CHUNK_ENTRIES // max(n_total * n_total, 1)))
    if chunk_size < 1:
        raise ValidationError("chunk_size must be positive")
    m, n = margins.num_rows, margins.num_cols
    if num_samples * m * n > DRAW_BUDGET:
        raise EnumerationBudgetError(
            f"{num_samples} samples of {m * n} cells exceed the draw budget {DRAW_BUDGET}",
            limit=DRAW_BUDGET,
        )
    w = None
    if weights is not None:
        _check_weight_shape(margins, weights)
        w = weights.to_numpy()
    row_of = np.repeat(np.arange(m), margins.row_sums)
    col_of = np.repeat(np.arange(n), margins.col_sums)
    out = np.empty(num_samples)
    for start in range(0, num_samples, chunk_size):
        stop = min(start + chunk_size, num_samples)
        seeds = derive_seed_block(seed, stop - start, start)
        cells = exponential_matrix(seeds, m * n).reshape(-1, m, n)
        if w is not None:
            cells *= w
        # the kernel reads (column, row, batch): gather one axis at a time in
        # that layout and pass the (batch, row, column) view, which it reads
        # without a copy
        blocks = cells.T.take(col_of, axis=0).take(row_of, axis=1)
        out[start:stop] = permanent_float_batch(blocks.transpose(2, 1, 0))
    return out


def _mean_and_std(values: np.ndarray) -> Tuple[float, float]:
    """np.mean(values) and np.std(values, ddof=1), bit for bit: np.std's own
    steps (mean, subtract, square, sum / (n - 1)) run in place, so values is
    left holding its squared deviations."""
    n = values.size
    mean = np.add.reduce(values) / n
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return float(mean), math.sqrt(np.add.reduce(values) / (n - 1))


def mc_estimate_count(
    margins: Margins,
    num_samples: int,
    seed: int,
    weights: WeightMatrix | None = None,
    chunk_size: int | None = None,
) -> CountEstimate:
    """Unbiased table-count estimate: average permanent over margin factorials.

    With weights each cell draw is scaled by w_ij, and the estimate is of the
    weight-power sum over tables, sum_D prod w_ij^d_ij: the exponential
    moments supply exactly the factorials that cancel the divisor's per-table
    surplus, so the target carries no 1/d! factor.
    """
    values = mc_sample_values(margins, num_samples, seed, weights, chunk_size)
    if values.size < 2:
        raise ValidationError("need at least two samples for a standard error")
    divisor = float(margins.divisor())
    mean, std = _mean_and_std(values)
    mean /= divisor
    std_err = std / (divisor * math.sqrt(values.size))
    return CountEstimate(
        mean=mean,
        std_err=std_err,
        ci_low=mean - Z_95 * std_err,
        ci_high=mean + Z_95 * std_err,
        num_samples=int(values.size),
        seed=seed,
    )


def chebyshev_sample_count(margins: Margins, epsilon: float, failure: float = 1.0 / 3.0) -> int:
    """Samples guaranteeing relative error epsilon with the stated failure
    probability, using the proven worst-case second-moment ratio 2^(2N)."""
    if not 0 < epsilon:
        raise ValidationError("epsilon must be positive")
    if not 0 < failure < 1:
        raise ValidationError("failure probability must lie in (0, 1)")
    ratio_bound = 2 ** (2 * margins.total)
    return math.ceil((ratio_bound - 1) / (failure * epsilon * epsilon))


def variance_ratio_report(
    margins: Margins,
    num_samples: int,
    seed: int,
) -> VarianceReport:
    """Empirical E[perm^2]/E[perm]^2 with the proven bounds.

    The general bound is 2^(2N).  The bounded-margin bound exp(rho^2 (2 rho)!)
    overflows floats beyond rho = 2 and is then reported by its exponent only.
    """
    values = mc_sample_values(margins, num_samples, seed)
    if values.size < 2:
        raise ValidationError("need at least two samples")
    squares = values * values
    m1, sd1 = _mean_and_std(values)
    m2, sd2 = _mean_and_std(squares)
    ratio = m2 / (m1 * m1)
    se1 = sd1 / math.sqrt(values.size)
    se2 = sd2 / math.sqrt(values.size)
    slack = 3.0 * (se2 / m2 + 2.0 * se1 / m1)
    bound2 = 2 ** (2 * margins.total)
    rho = margins.rho
    exponent = rho * rho * factorial(2 * rho)
    part3 = math.exp(exponent) if exponent <= 700 else None
    return VarianceReport(
        empirical_ratio=ratio,
        slack=slack,
        bound_part2=bound2,
        rho=rho,
        bound_part3_exponent=exponent,
        bound_part3=part3,
        within_part2=ratio <= bound2 * (1.0 + slack),
        num_samples=int(values.size),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# low-rank pipelines


def _band(epsilon: float, n_total: int) -> Tuple[float, float]:
    return ((1.0 - epsilon) ** n_total, (1.0 + epsilon) ** n_total)


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")


def _check_counts(repeats: int, form_count: int | None) -> None:
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    if form_count is not None and form_count < 1:
        raise ValidationError("form count must be positive")


def _series(wrow, r: int, box: Sequence[int], scaled: bool = False) -> List[List[Coeff]]:
    """Per-axis series w_j^e, or w_j^e / e! (exact for exact w) when scaled,
    for e <= min(box_j, r), by repeated multiplication: a float term past the
    float range becomes inf where float ** int would raise OverflowError."""
    out = []
    for w, b in zip(wrow, box):
        s = [Fraction(1) if scaled else 1]
        for e in range(1, min(b, r) + 1):
            s.append(s[-1] * w / e if scaled else s[-1] * w)
        out.append(s)
    return out


def _family_table(kind: str, r: int, box: Sequence[int], epsilon: float, seed: int, forms: int,
                  wrow):
    """(a, [x^a] factor) pairs of one sampled row factor over the column
    variables, for a inside box; an elementary box lies within (1, ..., 1).

    The factor is a family of `forms` forms drawn from seed: h~_r, or e~_r
    for kind "elementary"; a weight row scales each form's coefficients.
    """
    n = len(box)
    if kind == "elementary":
        return approx_coefficients(build_e_tilde(r, n, epsilon, seed, form_count=forms), box=box)
    approx = build_h_tilde(r, n, epsilon, seed, form_count=forms)
    if wrow is not None:
        approx = replace(approx, forms=approx.forms * np.array([float(w) for w in wrow]))
    return approx_coefficients(approx, box=box)


def _admissible_count(column_sets: Sequence[frozenset], n_total: int) -> int:
    """Number of column-sum vectors with entry j in column_sets[j] summing to n_total."""
    ways = {0: 1}
    for allowed in column_sets:
        nxt: Dict[int, int] = {}
        for partial, count in ways.items():
            for v in allowed:
                if partial + v <= n_total:
                    nxt[partial + v] = nxt.get(partial + v, 0) + count
        ways = nxt
    return ways.get(n_total, 0)


def _lowrank(
    kind: str,
    rows: Tuple[int, ...],
    column_sets: Sequence[frozenset],
    epsilon: float,
    seed: int,
    repeats: int,
    form_count: int | None,
    exact_surrogate: bool,
    weights=None,
) -> LowRankResult:
    """Median over repeats of the box coefficient of the row-factor product.

    Rows share one factor family per distinct row sum; with weights every row
    is its own family.  Family k of a repeat draws its forms from
    derive_seed(repeat seed, k).  The term count, the number of form
    multisets the product expands into times the admissible column vectors,
    is fixed by the form counts alone and checked against DEFAULT_TERM_CAP
    before any form is drawn; then the draws of every repeat are checked
    against DRAW_BUDGET before any repeat seed is derived.  Sampled families
    list their coefficients only inside the column box.
    """
    _check_counts(repeats, form_count)
    box = tuple(max(allowed, default=0) for allowed in column_sets)
    table_box = tuple(min(b, 1) for b in box) if kind == "elementary" else box
    if weights is None:
        families = [(r, rows.count(r), None) for r in sorted(set(rows))]
        cap = DEFAULT_FORMS_PER_VALUE
    else:
        families = [(r, 1, wrow) for r, wrow in zip(rows, weights)]
        cap = DEFAULT_WEIGHTED_FORMS_PER_ROW
    choose = choose_elementary_sample_count if kind == "elementary" else choose_sample_count
    form_counts = [0 if exact_surrogate else form_count if form_count is not None
                   else min(choose(r, epsilon, len(box)), cap) for r, _, _ in families]
    per_vector = math.prod(
        math.comb(m + mult - 1, mult) for m, (_, mult, _) in zip(form_counts, families) if m
    )
    vectors = _admissible_count(column_sets, sum(rows))
    if vectors and per_vector > DEFAULT_TERM_CAP:
        raise TermBudgetError(
            f"pairing needs {per_vector} terms, cap is {DEFAULT_TERM_CAP}; "
            "the cost grows as the product of per-value form-multiset counts",
            limit=DEFAULT_TERM_CAP,
        )
    # the exact polynomials do not depend on the seed, so one repeat serves
    runs = repeats if any(form_counts) else 1
    forms = sum(form_counts)
    if runs * forms * len(box) > DRAW_BUDGET:
        raise EnumerationBudgetError(
            f"{runs} repeats of {forms} forms of {len(box)} variables exceed the draw budget "
            f"{DRAW_BUDGET}",
            limit=DRAW_BUDGET,
        )
    sub_seeds = [seed] if runs == 1 else derive_seed_block(seed, runs).tolist()
    values = []
    for sub_seed in sub_seeds:
        factors = [
            (r, mult, table_box,
             partial(_family_table, kind, r, table_box, epsilon, derive_seed(sub_seed, k), m, wrow)) if m
            else AxisRow(r, mult, table_box, None if wrow is None else partial(_series, wrow, r, table_box))
            for k, ((r, mult, wrow), m) in enumerate(zip(families, form_counts))
        ]
        value = box_coefficient(factors, column_sets)
        values.append(value if exact_surrogate else float(value))
    return LowRankResult(
        value=statistics.median(values),
        guarantee_factor=_band(epsilon, sum(rows)),
        epsilon=epsilon,
        seed=seed,
        form_counts=tuple(form_counts),
        term_count=per_vector * vectors,
        repeats=repeats,
    )


def _singletons(col_sums: Sequence[int]) -> List[frozenset]:
    return [frozenset((c,)) for c in col_sums]


def weighted_fy_count(margins: Margins, weights: WeightMatrix):
    """Sum over tables of prod w_ij^d_ij / d_ij!: the coefficient of x^c in
    prod_i (w_i . x)^{r_i} / r_i!.

    Row i is the AxisRow of the series w_ij^e / e! along each column j, and
    one pass of the box dynamic program sums the products over tables.
    Exact weights give the exact value, with every series cleared to
    integers; float values are sums of non-negative terms.

    The sum is unchanged by transposing margins and weights, so the program
    runs over the rows or the columns, whichever box_work counts fewer
    element operations for.
    """
    _check_weight_shape(margins, weights)
    _, cols, factors = _cheaper_side([
        (cols, [AxisRow(r, 1, cols, partial(_series, w, r, cols, scaled=True)) for r, w in zip(rows, wrows)])
        for rows, cols, wrows in ((margins.row_sums, margins.col_sums, weights.entries),
                                  (margins.col_sums, margins.row_sums, list(zip(*weights.entries))))])
    value = box_coefficient(factors, _singletons(cols))
    return value if isinstance(value, float) else Fraction(value)


def lowrank_asymptotic_count(
    margins: Margins,
    epsilon: float,
    seed: int,
    repeats: int = 1,
    form_count: int | None = None,
    exact_surrogate: bool = False,
) -> LowRankResult:
    """Approximate table count via low-rank complete symmetric polynomials.

    One sampled family is built per distinct row-sum value and shared by equal
    rows.  The returned value carries a multiplicative guarantee band
    (1 +/- eps)^N.  With exact_surrogate=True the sampled families are replaced
    by the exact polynomials and the result is the exact count (a pipeline
    self-test, not an estimate).
    """
    _check_epsilon(epsilon)
    return _lowrank(
        "complete", margins.row_sums, _singletons(margins.col_sums), epsilon, seed,
        repeats, form_count, exact_surrogate,
    )


def lowrank_01_count(
    margins: Margins,
    epsilon: float,
    seed: int,
    repeats: int = 1,
    form_count: int | None = None,
    exact_surrogate: bool = False,
) -> LowRankResult:
    """Approximate 0-1 table count via low-rank elementary symmetric polynomials.

    Rows with r_i > n admit no 0-1 filling; the count is exactly 0 and is
    returned without sampling.
    """
    _check_epsilon(epsilon)
    _check_counts(repeats, form_count)
    if any(r > margins.num_cols for r in margins.row_sums):
        return LowRankResult(
            value=0.0,
            guarantee_factor=_band(epsilon, margins.total),
            epsilon=epsilon,
            seed=seed,
            form_counts=(),
            term_count=0,
            repeats=repeats,
        )
    return _lowrank(
        "elementary", margins.row_sums, _singletons(margins.col_sums), epsilon, seed,
        repeats, form_count, exact_surrogate,
    )


def lowrank_column_sets_count(
    row_sums: Sequence[int],
    column_sets: Sequence[Sequence[int]],
    epsilon: float,
    seed: int,
    repeats: int = 1,
    form_count: int | None = None,
    exact_surrogate: bool = False,
) -> LowRankResult:
    """Approximate number of tables whose column sums each lie in a given set.

    The column query factors as a sum of column monomials, so the value is the
    sum of the product's coefficients over every admissible column-sum vector;
    one pass of the box dynamic program yields them all.
    """
    rows = _integers(row_sums, "row sums")
    if not rows or any(v < 1 for v in rows):
        raise ValidationError("row sums must be positive integers")
    _check_epsilon(epsilon)
    if not column_sets:
        raise ValidationError("need at least one column set")
    n_total = sum(rows)
    sets = []
    for k, raw in enumerate(column_sets):
        values = set(_integers(raw, f"column set {k}"))
        if any(v < 0 for v in values):
            raise ValidationError(f"column set {k} contains a negative sum")
        sets.append(frozenset(v for v in values if v <= n_total))
    return _lowrank("complete", rows, sets, epsilon, seed, repeats, form_count, exact_surrogate)


def lowrank_weighted_count(
    margins: Margins,
    weights: WeightMatrix,
    epsilon: float,
    seed: int,
    repeats: int = 1,
    form_count: int | None = None,
    exact_surrogate: bool = False,
) -> LowRankResult:
    """Approximate weight-power sum over tables (the weighted mc_estimate_count target).

    Row i's forms carry coefficients w_ij times truncated exponential draws, so
    the pairing approximates sum over tables of prod w_ij^d_ij within the
    (1 +/- eps)^N band.  Neither the band nor the cost of the box dynamic
    program depends on the rank of the weights, so any non-negative weights
    are accepted.  Each row is its own family, of 64 forms by default, so the
    term count passes DEFAULT_TERM_CAP from four rows on.
    """
    _check_weight_shape(margins, weights)
    _check_epsilon(epsilon)
    return _lowrank(
        "complete", margins.row_sums, _singletons(margins.col_sums), epsilon, seed,
        repeats, form_count, exact_surrogate, weights=weights.entries,
    )


# ---------------------------------------------------------------------------
# file interchange


def _json_object(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def margins_from_json_text(text: str) -> Margins:
    data = _json_object(text, "margins file")
    if not isinstance(data, dict):
        raise ValidationError("margins JSON must be an object with rows and cols")
    try:
        rows, cols = data["rows"], data["cols"]
    except KeyError as exc:
        raise ValidationError(f"margins JSON lacks key {exc}") from exc
    if not isinstance(rows, list) or not isinstance(cols, list):
        raise ValidationError("margins JSON rows and cols must be lists")
    return Margins(rows, cols)


def margins_from_csv_text(text: str) -> Margins:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValidationError("margins CSV needs a row-sums line and a column-sums line")
    try:
        rows = [int(v) for v in lines[0].replace(",", " ").split()]
        cols = [int(v) for v in lines[1].replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"margins CSV holds a non-integer sum: {exc}") from exc
    return Margins(rows, cols)


def _weight_value(token: str) -> Coeff:
    try:
        return parse_coeff(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad weight {token!r}") from exc


def weights_from_json_text(text: str) -> WeightMatrix:
    data = _json_object(text, "weights file")
    if isinstance(data, dict):
        if "weights" not in data:
            raise ValidationError("weights JSON lacks key 'weights'")
        data = data["weights"]
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValidationError("weights JSON must hold a list of rows")
    decoded = [[_weight_value(v) if isinstance(v, str) else v for v in row] for row in data]
    return WeightMatrix(decoded)


def weights_from_csv_text(text: str) -> WeightMatrix:
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append([_weight_value(cell.strip()) for cell in ln.split(",")])
    if not rows:
        raise ValidationError("empty weights CSV")
    return WeightMatrix(rows)
