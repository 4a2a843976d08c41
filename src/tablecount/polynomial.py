"""Sparse multivariate polynomials with a factorial-weighted scalar product.

The scalar product treats monomials as an orthogonal family: a monomial pairs
to zero with every other monomial, and with itself to the product of the
factorials of its exponents.

Coefficients are dual-mode: ``int``/``Fraction`` for exact identities, plain
floats for randomized estimates.  Mixing exact and float operands silently
degrades to float, which is the intended behaviour.

``box_coefficient`` reads one coefficient of a product of row factors from one
dense array of partial sums, within ``BOX_STEP_BUDGET`` element operations and
``BOX_CELL_LIMIT`` cells: per-axis series (``AxisRow``) for exact factors, and
tables of coefficients for the sampled low-rank families, which do not factor.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import le
from typing import Callable, Dict, Iterator, NamedTuple, Sequence, Tuple, Union

from ._np import np
from .errors import DimensionMismatchError, EnumerationBudgetError, TermBudgetError, ValidationError

Exponent = Tuple[int, ...]
Coeff = Union[int, Fraction, float]

DEFAULT_TERM_CAP = 10**7
# the box engine's element operations and cells: above the 1,107,296,740 and
# 2^22 of 22 unit rows and columns, the costliest and largest margins, N <= 22
BOX_STEP_BUDGET = 12 * 10**8
BOX_CELL_LIMIT = 1 << 22
# box_work's cost of a numpy call and of each run a cumsum takes along its axis,
# in element operations of ~1.5 ns, fitted on 77 counts (2-core x86, numpy 2.4)
BOX_CALL_OPS = 4500
BOX_RUN_OPS = 14


def factorial(n: int) -> int:
    if n < 0:
        raise ValidationError("factorial of negative argument")
    return math.factorial(n)


def monomial_weight(a: Sequence[int]) -> int:
    """Self-pairing of the monomial x^a: the product of factorials of exponents."""
    if any(e < 0 for e in a):
        raise ValidationError("negative exponent")
    return math.prod(map(factorial, a))


def bounded_compositions(total: int, bounds: Sequence[int]) -> Iterator[Exponent]:
    """All ways to write total as an ordered sum with 0 <= part_i <= bounds[i].

    Vectors come in descending lexicographic order, the order in which
    itertools.combinations(_with_replacement) lists the matching monomials.
    A negative bound admits no vector.

    An odometer over the head, all coordinates but the last two: for each
    head the last two run through their values in one loop.  To step the
    head, the rightmost coordinate that is positive and whose tail can take
    one more unit loses one, and everything right of it is refilled greedily.
    rem is the part of total that the coordinates right of the head carry.
    """
    k = len(bounds)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    if total < 0 or total > suffix[0] or min(bounds, default=0) < 0:
        return
    if k < 2:
        yield (total,) * k
        return
    last = k - 2
    b_last, b_end = bounds[last], bounds[last + 1]
    head = [0] * last
    rem = total
    for j in range(last):
        b = bounds[j]
        head[j] = v = b if b < rem else rem
        rem -= v
    while True:
        prefix = tuple(head)
        lo = rem - b_end
        for v in range(b_last if b_last < rem else rem, (lo if lo > 0 else 0) - 1, -1):
            yield prefix + (v, rem - v)
        i = last - 1
        while i >= 0 and (not head[i] or rem >= suffix[i + 1]):
            rem += head[i]
            i -= 1
        if i < 0:
            return
        head[i] -= 1
        rem += 1
        for j in range(i + 1, last):
            b = bounds[j]
            head[j] = v = b if b < rem else rem
            rem -= v


class AxisRow(NamedTuple):
    """Row factor [t^r] prod_j S_j(t x_j) of box_coefficient, applied mult
    times, where S_j(u) = sum_e s_j(e) u^e over e <= min(box_j, r).
    series() returns the s_j, or series is None when every s_j(e) is 1."""

    r: int
    mult: int
    box: Tuple[int, ...]
    series: Callable[[], Sequence[Sequence[Coeff]]] | None = None


def _is_cumsum(b: int, c: int, r: int, ones: bool) -> bool:
    """Whether an axis of bound b takes all-ones s(0..min(c, r)) as a cumsum, which
    the degree mask trims past min(b, r); 2 terms are a shifted add, with no runs."""
    return ones and 2 <= min(b, r) <= c


def box_work(bound: Sequence[int], factors: Sequence[tuple], budget: int = BOX_STEP_BUDGET) -> int:
    """Element operations box_coefficient takes with its states inside bound,
    past budget once over it or for a box past BOX_CELL_LIMIT cells; numpy is
    used only for tables.

    Exact series s(e), e up to m = min(box_j, r), grow by up to log2(e) bits
    a step, so building a row counts m(m+1)/2 * bits(m) per axis.  An AxisRow
    application counts per axis a cumsum and its runs, or a copy of the
    states for a series longer than 2 and a shifted multiply-add over the
    cells past e for each e; then, but for the last, a degree mask.  A table
    step fills the cells, and entry a adds a slice of prod_j (bound_j + 1 -
    a_j) cells: [x^r] prod_j sum_e (bound_j + 1 - e) x^e over degree r.
    """
    cells = math.prod(b + 1 for b in bound)
    if cells > BOX_CELL_LIMIT:
        return budget + 1
    work = 0
    for k, (r, mult, box, build) in enumerate(factors):
        work += sum(m * (m + 1) // 2 * m.bit_length() for m in (min(b, r) for b in box))
        if isinstance(factors[k], AxisRow):
            step = cells + BOX_CALL_OPS
            for b, c in zip(bound, box):
                m = min(b, c, r)
                if _is_cumsum(b, c, r, build is None):
                    step += cells + BOX_RUN_OPS * (cells // (b + 1)) + BOX_CALL_OPS
                elif m:
                    slices = cells // (b + 1) * (m * (b + 1) - m * (m + 1) // 2)
                    step += (cells if m > 1 else 0) + slices + m * BOX_CALL_OPS
            work += mult * step - (cells + BOX_CALL_OPS if k == len(factors) - 1 else 0)
        else:
            slices = np.ones(1, dtype=np.int64)
            for b, c in zip(bound, box):
                slices = np.convolve(slices, np.arange(b + 1, b - min(b, c, r), -1))[:r + 1]
            work += mult * (cells + (int(slices[r]) if r < slices.size else 0))
        if work > budget:
            return work
    return work


def _times(c: Coeff, states):
    """c times the states, where a zero state times an infinite c adds nothing."""
    if c == 1:
        return states
    term = c * states
    if c == math.inf:
        term[states == 0] = 0
    return term


def _axis_pass(state, axis: int, s: Sequence[Coeff], cumsum: bool):
    """new[v] = sum_e s[e] state[v - e] along the axis, cut at the box: the
    states times sum_e s[e] x_axis^e, as one cumsum when cumsum is set."""
    if cumsum:
        return state.cumsum(axis, out=state)
    lead = (slice(None),) * axis
    out = state if len(s) == 2 and s[0] == 1 else state * s[0]
    for e in range(1, len(s)):
        if s[e]:
            high = out[lead + (slice(e, None),)]
            np.add(high, _times(s[e], state[lead + (slice(-e),)]), out=high)
    return out


def box_coefficient(factors: Sequence[tuple], column_sets: Sequence[frozenset],
                    work_budget: int = BOX_STEP_BUDGET) -> Coeff:
    """Sum over end vectors v with v_j in column_sets[j] of [x^v] prod factor^mult.

    The states of a dynamic program over the column sums used so far (Gail
    and Mantel) fill one array over the box 0 <= v_j <= max(column_sets[j]).
    An AxisRow's series act along each axis in turn, then the cells off the
    running degree are zeroed.  A float table (degree r, mult, table box,
    build) has build() return its (a, coefficient) pairs, a of degree r
    inside the table box; entry a adds its coefficient times the states up to
    bound - a into the cells from a on.  Past BOX_CELL_LIMIT cells or
    work_budget element operations it raises before anything is built.

    The array is float64 if there is a table or a float coefficient.  Else
    each axis's series is cleared to integers by its common denominator, and
    the array holds int64 until sum |state| times prod_j sum_e |s_j(e)|, a
    bound on every entry after the next row, reaches 2^63, then Python ints.
    """
    bound = tuple(max(allowed, default=0) for allowed in column_sets)
    cells = math.prod(b + 1 for b in bound)
    if cells > BOX_CELL_LIMIT:
        raise EnumerationBudgetError(f"box of {cells} cells exceeds the limit {BOX_CELL_LIMIT}",
                                     limit=BOX_CELL_LIMIT)
    if box_work(bound, factors, work_budget) > work_budget:
        raise EnumerationBudgetError(f"box engine would exceed {work_budget} element operations",
                                     limit=work_budget)
    series = {k: [[1] * (min(b, c, r) + 1) for b, c in zip(bound, box)] if build is None
              else [s[:min(b, r) + 1] for s, b in zip(build(), bound)]
              for k, (r, _, box, build) in enumerate(factors) if isinstance(factors[k], AxisRow)}
    exact = len(series) == len(factors) and all(isinstance(c, numbers.Rational) for k, form in series.items()
                                                if factors[k].series for s in form for c in s)
    denominator, steps = 1, []
    for k, (r, mult, box, build) in enumerate(factors):
        if k not in series:
            step = [(tuple(slice(e, None) for e in a), tuple(slice(b + 1 - e) for b, e in zip(bound, a)),
                     float(c)) for a, c in build() if c and all(map(le, a, bound))]
        else:
            passes, growth = [], 1
            for axis, (s, b, c) in enumerate(zip(series[k], bound, box)):
                if build is not None:
                    q = math.lcm(*(x.denominator for x in s)) if exact else 1
                    s = [int(x.numerator) * (q // x.denominator) if exact else float(x) for x in s]
                    denominator *= q ** mult
                growth *= sum(map(abs, s))
                if s != [1]:
                    passes.append((axis, s, _is_cumsum(b, c, r, build is None)))
            step = passes, growth
        steps += [(k in series, r, step)] * mult
    state = np.zeros(tuple(b + 1 for b in bound), dtype=np.int64 if exact else np.float64)
    state[(0,) * len(bound)] = 1
    degree = sum(np.arange(b + 1, dtype=np.int32).reshape((-1,) + (1,) * (len(bound) - 1 - j))
                 for j, b in enumerate(bound)) if series else None
    done, size = 0, 1  # size bounds sum |state| while the array is int64
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (per_axis, r, step) in enumerate(steps):
            done += r
            if not per_axis:
                state, nxt = np.zeros_like(state), state
                for dst, src, c in step:
                    state[dst] += _times(c, nxt[src])
                continue
            passes, growth = step
            if state.dtype == np.int64 and size * growth >= 1 << 63:
                size = int(state.sum() - 2 * state[state < 0].sum())  # no |state| copy
                if size * growth >= 1 << 63:
                    state = state.astype(object)
            size *= growth
            for axis, s, cumsum in passes:
                state = _axis_pass(state, axis, s, cumsum)
            if k < len(steps) - 1:
                state[degree != done] = 0
    # one take per axis gathers the same array as state[np.ix_(*picks)] at about half the cost
    picks = [sorted(allowed) for allowed in column_sets]
    for axis, pick in enumerate(picks):
        state = state.take(pick, axis=axis)
    if series:  # the cells off the running degree, which the last row leaves
        state[sum(np.ix_(*picks)) != done] = 0
    total = state.sum()
    if not exact:
        return float(total)
    return int(total) if denominator == 1 else Fraction(int(total), denominator)


class SparsePolynomial:
    """Finite map from exponent vectors to non-zero coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Dict[Exponent, Coeff] | None = None):
        if num_vars < 0:
            raise ValidationError("num_vars must be non-negative")
        self.num_vars = num_vars
        clean: Dict[Exponent, Coeff] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != num_vars:
                raise DimensionMismatchError(
                    f"exponent vector of length {len(expo)}, expected {num_vars}"
                )
            if any(e < 0 for e in expo):
                raise ValidationError("negative exponent")
            if coeff != 0:
                clean[tuple(expo)] = coeff
        self.terms = clean

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.num_vars}, {len(self.terms)} terms)"

    def coefficient(self, a: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(a), 0)

    def add(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError("adding polynomials over different variables")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePolynomial(self.num_vars, out)

    def scale(self, factor: Coeff) -> "SparsePolynomial":
        return SparsePolynomial(self.num_vars, {e: factor * c for e, c in self.terms.items()})


class LinearForm:
    """Dense degree-1 form c_1 x_1 + ... + c_n x_n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
        self.coeffs = tuple(coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LinearForm({list(self.coeffs)})"

    def dot(self, other: "LinearForm") -> Coeff:
        """Scalar product of two forms: the plain dot product of coefficients."""
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionMismatchError("forms over different numbers of variables")
        return sum(a * b for a, b in zip(self.coeffs, other.coeffs))

    def as_polynomial(self) -> SparsePolynomial:
        n = len(self.coeffs)
        units = (tuple(int(i == j) for j in range(n)) for i in range(n))
        return SparsePolynomial(n, dict(zip(units, self.coeffs)))


def scalar_product(f: SparsePolynomial, g: SparsePolynomial) -> Coeff:
    """Factorial-weighted pairing: sum over shared monomials of weight * f_a * g_a.

    Exact when both operands carry exact coefficients.  Monomials present in
    only one operand contribute nothing, so iteration runs over the smaller
    term map.
    """
    if f.num_vars != g.num_vars:
        raise DimensionMismatchError("pairing polynomials over different variables")
    if len(g.terms) < len(f.terms):
        f, g = g, f
    total: Coeff = 0
    for expo, fc in f.terms.items():
        gc = g.terms.get(expo)
        if gc is not None:
            total += monomial_weight(expo) * fc * gc
    return total


def poly_mul(
    f: SparsePolynomial, g: SparsePolynomial, term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """Distributive product with zero-pruning; fails loudly past the term cap."""
    if f.num_vars != g.num_vars:
        raise DimensionMismatchError("multiplying polynomials over different variables")
    if len(f.terms) * len(g.terms) > term_cap:
        raise TermBudgetError(
            f"product could reach {len(f.terms) * len(g.terms)} terms, cap is {term_cap}",
            limit=term_cap,
        )
    out: Dict[Exponent, Coeff] = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key, 0) + ca * cb
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    if len(out) > term_cap:
        raise TermBudgetError(f"product has {len(out)} terms, cap is {term_cap}", limit=term_cap)
    return SparsePolynomial(f.num_vars, out)


def product_of_forms(
    factors: Sequence[LinearForm], term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """Expanded product of degree-1 forms (all over the same variables)."""
    if not factors:
        raise ValidationError("empty form product")
    acc = factors[0].as_polynomial()
    for factor in factors[1:]:
        acc = poly_mul(acc, factor.as_polynomial(), term_cap=term_cap)
    return acc


def sort_key(expo: Exponent) -> Tuple[int, Tuple[int, ...]]:
    """Graded-lex key: ascending degree, then descending lexicographic."""
    return (sum(expo), tuple(-e for e in expo))


def parse_coeff(token: str) -> Coeff:
    if "/" in token:
        return Fraction(token)
    try:
        return int(token)
    except ValueError:
        return float(token)


def poly_to_text(f: SparsePolynomial) -> str:
    """Canonical serialization: one "coeff e_1 ... e_n" line per term, graded-lex."""
    return "\n".join(" ".join(map(str, (f.terms[expo], *expo))) for expo in sorted(f.terms, key=sort_key))
