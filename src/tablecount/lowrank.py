"""Randomized low-rank stand-ins for complete and elementary symmetric polynomials.

The degree-r complete symmetric polynomial (every degree-r monomial with
coefficient 1) is approximated by an average of r-th powers of linear forms
whose coefficients are truncated standard exponentials; truncation at a
threshold kappa keeps every draw bounded while losing at most a delta fraction
of each moment.  The elementary symmetric polynomial (square-free monomials) is
approximated by an average of products of disjoint-support 0/1 forms read off
random surjections of the variables onto {1..r}.  Both families are cheap to
evaluate (few forms, not many monomials) and carry per-coefficient relative
guarantees of the shape [(1-eps)^r, (1+eps)^r].

Form count selection uses explicit bounded-difference (Azuma/Hoeffding)
constants, so the defaults are conservative; every builder accepts an explicit
override for empirical work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence, Tuple

from ._np import np
from .errors import CertificationError, EnumerationBudgetError, SurjectionSamplingError, ValidationError
from .polynomial import LinearForm, SparsePolynomial, bounded_compositions, factorial, product_of_forms
from .rng import DRAW_BUDGET, derive_seed_block, integer_matrix, truncated_exponential_matrix

# most target monomials approx_coefficients lists without a box
DEFAULT_ENUMERATION_BUDGET = 2 * 10**6


def truncation_tail(kappa: float, r: int) -> float:
    """e^{-kappa} * sum_{i<=r} kappa^i / i!, the moment deficit at degree r."""
    total = 0.0
    term = 1.0
    for i in range(r + 1):
        if i > 0:
            term *= kappa / i
        total += term
    return math.exp(-kappa) * total


@dataclass(frozen=True)
class TruncationSpec:
    """Certified truncation threshold: moments up to r lose at most delta."""

    r: int
    delta: float
    kappa: float

    def __post_init__(self):
        if self.r < 0:
            raise ValidationError("r must be non-negative")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if self.kappa <= 0:
            raise ValidationError("kappa must be positive")
        # allow a hair of slack for thresholds computed at 1e-6 resolution
        # a tail of 0 * inf = nan past kappa ~ 709 certifies nothing
        if not truncation_tail(self.kappa, self.r) <= self.delta * (1 + 1e-9) + 1e-12:
            raise CertificationError(
                f"kappa={self.kappa} does not certify delta={self.delta} at degree {self.r}"
            )


def solve_threshold(r: int, delta: float) -> TruncationSpec:
    """Smallest kappa (to a resolution of 1e-6) whose tail at degree r is <= delta.

    The tail is strictly decreasing in kappa, so plain bisection applies.
    """
    if r < 0:
        raise ValidationError("r must be non-negative")
    if not 0 < delta < 1:
        raise ValidationError("delta must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while truncation_tail(hi, r) > delta:
        hi *= 2.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if truncation_tail(mid, r) > delta:
            lo = mid
        else:
            hi = mid
    return TruncationSpec(r=r, delta=delta, kappa=hi)


def truncated_moment(kappa: float, alpha: int) -> float:
    """Integral of t^alpha e^{-t} over [0, kappa].

    For alpha >= 1 this is the alpha-th moment of the truncated draw (the atom
    at zero contributes nothing); it equals alpha! * (1 - tail(kappa, alpha)).
    """
    if alpha < 0:
        raise ValidationError("alpha must be non-negative")
    return factorial(alpha) * (1.0 - truncation_tail(kappa, alpha))


def choose_sample_count(r: int, epsilon: float, n: int) -> int:
    """Form count for the complete-kind approximation with success probability >= 2/3.

    Each coefficient is a mean of independent terms bounded by kappa^r; a
    Hoeffding bound at tolerance t (the distance from the truncation-biased
    mean to the nearer edge of the guarantee band) with a union bound over all
    C(n+r-1, r) coefficients gives
        m = ceil((2 K^2 / t^2) * ln(6 * C(n+r-1, r))).
    Logarithmic in n, but with a large constant; builders accept overrides.
    """
    if r < 1:
        raise ValidationError("r must be at least 1")
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if n < 1:
        raise ValidationError("n must be at least 1")
    delta = 1.0 - math.sqrt(1.0 - epsilon)
    spec = solve_threshold(r, delta)
    K = spec.kappa**r
    lo, hi = (1.0 - epsilon) ** r, (1.0 + epsilon) ** r
    t = min((1.0 - epsilon) ** (r / 2.0) - lo, hi - 1.0)
    monomials = math.comb(n + r - 1, r)
    return math.ceil((2.0 * K * K / (t * t)) * math.log(6.0 * monomials))


def surjection_count(n: int, r: int) -> int:
    """Number of surjections {1..n} -> {1..r}, by inclusion-exclusion."""
    if r < 0 or n < 0:
        raise ValidationError("n and r must be non-negative")
    return sum((-1) ** k * math.comb(r, k) * (r - k) ** n for k in range(r + 1))


def elementary_scale_denominator(n: int, r: int) -> Fraction:
    """beta = r! * r^(n-r) / Surj(n, r): probability that a uniform surjection
    restricted to a fixed r-subset is a bijection."""
    surj = surjection_count(n, r)
    if surj == 0:
        raise ValidationError(f"no surjections from {n} elements onto {r}")
    return Fraction(factorial(r) * r ** (n - r), surj)


def choose_elementary_sample_count(r: int, epsilon: float, n: int) -> int:
    """Surjection count for the elementary-kind approximation, success >= 2/3.

    Each square-free coefficient is 1/beta times a mean of Bernoulli(beta)
    indicators, so lies in [0, 1/beta]; Hoeffding at tolerance
    t = 1 - (1-eps)^r (the nearer band edge to the exact mean 1) with a union
    bound over C(n, r) coefficients.
    """
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if not 1 <= r <= n:
        raise ValidationError("need 1 <= r <= n")
    beta = float(elementary_scale_denominator(n, r))
    t = 1.0 - (1.0 - epsilon) ** r
    monomials = math.comb(n, r)
    return math.ceil(math.log(6.0 * monomials) / (2.0 * t * t * beta * beta))


@dataclass(frozen=True, eq=False)
class ApproxSymmetricPoly:
    """A scaled family of linear forms standing in for h_r or e_r.

    kind="complete": forms is the (m, n) float array of form coefficients;
    the polynomial is scale * sum_i (forms[i] . x)^r.
    kind="elementary": forms is the (m, n) int array of surjections, entry
    (i, j) the block of variable j in surjection i; the polynomial is
    scale * sum_i prod_b (sum of the x_j with forms[i, j] == b).
    forms is a read-only view.
    """

    kind: str
    r: int
    num_vars: int
    epsilon: float
    seed: int
    scale: float
    forms: np.ndarray

    def __post_init__(self):
        if self.kind not in ("complete", "elementary"):
            raise ValidationError(f"unknown kind {self.kind!r}")
        dtype = np.float64 if self.kind == "complete" else np.int64
        forms = np.asarray(self.forms, dtype=dtype).reshape(-1, self.num_vars).view()
        forms.flags.writeable = False
        object.__setattr__(self, "forms", forms)

    @property
    def form_count(self) -> int:
        return len(self.forms)

    def _group_rows(self) -> np.ndarray:
        """(m, r, n) 0/1 floats: row b of group i is the indicator of block b."""
        return (self.forms[:, None, :] == np.arange(self.r)[:, None]).astype(np.float64)

    def expand(self) -> SparsePolynomial:
        """Materialize the represented polynomial (small form counts only): the
        reference for approx_coefficients, computed without it."""
        acc = SparsePolynomial(self.num_vars)
        if self.kind == "complete":
            for row in self.forms.tolist():
                acc = acc.add(product_of_forms([LinearForm(row)] * self.r))
        else:
            for group in self._group_rows().tolist():
                acc = acc.add(product_of_forms([LinearForm(f) for f in group]))
        return acc.scale(self.scale)

    def to_json(self) -> str:
        forms = self.forms if self.kind == "complete" else self._group_rows()
        return json.dumps(
            {
                "kind": self.kind,
                "r": self.r,
                "n": self.num_vars,
                "epsilon": self.epsilon,
                "seed": self.seed,
                "scale": self.scale,
                "forms": forms.tolist(),
            }
        )


# values drawn per block while building a complete-kind family
_DRAW_CELLS = 1 << 16


def _check_form_count(m: int, n: int) -> None:
    """A family of m forms over n variables draws m * n values, at most DRAW_BUDGET."""
    if m < 1:
        raise ValidationError("form count must be positive")
    if m * n > DRAW_BUDGET:
        raise EnumerationBudgetError(
            f"{m} forms of {n} variables exceed the draw budget {DRAW_BUDGET}", limit=DRAW_BUDGET
        )


def build_h_tilde(
    r: int, n: int, epsilon: float, seed: int, form_count: int | None = None
) -> ApproxSymmetricPoly:
    """Average of r-th powers of truncated-exponential forms, scaled by 1/(r! m).

    Form i's coefficients are the first n truncated draws of the child stream
    derive_seed(seed, i), so the family is reproducible and the rows can be
    generated in any order or in parallel.  They are drawn in blocks of about
    _DRAW_CELLS values, so the draw temporaries stay small beside the family.
    """
    if r < 1:
        raise ValidationError("r must be at least 1")
    if n < 1:
        raise ValidationError("n must be at least 1")
    m = choose_sample_count(r, epsilon, n) if form_count is None else int(form_count)
    _check_form_count(m, n)
    delta = 1.0 - math.sqrt(1.0 - epsilon)
    spec = solve_threshold(r, delta)
    gamma = np.empty((m, n))
    step = max(1, _DRAW_CELLS // n)
    for start in range(0, m, step):
        seeds = derive_seed_block(seed, min(step, m - start), start)
        gamma[start:start + len(seeds)] = truncated_exponential_matrix(seeds, n, spec.kappa)
    scale = 1.0 / (factorial(r) * m)
    return ApproxSymmetricPoly(
        kind="complete", r=r, num_vars=n, epsilon=epsilon, seed=seed, scale=scale, forms=gamma
    )


def _missing_a_block(assignments: np.ndarray, r: int) -> np.ndarray:
    """Indices of the rows that leave some block in 0..r-1 empty."""
    hit = (assignments[:, :, None] == np.arange(r)).any(axis=1)
    return np.flatnonzero(~hit.all(axis=1))


def build_e_tilde(
    r: int, n: int, epsilon: float, seed: int, form_count: int | None = None
) -> ApproxSymmetricPoly:
    """Average of surjection products, scaled so square-free coefficients have mean 1.

    Each group is the r forms x_{omega^{-1}(1)}, ..., x_{omega^{-1}(r)} of one
    uniform random surjection omega; the scale is 1/(beta * m) with beta the
    bijective-restriction probability.  Surjection i is drawn by rejection from
    the child stream derive_seed(seed, i): attempt t reads its positions
    t*n .. (t+1)*n - 1.  Every group's first attempt is one block draw, and
    only the rejected rows are drawn again.
    """
    if not 1 <= r <= n:
        raise ValidationError("need 1 <= r <= n")
    m = choose_elementary_sample_count(r, epsilon, n) if form_count is None else int(form_count)
    _check_form_count(m, n)
    expected_attempts = r**n / surjection_count(n, r)
    retry_limit = math.ceil(50 * expected_attempts)
    seeds = derive_seed_block(seed, m)
    assignments = integer_matrix(seeds, n, r)
    rejected = _missing_a_block(assignments, r)
    for attempt in range(1, retry_limit):
        if not rejected.size:
            break
        assignments[rejected] = integer_matrix(seeds[rejected], n, r, start=attempt * n)
        rejected = rejected[_missing_a_block(assignments[rejected], r)]
    if rejected.size:
        raise SurjectionSamplingError(
            f"no surjection onto {r} blocks within {retry_limit} attempts"
        )
    scale = float(1 / (elementary_scale_denominator(n, r) * m))
    return ApproxSymmetricPoly(
        kind="elementary", r=r, num_vars=n, epsilon=epsilon, seed=seed, scale=scale, forms=assignments
    )


# entries of one gathered block of surjection bits in approx_coefficients
_GATHER_CELLS = 1 << 16


@dataclass(frozen=True)
class CoefficientReport:
    """Outcome of comparing an approximation's coefficients against 1."""

    min_ratio: float
    max_ratio: float
    band: Tuple[float, float]
    violations: Tuple[Tuple[int, ...], ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def approx_coefficients(
    approx: ApproxSymmetricPoly,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    box: Sequence[int] | None = None,
):
    """Yield (exponent vector, coefficient) for every target monomial inside box.

    Complete kind: degree-r monomials, coefficient computed vectorized across
    forms.  Elementary kind: square-free degree-r monomials via bijectivity
    counts of the stored surjections.  box bounds the exponents; by default it
    is (r, ..., r) or (1, ..., 1), every target monomial, and an elementary box
    lies within (1, ..., 1).  A smaller box yields a subsequence of the same
    pairs.

    Without a box, the C(n+r-1, r) or C(n, r) target monomials are counted
    against budget before any is listed.  A box is not counted; its caller
    bounds it.  The one caller that passes a box, a low-rank table of
    box_coefficient, is built only inside BOX_CELL_LIMIT = 2^22 cells.  Fixing
    every coordinate but the longest axis, of bound b, leaves at most one
    value there, so a degree layer holds at most cells / (b + 1) <= 2^22 / 3
    vectors for b >= 2 and C(22, 11) for unit boxes, both under the budget.
    """
    n, r = approx.num_vars, approx.r
    complete = approx.kind == "complete"
    if box is None:
        box = (r if complete else 1,) * n
        if (math.comb(n + r - 1, r) if complete else math.comb(n, r)) > budget:
            raise EnumerationBudgetError(f"degree-{r} monomials exceed budget {budget}", limit=budget)
    expos = bounded_compositions(r, box)
    if complete:
        gamma = approx.forms
        m = gamma.shape[0]
        for expo in expos:
            inner = np.ones(m)
            weight = 1
            for j, a in enumerate(expo):
                if a:
                    inner = inner * gamma[:, j] ** a
                    weight *= factorial(a)
            # coefficient of x^a in scale * sum_i l_i^r
            coeff = approx.scale * factorial(r) / weight * float(np.sum(inner))
            yield expo, coeff
    else:
        # surjection i hits x_S when the blocks of S's r variables are all
        # distinct, that is when the OR of their block bits is all r bits;
        # past 64 blocks the bits are Python ints
        dtype = np.uint64 if r <= 64 else object
        bits = np.left_shift(np.ones((), dtype=dtype), approx.forms.T.astype(dtype))
        full = np.array((1 << r) - 1, dtype=dtype)
        # monomials per block: the (monomials, r, forms) gather holds at most
        # _GATHER_CELLS entries, 512 KB, unless one monomial needs more
        per_block = max(1, _GATHER_CELLS // (max(r, 1) * len(approx.forms)))
        while chunk := list(islice(expos, per_block)):
            support = np.flatnonzero(np.array(chunk, dtype=bool)).reshape(len(chunk), r) % n
            union = np.bitwise_or.reduce(bits[support], axis=1)
            for expo, count in zip(chunk, np.count_nonzero(union == full, axis=1).tolist()):
                yield expo, approx.scale * count


def _band_report(coefficients, r: int, epsilon: float) -> CoefficientReport:
    """Scan (exponent vector, coefficient) pairs against the band
    [(1-eps)^r, (1+eps)^r] around the exact value 1."""
    lo = (1.0 - epsilon) ** r
    hi = (1.0 + epsilon) ** r
    min_ratio = math.inf
    max_ratio = -math.inf
    violations = []
    checked = 0
    for expo, coeff in coefficients:
        checked += 1
        min_ratio = min(min_ratio, coeff)
        max_ratio = max(max_ratio, coeff)
        if not lo <= coeff <= hi:
            violations.append(expo)
    return CoefficientReport(
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        band=(lo, hi),
        violations=tuple(violations),
        checked=checked,
    )


def verify_coefficients(
    approx: ApproxSymmetricPoly, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> CoefficientReport:
    """Compare every coefficient against the exact value 1; report the band check.

    The guarantee band is [(1-eps)^r, (1+eps)^r]; a monomial lands in the
    violations list when its coefficient leaves the band.
    """
    return _band_report(approx_coefficients(approx, budget=budget), approx.r, approx.epsilon)


def expected_h_coefficient(kappa: float, exponents: Sequence[int]) -> float:
    """Analytic mean of a complete-kind coefficient: prod of truncated moments
    over factorials, one factor per variable with positive exponent."""
    value = 1.0
    for a in exponents:
        if a:
            value *= truncated_moment(kappa, a) / factorial(a)
    return value
