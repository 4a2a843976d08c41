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
from typing import List, Sequence, Tuple

import numpy as np

from .errors import SurjectionSamplingError, ValidationError
from .polynomial import (
    DEFAULT_ENUMERATION_BUDGET,
    LinearForm,
    SparsePolynomial,
    expand_form_power,
    factorial,
    monomials,
    product_of_forms,
)
from .rng import SplitMix64Stream, derive_seed, derive_seed_block, truncated_exponential_matrix


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
        if truncation_tail(self.kappa, self.r) > self.delta * (1 + 1e-9) + 1e-12:
            raise ValidationError(
                f"kappa={self.kappa} does not certify delta={self.delta} at degree {self.r}"
            )


def solve_threshold(r: int, delta: float, resolution: float = 1e-6) -> TruncationSpec:
    """Smallest kappa (to the given resolution) whose tail at degree r is <= delta.

    The tail is strictly decreasing in kappa, so plain bisection applies.
    """
    if r < 0:
        raise ValidationError("r must be non-negative")
    if not 0 < delta < 1:
        raise ValidationError("delta must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while truncation_tail(hi, r) > delta:
        hi *= 2.0
    while hi - lo > resolution:
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


@dataclass(frozen=True)
class ApproxSymmetricPoly:
    """A scaled family of linear forms standing in for h_r or e_r.

    kind="complete": the polynomial is scale * sum_i forms[i]^r.
    kind="elementary": forms is a list of groups of r disjoint-support 0/1
    forms; the polynomial is scale * sum_i prod(group_i).
    """

    kind: str
    r: int
    num_vars: int
    epsilon: float
    seed: int
    scale: float
    forms: tuple

    def __post_init__(self):
        if self.kind not in ("complete", "elementary"):
            raise ValidationError(f"unknown kind {self.kind!r}")

    @property
    def form_count(self) -> int:
        return len(self.forms)

    def expand(self, term_cap: int = 10**7) -> SparsePolynomial:
        """Materialize the represented polynomial (small form counts only)."""
        acc = SparsePolynomial.zero(self.num_vars)
        if self.kind == "complete":
            for form in self.forms:
                acc = acc.add(expand_form_power(form, self.r, term_cap=term_cap))
        else:
            for group in self.forms:
                acc = acc.add(product_of_forms(group, term_cap=term_cap))
        return acc.scale(self.scale)

    def to_json(self) -> str:
        if self.kind == "complete":
            serial = [list(map(float, f.coeffs)) for f in self.forms]
        else:
            serial = [[list(map(float, f.coeffs)) for f in group] for group in self.forms]
        return json.dumps(
            {
                "kind": self.kind,
                "r": self.r,
                "n": self.num_vars,
                "epsilon": self.epsilon,
                "seed": self.seed,
                "scale": self.scale,
                "forms": serial,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ApproxSymmetricPoly":
        data = json.loads(text)
        if data["kind"] == "complete":
            forms = tuple(LinearForm(c) for c in data["forms"])
        else:
            forms = tuple(tuple(LinearForm(c) for c in group) for group in data["forms"])
        return cls(
            kind=data["kind"],
            r=data["r"],
            num_vars=data["n"],
            epsilon=data["epsilon"],
            seed=data["seed"],
            scale=data["scale"],
            forms=forms,
        )


def form_coefficient_matrix(approx: ApproxSymmetricPoly) -> np.ndarray:
    """(form_count, n) float matrix of coefficients, complete kind only."""
    if approx.kind != "complete":
        raise ValidationError("coefficient matrix applies to the complete kind")
    return np.array([f.coeffs for f in approx.forms], dtype=np.float64)


def assignment_matrix(approx: ApproxSymmetricPoly) -> np.ndarray:
    """(group_count, n) int matrix: entry (i, j) is the block of variable j
    in group i; elementary kind only."""
    if approx.kind != "elementary":
        raise ValidationError("assignment matrix applies to the elementary kind")
    out = np.empty((len(approx.forms), approx.num_vars), dtype=np.int64)
    for i, group in enumerate(approx.forms):
        block = np.array([f.coeffs for f in group], dtype=np.int64)
        out[i] = np.argmax(block, axis=0)
    return out


def build_h_tilde(
    r: int, n: int, epsilon: float, seed: int, form_count: int | None = None
) -> ApproxSymmetricPoly:
    """Average of r-th powers of truncated-exponential forms, scaled by 1/(r! m).

    Form i's coefficients are the first n truncated draws of the child stream
    derive_seed(seed, i), so the family is reproducible and the rows can be
    generated in any order or in parallel.
    """
    if r < 1:
        raise ValidationError("r must be at least 1")
    if n < 1:
        raise ValidationError("n must be at least 1")
    m = choose_sample_count(r, epsilon, n) if form_count is None else int(form_count)
    if m < 1:
        raise ValidationError("form count must be positive")
    delta = 1.0 - math.sqrt(1.0 - epsilon)
    spec = solve_threshold(r, delta)
    seeds = derive_seed_block(seed, m)
    gamma = truncated_exponential_matrix(seeds, n, spec.kappa)
    forms = tuple(LinearForm([float(v) for v in row]) for row in gamma)
    scale = 1.0 / (factorial(r) * m)
    return ApproxSymmetricPoly(
        kind="complete", r=r, num_vars=n, epsilon=epsilon, seed=seed, scale=scale, forms=forms
    )


def sample_surjection(n: int, r: int, stream: SplitMix64Stream, retry_limit: int) -> np.ndarray:
    """One uniform surjection {0..n-1} -> {0..r-1} by rejection."""
    for _ in range(retry_limit):
        assignment = stream.integers(n, r)
        if len(np.unique(assignment)) == r:
            return assignment
    raise SurjectionSamplingError(
        f"no surjection onto {r} blocks within {retry_limit} attempts"
    )


def build_e_tilde(
    r: int, n: int, epsilon: float, seed: int, form_count: int | None = None
) -> ApproxSymmetricPoly:
    """Average of surjection products, scaled so square-free coefficients have mean 1.

    Each group is the r forms x_{omega^{-1}(1)}, ..., x_{omega^{-1}(r)} of one
    uniform random surjection omega; the scale is 1/(beta * m) with beta the
    bijective-restriction probability.
    """
    if not 1 <= r <= n:
        raise ValidationError("need 1 <= r <= n")
    m = choose_elementary_sample_count(r, epsilon, n) if form_count is None else int(form_count)
    if m < 1:
        raise ValidationError("form count must be positive")
    expected_attempts = r**n / surjection_count(n, r)
    retry_limit = math.ceil(50 * expected_attempts)
    groups: List[Tuple[LinearForm, ...]] = []
    for i in range(m):
        stream = SplitMix64Stream(derive_seed(seed, i))
        assignment = sample_surjection(n, r, stream, retry_limit)
        group = []
        for block in range(r):
            coeffs = [1.0 if assignment[j] == block else 0.0 for j in range(n)]
            group.append(LinearForm(coeffs))
        groups.append(tuple(group))
    scale = float(1 / (elementary_scale_denominator(n, r) * m))
    return ApproxSymmetricPoly(
        kind="elementary", r=r, num_vars=n, epsilon=epsilon, seed=seed, scale=scale, forms=tuple(groups)
    )


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
    approx: ApproxSymmetricPoly, budget: int = DEFAULT_ENUMERATION_BUDGET
):
    """Yield (exponent vector, coefficient) for every target monomial.

    Complete kind: all degree-r monomials, coefficient computed vectorized
    across forms.  Elementary kind: all square-free degree-r monomials via
    bijectivity counts of the stored surjections.
    """
    n, r = approx.num_vars, approx.r
    if approx.kind == "complete":
        expos = monomials(r, (r,) * n, budget)
        gamma = form_coefficient_matrix(approx)
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
        expos = monomials(r, (1,) * n, budget)
        assignments = assignment_matrix(approx)
        target = np.arange(r)
        for expo in expos:
            combo = [j for j, a in enumerate(expo) if a]
            hits = np.sort(assignments[:, combo], axis=1)
            count = int(np.sum(np.all(hits == target, axis=1)))
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
