import itertools
import random
import time
from fractions import Fraction

import pytest

from tablecount.errors import DimensionMismatchError, TermBudgetError
from tablecount.polynomial import (
    LinearForm,
    SparsePolynomial,
    bounded_compositions,
    monomial_weight,
    poly_mul,
    poly_to_text,
    product_of_forms,
    scalar_product,
)


def P(num_vars, terms):
    return SparsePolynomial(num_vars, terms)


def test_monomial_weight_values():
    assert monomial_weight((0, 0, 0)) == 1
    assert monomial_weight((2, 1)) == 2
    assert monomial_weight((3, 2, 1)) == 12


def _compositions_reference(total, bounds):
    return sorted(
        (v for v in itertools.product(*(range(b + 1) for b in bounds)) if sum(v) == total),
        reverse=True,
    )


def test_bounded_compositions_match_product_reference():
    rng = random.Random(20)
    cases = [(0, ()), (1, ()), (-1, ()), (0, (0, 0)), (2, (0, 3, 0)), (-1, (2, 2)), (5, (1, 1)),
             (2, (-1, 2, 2)), (1, (2, -1)), (20, (2,) * 10)]
    for _ in range(300):
        bounds = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(rng.randint(0, 6)))
        cases.append((rng.randint(-2, sum(bounds) + 2), bounds))
    for total, bounds in cases:
        # same vectors, same descending lexicographic order
        assert list(bounded_compositions(total, bounds)) == _compositions_reference(total, bounds), (
            total, bounds)


def test_bounded_compositions_is_lazy():
    # about 10^13 vectors: only a generator that lists none up front returns at once
    began = time.perf_counter()
    first = next(bounded_compositions(60, (60,) * 12))
    assert time.perf_counter() - began < 0.5
    assert first == (60,) + (0,) * 11


def test_scalar_product_same_monomial():
    f = P(1, {(2,): 1})
    assert scalar_product(f, f) == 2


def test_scalar_product_distinct_monomials_vanish():
    f = P(2, {(1, 1): 1})
    g = P(2, {(2, 0): 1})
    assert scalar_product(f, g) == 0


def test_scalar_product_picks_shared_terms():
    f = P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    g = P(2, {(1, 1): 1})
    assert scalar_product(f, g) == 2


def test_scalar_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        scalar_product(P(2, {(1, 0): 1}), P(3, {(1, 0, 0): 1}))


def test_scalar_product_bilinear_exact():
    f = P(2, {(2, 0): Fraction(1, 3), (1, 1): 2})
    h = P(2, {(1, 1): Fraction(-1, 2), (0, 2): 5})
    g = P(2, {(2, 0): 7, (1, 1): Fraction(2, 7), (0, 2): 1})
    a, b = Fraction(3, 4), Fraction(-5, 2)
    lhs = scalar_product(f.scale(a).add(h.scale(b)), g)
    rhs = a * scalar_product(f, g) + b * scalar_product(h, g)
    assert lhs == rhs


def test_degree_orthogonality():
    f = P(2, {(2, 1): 3, (1, 2): 4})
    g = P(2, {(1, 1): 5, (2, 0): 1})
    assert scalar_product(f, g) == 0


def test_poly_mul_difference_of_squares():
    s = P(2, {(1, 0): 1, (0, 1): 1})
    d = P(2, {(1, 0): 1, (0, 1): -1})
    assert poly_mul(s, d) == P(2, {(2, 0): 1, (0, 2): -1})


def test_poly_mul_identity():
    f = P(2, {(2, 0): 3, (1, 1): Fraction(1, 2)})
    one = P(2, {(0, 0): 1})
    assert poly_mul(f, one) == f


def test_poly_mul_binomial_square():
    s = P(2, {(1, 0): 1, (0, 1): 1})
    assert poly_mul(s, s) == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_poly_mul_term_cap():
    f = P(1, {(i,): 1 for i in range(40)})
    with pytest.raises(TermBudgetError):
        poly_mul(f, f, term_cap=100)


def test_expand_form_power_binomial():
    got = product_of_forms([LinearForm([1, 1])] * 2)
    assert got == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_expand_form_power_single_variable():
    c = Fraction(2, 3)
    got = product_of_forms([LinearForm([c])] * 3)
    assert got == P(1, {(3,): c**3})


def test_expand_form_power_degree_one():
    got = product_of_forms([LinearForm([1, 1, 1])] * 1)
    assert got == P(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


def test_pairing_invariant_under_variable_permutation():
    f_forms = [LinearForm([1, 2, 3]), LinearForm([0, 1, 1])]
    g_forms = [LinearForm([2, 0, 1]), LinearForm([1, 1, 1])]
    before = scalar_product(product_of_forms(f_forms), product_of_forms(g_forms))
    perm = (2, 0, 1)

    def permute(form):
        return LinearForm([form.coeffs[perm[i]] for i in range(3)])

    after = scalar_product(
        product_of_forms([permute(f) for f in f_forms]),
        product_of_forms([permute(g) for g in g_forms]),
    )
    assert before == after


def test_serialization_round_trip():
    f = P(3, {(2, 0, 0): Fraction(1, 3), (1, 1, 0): -2, (0, 0, 2): 0.5})
    assert poly_to_text(f) == "1/3 2 0 0\n-2 1 1 0\n0.5 0 0 2"


def test_serialization_is_graded_lex():
    f = P(2, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (1, 0): 4})
    lines = poly_to_text(f).splitlines()
    assert lines == ["4 1 0", "1 2 0", "1 1 1", "1 0 2"]
