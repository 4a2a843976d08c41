import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import weighted_count_bruteforce
from tablecount.errors import (
    EnumerationBudgetError,
    TermBudgetError,
    ValidationError,
)
import tablecount.counting as counting
from tablecount.counting import (
    Margins,
    WeightMatrix,
    exact_count_01,
    exact_count_dp,
    iter_tables,
    lowrank_01_count,
    lowrank_asymptotic_count,
    lowrank_column_sets_count,
    lowrank_weighted_count,
)
from tablecount.lowrank import build_e_tilde, build_h_tilde
from tablecount.polynomial import bounded_compositions
from tablecount.rng import derive_seed


SMALL_MARGINS = [
    ((1, 1), (1, 1)),
    ((2, 2), (2, 2)),
    ((2, 1), (1, 1, 1)),
    ((3, 2), (2, 2, 1)),
    ((2, 2, 2), (3, 2, 1)),
]


@pytest.mark.parametrize("rows,cols", SMALL_MARGINS)
def test_exact_surrogate_reproduces_exact_count(rows, cols):
    m = Margins(rows, cols)
    res = lowrank_asymptotic_count(m, epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == exact_count_dp(m)
    assert isinstance(res.value, Fraction) or float(res.value).is_integer()


def _complete_coefficient(approx, a, wrow):
    """[x^a] of scale * sum_s (sum_j w_j g_sj x_j)^r, straight from the forms."""
    multinomial = math.factorial(approx.r) / math.prod(math.factorial(e) for e in a)
    return approx.scale * multinomial * sum(
        math.prod((w * g) ** e for w, g, e in zip(wrow, form.tolist(), a)) for form in approx.forms
    )


def _elementary_coefficient(approx, a):
    """[x^a] of scale * sum over groups of the product of their 0/1 forms: scale
    times the number of stored surjections that are bijective on the support of a."""
    if max(a) > 1:
        return 0.0
    bijective = sum(
        all(sum(e for block, e in zip(assignment.tolist(), a) if block == b) == 1 for b in range(approx.r))
        for assignment in approx.forms
    )
    return approx.scale * bijective


@pytest.mark.parametrize("case", ["h", "e", "weighted", "colsets"])
def test_box_dp_matches_sum_over_tables(case):
    # the box dynamic program against an independent sum over every table of
    # the product of per-row coefficients, computed from the same drawn forms
    rows, cols, eps, seed, forms = (2, 2, 1), (2, 2, 1), 0.3, 11, 5
    weights = [[1, 2, 0.5], [2, 4, 1], [0.5, 1, 3]]
    family = [sorted(set(rows)).index(r) for r in rows]
    wrows = [(1, 1, 1)] * len(rows)
    col_vectors = [cols]
    build = build_h_tilde
    per_vector = math.prod(math.comb(forms + rows.count(r) - 1, rows.count(r)) for r in set(rows))
    if case == "h":
        res = lowrank_asymptotic_count(Margins(rows, cols), eps, seed, form_count=forms)
    elif case == "e":
        res = lowrank_01_count(Margins(rows, cols), eps, seed, form_count=forms)
        build = build_e_tilde
    elif case == "weighted":
        res = lowrank_weighted_count(
            Margins(rows, cols), WeightMatrix(weights), eps, seed, form_count=forms
        )
        family, wrows, per_vector = range(len(rows)), weights, forms ** len(rows)
    else:
        sets = [(1, 2), (1, 2, 3), (1, 2)]
        res = lowrank_column_sets_count(rows, sets, eps, seed, form_count=forms)
        col_vectors = [v for v in itertools.product(*sets) if sum(v) == sum(rows)]
    approxes = [
        build(r, len(cols), eps, derive_seed(seed, k), form_count=forms)
        for r, k in zip(rows, family)
    ]

    def coefficient(i, a):
        if case == "e":
            return _elementary_coefficient(approxes[i], a)
        return _complete_coefficient(approxes[i], a, wrows[i])

    expected = sum(
        math.prod(coefficient(i, a) for i, a in enumerate(table))
        for vector in col_vectors
        for table in iter_tables(Margins(rows, vector))
    )
    assert expected > 0
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.term_count == per_vector * len(col_vectors)


def test_sampled_value_lands_in_guarantee_band_often():
    m = Margins([2, 2], [2, 2])
    lo, hi = (1 - 0.25) ** 4, (1 + 0.25) ** 4
    hits = 0
    for seed in range(10):
        res = lowrank_asymptotic_count(m, epsilon=0.25, seed=seed)
        assert res.guarantee_factor == (lo, hi)
        if lo <= res.value / 3 <= hi:
            hits += 1
    assert hits >= 7


FORM_COUNT_CALLS = {
    "complete": lambda fc: lowrank_asymptotic_count(Margins([2, 2], [2, 2]), 0.2, 0, form_count=fc),
    "elementary": lambda fc: lowrank_01_count(Margins([2, 2], [2, 2]), 0.2, 0, form_count=fc),
    "elementary-infeasible": lambda fc: lowrank_01_count(Margins([3, 1], [2, 2]), 0.2, 0, form_count=fc),
    "column-sets": lambda fc: lowrank_column_sets_count([2, 2], [[2], [2]], 0.2, 0, form_count=fc),
    "weighted": lambda fc: lowrank_weighted_count(
        Margins([2, 2], [2, 2]), WeightMatrix([[1, 1], [1, 1]]), 0.2, 0, form_count=fc
    ),
}


@pytest.mark.parametrize("form_count", [0, -1])
@pytest.mark.parametrize("call", FORM_COUNT_CALLS.values(), ids=list(FORM_COUNT_CALLS))
def test_form_count_below_one_rejected(call, form_count):
    with pytest.raises(ValidationError, match="form count must be positive"):
        call(form_count)


def test_repeats_take_median():
    m = Margins([2, 2], [2, 2])
    singles = [
        lowrank_asymptotic_count(m, epsilon=0.25, seed=40, repeats=1).value,
        lowrank_asymptotic_count(m, epsilon=0.25, seed=41, repeats=1).value,
    ]
    rep = lowrank_asymptotic_count(m, epsilon=0.25, seed=40, repeats=3, form_count=8)
    assert rep.repeats == 3
    assert min(singles) != max(singles)  # seeds actually vary the value


def test_form_counts_recorded():
    m = Margins([2, 1], [2, 1])
    res = lowrank_asymptotic_count(m, epsilon=0.3, seed=1, form_count=5)
    assert res.form_counts == (5, 5)  # one family per distinct row value
    assert res.term_count > 0


def test_term_cap_enforced(monkeypatch):
    # one family of 5000 forms taken twice: C(5001, 2) form multisets
    def no_draws(*args, **kwargs):
        raise AssertionError("forms drawn before the term cap was checked")

    monkeypatch.setattr(counting, "build_h_tilde", no_draws)
    m = Margins([2, 2], [2, 2])
    with pytest.raises(TermBudgetError, match="pairing needs 12502500 terms, cap is 10000000"):
        lowrank_asymptotic_count(m, epsilon=0.25, seed=0, form_count=5000)


def test_box_dp_node_budget_fails_fast():
    # 92378 monomials per row: the second row step would need 92378^2 transitions
    m = Margins([10] * 10, [10] * 10)
    with pytest.raises(EnumerationBudgetError):
        lowrank_asymptotic_count(m, epsilon=0.2, seed=0, exact_surrogate=True)


def test_box_dp_budget_checked_before_tables(monkeypatch):
    # 364 monomials per row over twelve rows: about 2.0e9 box steps
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built before the step budget was checked")

    monkeypatch.setattr(counting, "build_h_tilde", no_tables)
    monkeypatch.setattr(counting, "_series", no_tables)
    m = Margins([3] * 12, [3] * 12)
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError):
        lowrank_asymptotic_count(m, epsilon=0.2, seed=0, exact_surrogate=True)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kind, r, box, wrow",
    [("complete", 3, (1, 2, 0, 3), None), ("complete", 3, (1, 2, 0, 3), (0.5, 2, 1, 1.5)),
     ("elementary", 2, (1, 1, 0, 1, 1), None)],
)
def test_family_table_lists_only_the_column_box(kind, r, box, wrow):
    table = list(counting._family_table(kind, r, box, 0.3, 5, 7, wrow))
    assert [a for a, _ in table] == list(bounded_compositions(r, box))
    assert all(coeff > 0 for _, coeff in table)


def test_repeats_charged_to_draw_budget():
    m = Margins([1], [1])
    with pytest.raises(EnumerationBudgetError, match="draw budget"):
        lowrank_asymptotic_count(m, epsilon=0.2, seed=0, repeats=10**9)
    # an exact surrogate computes one repeat, whatever the count
    assert lowrank_asymptotic_count(m, epsilon=0.2, seed=0, repeats=10**9, exact_surrogate=True).value == 1


def test_lowrank_determinism():
    m = Margins([2, 2, 2], [2, 2, 2])
    a = lowrank_asymptotic_count(m, epsilon=0.3, seed=77, form_count=12)
    b = lowrank_asymptotic_count(m, epsilon=0.3, seed=77, form_count=12)
    assert a == b


@pytest.mark.parametrize(
    "rows,cols",
    [((1, 1), (1, 1)), ((2, 2), (2, 2)), ((2, 1), (1, 1, 1)), ((2, 2, 2), (2, 2, 2))],
)
def test_01_exact_surrogate_reproduces_exact_count(rows, cols):
    m = Margins(rows, cols)
    res = lowrank_01_count(m, epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == exact_count_01(m)


def test_01_infeasible_short_circuits():
    m = Margins([3, 1], [2, 2])
    res = lowrank_01_count(m, epsilon=0.3, seed=5)
    assert res.value == 0.0
    assert res.form_counts == ()


def test_01_sampled_near_truth():
    m = Margins([2, 2], [2, 2])
    res = lowrank_01_count(m, epsilon=0.2, seed=3)
    assert 0.4 <= res.value <= 1.8  # exact count is 1


def test_column_sets_exact_surrogate_oracle():
    # row sums (2,2,2), every column sum restricted to {0,1,2}: admissible
    # vectors are all compositions of 6 over three columns with parts <= 2,
    # but only (2,2,2) works, so this equals the plain count 21
    res = lowrank_column_sets_count(
        [2, 2, 2], [[2], [2], [2]], epsilon=0.3, seed=0, exact_surrogate=True
    )
    assert res.value == 21


def test_column_sets_sum_over_vectors():
    # columns may carry 1 or 2 with row sums (2,1): vectors (1,2) and (2,1),
    # two tables each, total 4
    total = sum(
        exact_count_dp(Margins([2, 1], cols)) for cols in [(1, 2), (2, 1)]
    )
    res = lowrank_column_sets_count(
        [2, 1], [[1, 2], [1, 2]], epsilon=0.3, seed=0, exact_surrogate=True
    )
    assert res.value == total == 4


def test_column_sets_singleton_matches_plain_lowrank():
    res_a = lowrank_column_sets_count(
        [2, 2], [[2], [2]], epsilon=0.25, seed=21, form_count=8
    )
    res_b = lowrank_asymptotic_count(
        Margins([2, 2], [2, 2]), epsilon=0.25, seed=21, form_count=8
    )
    assert res_a.value == pytest.approx(res_b.value, rel=1e-9)


def test_column_sets_empty_when_no_vector_fits():
    res = lowrank_column_sets_count(
        [2, 2], [[1], [1]], epsilon=0.3, seed=0, exact_surrogate=True
    )
    assert res.value == 0


def test_column_sets_rejects_negative():
    with pytest.raises(ValidationError):
        lowrank_column_sets_count([2], [[-1, 2]], epsilon=0.3, seed=0)
    with pytest.raises(ValidationError):
        lowrank_column_sets_count([2.5, 1], [[1, 2], [1, 2]], epsilon=0.3, seed=0)
    with pytest.raises(ValidationError):
        lowrank_column_sets_count([2, 1], [[1, 2], [1.5, 2]], epsilon=0.3, seed=0)


def test_weighted_exact_surrogate_matches_bruteforce():
    m = Margins([2, 1], [1, 1, 1])
    w = WeightMatrix([[1, 2, 1], [Fraction(1, 2), 1, 1]])
    target = weighted_count_bruteforce(m, w, include_factorials=False)
    res = lowrank_weighted_count(m, w, epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == target


def test_weighted_unit_weights_equal_plain_count():
    m = Margins([2, 2], [2, 2])
    w = WeightMatrix([[1, 1], [1, 1]])
    res = lowrank_weighted_count(m, w, epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == 3


@pytest.mark.parametrize("r,box,wrow", [(2, (2, 2, 2), (0.5, 3.0, 1.25)), (3, (3, 1), (2.0, 0.0))])
def test_weighted_family_table_scales_unweighted_table(r, box, wrow):
    # the weighted family scales the same forms column by column, so each
    # coefficient of x^a gains exactly the factor prod_j w_j^a_j
    plain = counting._family_table("complete", r, box, 0.3, 11, 20, None)
    weighted = counting._family_table("complete", r, box, 0.3, 11, 20, wrow)
    assert [a for a, _ in weighted] == [a for a, _ in plain]
    for (a, coeff), (_, base) in zip(weighted, plain):
        assert coeff == pytest.approx(base * math.prod(w**e for w, e in zip(wrow, a)), rel=1e-12)


def test_weighted_full_rank_exact_surrogate_matches_bruteforce():
    m = Margins([2, 2, 2, 2, 2], [2, 2, 2, 2, 2])
    w = WeightMatrix([[1 + (i * j) % 3 + 5 * (i == j) for j in range(5)] for i in range(5)])
    assert np.linalg.matrix_rank(w.to_numpy()) == 5
    target = weighted_count_bruteforce(m, w, include_factorials=False)
    res = lowrank_weighted_count(m, w, epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == target


def test_weighted_sampled_near_target():
    m = Margins([2, 2], [2, 2])
    w = WeightMatrix([[1, 2], [2, 4]])  # rank 1
    target = float(weighted_count_bruteforce(m, w, include_factorials=False))
    res = lowrank_weighted_count(m, w, epsilon=0.2, seed=8)
    lo, hi = res.guarantee_factor
    assert 0.5 * lo * target <= res.value <= 2.0 * hi * target


def test_epsilon_validation():
    m = Margins([1, 1], [1, 1])
    for fn in (lowrank_asymptotic_count, lowrank_01_count):
        with pytest.raises(ValidationError):
            fn(m, epsilon=0.0, seed=0)
        with pytest.raises(ValidationError):
            fn(m, epsilon=1.0, seed=0)


def test_single_column_margins():
    m = Margins([1, 1], [2])
    for fn in (lowrank_asymptotic_count, lowrank_01_count):
        assert fn(m, epsilon=0.3, seed=0, exact_surrogate=True).value == 1
        assert fn(m, epsilon=0.3, seed=0).value > 0
    res = lowrank_column_sets_count([2], [[2]], epsilon=0.3, seed=0, exact_surrogate=True)
    assert res.value == 1
    assert lowrank_column_sets_count([2], [[2]], epsilon=0.3, seed=0).value > 0
