import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from tablecount.errors import EnumerationBudgetError, ValidationError
from tablecount.lowrank import (
    ApproxSymmetricPoly,
    TruncationSpec,
    build_e_tilde,
    build_h_tilde,
    choose_elementary_sample_count,
    choose_sample_count,
    _band_report,
    elementary_scale_denominator,
    expected_h_coefficient,
    approx_coefficients,
    solve_threshold,
    surjection_count,
    truncated_moment,
    truncation_tail,
    verify_coefficients,
)
from tablecount.polynomial import bounded_compositions
from tablecount.rng import DRAW_BUDGET, SplitMix64Stream, derive_seed, truncated_exponential_matrix


def _one_seed_row(seed, count, kappa):
    """The first count truncated draws of the stream seeded by seed."""
    return truncated_exponential_matrix(np.array([seed], dtype=np.uint64), count, kappa)[0]


def test_solve_threshold_degree_zero_is_ln2():
    spec = solve_threshold(0, 0.5)
    assert spec.kappa == pytest.approx(math.log(2), abs=1e-5)


def test_solve_threshold_r2_delta01():
    spec = solve_threshold(2, 0.1)
    assert spec.kappa == pytest.approx(5.3223, abs=1e-3)
    assert truncation_tail(spec.kappa, 2) <= 0.1


def test_solve_threshold_monotone_in_r():
    assert solve_threshold(3, 0.1).kappa > solve_threshold(2, 0.1).kappa


def test_solve_threshold_growth():
    # threshold grows like r log r + log(1/delta), with room to spare
    for r in range(8):
        for delta in (0.5, 0.1, 0.01):
            kappa = solve_threshold(r, delta).kappa
            assert kappa <= 2 * (r * math.log(max(r, 2)) + math.log(1 / delta)) + 5


def test_truncation_spec_rejects_bad_kappa():
    with pytest.raises(ValidationError):
        TruncationSpec(r=2, delta=0.1, kappa=1.0)


def test_truncation_spec_rejects_nan_tail():
    # past kappa ~ 709 the tail is exp(-kappa) * total = 0 * inf = nan
    assert math.isnan(truncation_tail(745.1332197189331, 800))
    with pytest.raises(ValidationError):
        TruncationSpec(r=800, delta=0.1, kappa=745.1332197189331)
    with pytest.raises(ValidationError):
        solve_threshold(800, 0.1)


def test_truncated_moment_matches_numeric_integration():
    kappa = 2.5
    for alpha in range(5):
        oracle, _ = quad(lambda t: t**alpha * math.exp(-t), 0.0, kappa)
        assert truncated_moment(kappa, alpha) == pytest.approx(oracle, rel=1e-10)


def test_truncated_draws_bounded_and_moments():
    spec = solve_threshold(2, 0.1)
    single = _one_seed_row(17, 1, spec.kappa)[0]
    assert 0.0 <= single <= spec.kappa

    draws = _one_seed_row(18, 10**6, spec.kappa)
    assert draws.max() <= spec.kappa
    for alpha in (1, 2):
        emp = np.mean(draws**alpha)
        sigma = np.std(draws**alpha) / math.sqrt(len(draws))
        lo = 0.9 * math.factorial(alpha) - 3 * sigma
        hi = 1.0 * math.factorial(alpha) + 3 * sigma
        assert lo <= emp <= hi
        assert emp == pytest.approx(truncated_moment(spec.kappa, alpha), abs=4 * sigma)


def test_choose_sample_count_r1_finite():
    m = choose_sample_count(1, 0.5, 10)
    assert m > 0


def test_choose_sample_count_regression_fixture():
    assert choose_sample_count(2, 0.25, 10) == 189071


def test_choose_sample_count_log_growth():
    small = choose_sample_count(2, 0.25, 10)
    big = choose_sample_count(2, 0.25, 1000)
    log_ratio = math.log(6 * math.comb(1001, 2)) / math.log(6 * math.comb(11, 2))
    assert big / small <= log_ratio + 0.01


def test_build_h_tilde_reproducible_and_bounded():
    a = build_h_tilde(2, 4, 0.3, seed=5, form_count=50)
    b = build_h_tilde(2, 4, 0.3, seed=5, form_count=50)
    assert np.array_equal(a.forms, b.forms)
    c = build_h_tilde(2, 4, 0.3, seed=6, form_count=50)
    assert not np.array_equal(a.forms, c.forms)

    delta = 1.0 - math.sqrt(1.0 - 0.3)
    kappa = solve_threshold(2, delta).kappa
    for form in a.forms:
        assert all(0.0 <= v <= kappa for v in form)


def test_build_h_tilde_default_form_count_is_formula_value():
    approx = build_h_tilde(1, 3, 0.5, seed=1)
    assert approx.form_count == choose_sample_count(1, 0.5, 3)


def test_h_tilde_linear_coefficient_is_mean_of_first_draws():
    approx = build_h_tilde(1, 2, 0.4, seed=9, form_count=40)
    gamma = approx.forms
    expanded = approx.expand()
    assert expanded.coefficient((1, 0)) == pytest.approx(gamma[:, 0].mean())
    assert expanded.coefficient((0, 1)) == pytest.approx(gamma[:, 1].mean())


def test_approx_coefficients_match_expansion():
    approx = build_h_tilde(3, 4, 0.3, seed=11, form_count=25)
    expanded = approx.expand()
    for expo, coeff in approx_coefficients(approx):
        assert coeff == pytest.approx(float(expanded.coefficient(expo)), rel=1e-9, abs=1e-12)


def test_expected_h_coefficient_band():
    epsilon = 0.3
    delta = 1.0 - math.sqrt(1.0 - epsilon)
    kappa = solve_threshold(2, delta).kappa
    for expo in [(2, 0, 0), (1, 1, 0)]:
        mean = expected_h_coefficient(kappa, expo)
        assert (1 - delta) ** 2 <= mean <= 1.0


def test_h_tilde_coefficient_symmetry_across_seeds():
    # distribution of a coefficient should not depend on which variables it names
    vals_a, vals_b = [], []
    for seed in range(1000):
        approx = build_h_tilde(2, 3, 0.3, seed=seed, form_count=8)
        gamma = approx.forms
        # coefficient of x1 x2 and of x2 x3, straight from the coefficient matrix
        vals_a.append(np.mean(gamma[:, 0] * gamma[:, 1]))
        vals_b.append(np.mean(gamma[:, 1] * gamma[:, 2]))
    diff = np.array(vals_a) - np.array(vals_b)
    assert abs(diff.mean()) <= 3 * diff.std() / math.sqrt(len(diff))


def test_surjection_count_small():
    assert surjection_count(4, 2) == 14
    assert surjection_count(3, 3) == 6
    assert surjection_count(2, 3) == 0


def test_elementary_scale_denominator():
    assert elementary_scale_denominator(4, 2) == Fraction(4, 7)


def test_build_e_tilde_rejects_r_above_n():
    with pytest.raises(ValidationError):
        build_e_tilde(3, 2, 0.3, seed=0)


@pytest.mark.parametrize("build", [build_h_tilde, build_e_tilde])
def test_family_past_draw_budget_fails_before_drawing(build):
    # forms times variables is checked before the seed block is allocated
    with pytest.raises(EnumerationBudgetError) as info:
        build(2, 10, 0.3, seed=0, form_count=DRAW_BUDGET // 10 + 1)
    assert info.value.limit == DRAW_BUDGET


def test_build_e_tilde_groups_partition_variables():
    approx = build_e_tilde(2, 5, 0.3, seed=3, form_count=20)
    for assignment in approx.forms:
        support = (assignment == np.arange(2)[:, None]).astype(float)
        assert np.array_equal(support.sum(axis=0), np.ones(5))
        assert all(row.sum() >= 1 for row in support)


def test_build_e_tilde_r_equals_n_is_exact():
    approx = build_e_tilde(4, 4, 0.3, seed=2, form_count=7)
    expanded = approx.expand()
    # e_4 in four variables is the single monomial x1 x2 x3 x4
    assert list(expanded.terms) == [(1, 1, 1, 1)]
    assert float(expanded.coefficient((1, 1, 1, 1))) == pytest.approx(1.0)
    report = verify_coefficients(approx)
    assert report.min_ratio == pytest.approx(1.0)
    assert report.max_ratio == pytest.approx(1.0)
    assert report.ok


def test_e_tilde_unscaled_coefficients_are_indicator_averages():
    approx = build_e_tilde(2, 5, 0.3, seed=8, form_count=13)
    beta = float(elementary_scale_denominator(5, 2))
    for _, coeff in approx_coefficients(approx):
        hits = coeff * beta * approx.form_count  # back to a raw indicator count
        assert hits == pytest.approx(round(hits), abs=1e-9)
        assert 0 <= round(hits) <= approx.form_count


def test_verify_exact_h_is_all_ones():
    report = _band_report(((a, 1.0) for a in bounded_compositions(2, (2,) * 10)), 2, 0.3)
    assert report.min_ratio == 1.0
    assert report.max_ratio == 1.0
    assert report.ok
    assert report.checked == math.comb(11, 2)


def test_verify_coefficients_reports_band():
    approx = build_h_tilde(2, 6, 0.3, seed=4, form_count=500)
    report = verify_coefficients(approx)
    assert report.band == ((0.7) ** 2, (1.3) ** 2)
    assert report.checked == math.comb(7, 2)
    assert report.min_ratio <= report.max_ratio


def test_verify_coefficients_budget():
    approx = build_h_tilde(2, 30, 0.3, seed=4, form_count=5)
    with pytest.raises(EnumerationBudgetError):
        verify_coefficients(approx, budget=10)


@pytest.mark.parametrize("build,r,n,targets", [(build_h_tilde, 3, 6, math.comb(8, 3)),
                                               (build_e_tilde, 3, 8, math.comb(8, 3))])
def test_verify_coefficients_budget_is_the_target_count(build, r, n, targets):
    # C(n+r-1, r) complete or C(n, r) square-free monomials: a budget of exactly that lists them all
    approx = build(r, n, 0.3, seed=4, form_count=20)
    assert verify_coefficients(approx, budget=targets).checked == targets
    with pytest.raises(EnumerationBudgetError, match=f"degree-{r} monomials exceed budget {targets - 1}"):
        verify_coefficients(approx, budget=targets - 1)


def test_elementary_sample_count_positive():
    assert choose_elementary_sample_count(2, 0.3, 10) > 0


def test_form_count_never_exceeds_formula():
    approx = build_h_tilde(2, 8, 0.4, seed=0)
    assert approx.form_count <= choose_sample_count(2, 0.4, 8)


# SHA-256 of to_json() for families drawn before forms became arrays
JSON_DIGESTS = [
    ("complete", 3, 6, 0.25, 17, 50, "0b7f37e675d7ddbd2dfc99a27dd6ea0d772ef289b6a23fb7abfad1112eede241"),
    ("complete", 2, 4, 0.5, 3, None, "0650c63b25f25bdbc0c86f066082104b8be3e37c53467e5d704e1c3e2e18d794"),
    ("complete", 1, 1, 0.2, 5, 7, "0f668d1960e8e4773f8fef7ba4f4424138830af56392b8f3f0a88b88ce85ca1b"),
    ("complete", 4, 5, 0.3, 2**64 + 9, 40, "426268ff769e7628319fb150274cf808bd4d80fb579c049b5aac998569fb19a6"),
    ("elementary", 2, 6, 0.25, 17, 50, "77ae11b46e5e41be4fda274ba5b74fbac48aceb34ee06b54ac817775897f9a1f"),
    ("elementary", 5, 7, 0.3, 11, 60, "b76da7696f26a306b1005b593611910ae54e79429c8dc7adc79895523e0848f3"),
    ("elementary", 1, 1, 0.2, 5, 3, "7b53df415884ee65aa6f7788c7ae806533cccb56043125df74f14e861bac9822"),
    ("elementary", 3, 8, 0.3, 4, None, "1cf672d8c0015a33d8af4aa6444eebb610e7c93c65197fe121728983ce1ba746"),
]


@pytest.mark.parametrize("kind,r,n,epsilon,seed,forms,digest", JSON_DIGESTS)
def test_to_json_matches_recorded_digest(kind, r, n, epsilon, seed, forms, digest):
    build = build_h_tilde if kind == "complete" else build_e_tilde
    approx = build(r, n, epsilon, seed, form_count=forms)
    assert hashlib.sha256(approx.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("r,n,seed,forms", [(2, 6, 17, 50), (5, 7, 11, 60), (3, 3, 2, 40), (1, 4, 9, 5)])
def test_e_tilde_assignments_match_per_group_rejection(r, n, seed, forms):
    # (5, 7) and (3, 3) reject most first attempts, so redraws are exercised
    approx = build_e_tilde(r, n, 0.3, seed, form_count=forms)
    expected = []
    for i in range(forms):
        stream = SplitMix64Stream(derive_seed(seed, i))
        assignment = stream.integers(n, r)
        while len(np.unique(assignment)) < r:
            assignment = stream.integers(n, r)
        expected.append(assignment)
    assert approx.forms.dtype == np.int64
    assert np.array_equal(approx.forms, np.array(expected))


def _sorted_block_coefficients(approx):
    """Elementary coefficients one monomial at a time: a surjection hits x_S
    when the sorted blocks of S's variables are 0..r-1."""
    target = np.arange(approx.r)
    for expo in bounded_compositions(approx.r, (1,) * approx.num_vars):
        combo = [j for j, a in enumerate(expo) if a]
        hits = np.sort(approx.forms[:, combo], axis=1)
        yield expo, approx.scale * int(np.sum(np.all(hits == target, axis=1)))


@pytest.mark.parametrize("r,n,seed,forms", [(1, 4, 9, 5), (1, 9, 3, 200), (4, 4, 2, 7), (6, 6, 5, 90),
                                            (5, 7, 11, 60), (3, 3, 2, 40), (3, 8, 1, 3000)])
def test_elementary_coefficients_equal_sorted_block_count(r, n, seed, forms):
    approx = build_e_tilde(r, n, 0.3, seed, form_count=forms)
    assert list(approx_coefficients(approx)) == list(_sorted_block_coefficients(approx))


@pytest.mark.parametrize("r", [64, 65])
def test_elementary_coefficients_past_machine_word(r):
    # block bits of 64 blocks fill a uint64; 65 need Python ints
    rng = np.random.default_rng(r)
    forms = [rng.permutation(r) for _ in range(3)] + [np.zeros(r, dtype=np.int64)]
    approx = ApproxSymmetricPoly("elementary", r, r, 0.3, 0, 0.5, np.array(forms))
    assert list(approx_coefficients(approx)) == [((1,) * r, 1.5)]


def test_elementary_coefficients_memory_is_bounded():
    # unblocked, the (monomials, forms) hit array would be 4368 x 20000 int64, 699 MB
    approx = build_e_tilde(5, 16, 0.3, 3, form_count=20000)
    tracemalloc.start()
    try:
        checked = sum(1 for _ in approx_coefficients(approx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == math.comb(16, 5)
    assert peak < 64 * 2**20


def test_h_tilde_memory_is_bounded():
    # 200000 forms of 10 variables: the forms array is 80 bytes per form, and
    # drawing it in one piece held about 178 bytes per form at the peak
    m, n = 200000, 10
    tracemalloc.start()
    try:
        approx = build_h_tilde(2, n, 0.3, 0, form_count=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * m
    # rows on both sides of a draw-block edge are their own child streams' draws
    kappa = solve_threshold(2, 1.0 - math.sqrt(0.7)).kappa
    for i in (0, 6552, 6553, 6554, m - 1):
        row = _one_seed_row(derive_seed(0, i), n, kappa)
        assert np.array_equal(approx.forms[i], row)


@pytest.mark.parametrize("build,r,n", [(build_h_tilde, 3, 4), (build_h_tilde, 2, 5), (build_e_tilde, 3, 6)])
def test_expand_matches_approx_coefficients(build, r, n):
    approx = build(r, n, 0.3, seed=4, form_count=30)
    expanded = approx.expand()
    coefficients = dict(approx_coefficients(approx))
    assert set(expanded.terms) <= set(coefficients)
    for expo, coeff in coefficients.items():
        assert float(expanded.coefficient(expo)) == pytest.approx(coeff, rel=1e-12, abs=0)


def test_forms_are_read_only_arrays():
    h = build_h_tilde(2, 3, 0.3, seed=1, form_count=4)
    e = build_e_tilde(2, 3, 0.3, seed=1, form_count=4)
    assert h.forms.shape == e.forms.shape == (4, 3)
    assert h.forms.dtype == np.float64 and e.forms.dtype == np.int64
    for approx in (h, e):
        with pytest.raises(ValueError):
            approx.forms[0, 0] = 1
