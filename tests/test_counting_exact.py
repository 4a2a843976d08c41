import functools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from oracles import weighted_count_bruteforce
from tablecount import counting
from tablecount.errors import EnumerationBudgetError, ValidationError
from tablecount.polynomial import AxisRow, box_coefficient, box_work
from tablecount.counting import (
    Margins,
    WeightMatrix,
    bekessy_estimate,
    bekessy_log_estimate,
    exact_count_01,
    exact_count_bruteforce,
    exact_count_dp,
    fisher_yates_count,
    iter_tables,
    margins_from_csv_text,
    margins_from_json_text,
    weighted_fy_count,
    weights_from_csv_text,
    weights_from_json_text,
)


def positive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in positive_compositions(total - head, parts - 1):
            yield (head,) + rest


def test_margins_validation():
    with pytest.raises(ValidationError):
        Margins([2, 1], [1, 1])
    with pytest.raises(ValidationError):
        Margins([2, 0], [1, 1])
    with pytest.raises(ValidationError):
        Margins([], [1])
    m = Margins([2, 2], [1, 1, 2])
    assert m.total == 4
    assert m.rho == 2
    assert m.divisor() == 2 * 2 * 1 * 1 * 2


def test_bruteforce_small_values():
    assert exact_count_bruteforce(Margins([1, 1], [1, 1])) == 2
    assert exact_count_bruteforce(Margins([2, 2], [2, 2])) == 3
    assert exact_count_bruteforce(Margins([2, 2, 2], [2, 2, 2])) == 21


def test_dp_small_values():
    assert exact_count_dp(Margins([1, 1, 1], [1, 1, 1])) == 6
    assert exact_count_dp(Margins([2, 2], [1, 1, 1, 1])) == 6


def test_dp_equals_bruteforce_on_grid():
    # every margin pair with m, n <= 3 and N <= 6 (the wider grid runs in acceptance)
    for total in range(2, 7):
        row_options = [c for parts in range(1, 4) for c in positive_compositions(total, parts)]
        for rows in row_options:
            for cols in row_options:
                m = Margins(rows, cols)
                assert exact_count_dp(m) == exact_count_bruteforce(m)


def test_count_01_small_values():
    assert exact_count_01(Margins([1, 1], [1, 1])) == 2
    assert exact_count_01(Margins([2, 2], [2, 2])) == 1
    assert exact_count_01(Margins([2, 2, 2], [2, 2, 2])) == 6


def test_count_01_against_direct_enumeration():
    for rows, cols in [((2, 1), (1, 1, 1)), ((2, 2), (2, 1, 1)), ((3, 1), (1, 1, 1, 1))]:
        m = Margins(rows, cols)
        direct = 0
        for bits in product((0, 1), repeat=len(rows) * len(cols)):
            grid = [bits[i * len(cols):(i + 1) * len(cols)] for i in range(len(rows))]
            if all(sum(g) == r for g, r in zip(grid, rows)) and all(
                sum(g[j] for g in grid) == c for j, c in enumerate(cols)
            ):
                direct += 1
        assert exact_count_01(m) == direct


def test_count_01_infeasible_is_zero():
    assert exact_count_01(Margins([3, 1], [2, 2])) == 0


def test_iter_tables_yields_each_table_once():
    m = Margins([2, 2], [2, 2])
    tables = list(iter_tables(m))
    assert len(tables) == 3
    assert len(set(tables)) == 3
    for t in tables:
        assert all(sum(row) == 2 for row in t)
        assert all(t[0][j] + t[1][j] == 2 for j in range(2))


def test_enumeration_budget_fires():
    m = Margins([4] * 4, [4] * 4)
    with pytest.raises(EnumerationBudgetError):
        exact_count_bruteforce(m, node_budget=10)


@pytest.mark.parametrize(
    "count, rows, cols, spend",
    [
        (exact_count_dp, (3, 3, 3, 3), (4, 4, 4), 74),
        (exact_count_dp, (10,) * 4, (10,) * 4, 663),
        (exact_count_01, (3,) * 6, (3,) * 6, 240),
        (exact_count_01, (3,) * 7, (3,) * 7, 609),
    ],
)
def test_dp_node_spend_is_pinned(count, rows, cols, spend):
    # one node per composition a line takes, once per memoized state; the two
    # plain counts are cheaper on the dense pass and spend its node-equivalents
    m = Margins(rows, cols)
    value = count(m, node_budget=spend)
    with pytest.raises(EnumerationBudgetError):
        count(m, node_budget=spend - 1)
    assert value == count(m)


def dense_count(box, lines, zero_one):
    rows = [AxisRow(r, 1, (1,) * len(box) if zero_one else tuple(box)) for r in lines]
    return box_coefficient(rows, [frozenset((s,)) for s in box])


def test_dense_pass_equals_the_sorted_dp():
    rng = random.Random(19)
    for _ in range(80):
        rows = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        cols = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        gap = sum(rows) - sum(cols)
        if gap > 0:
            cols[-1] += gap
        else:
            rows[-1] -= gap
        plain = counting._line_count(cols, rows, None, 10**7)
        zero_one = counting._line_count(rows, cols, 1, 10**7)
        for box, lines in ((rows, cols), (cols, rows)):
            assert dense_count(box, lines, False) == plain, (rows, cols)
            assert dense_count(box, lines, True) == zero_one, (rows, cols)


def test_dense_pass_moves_past_int64():
    # 30! / 5!^6 is about 8.9e19, past 2^63: the last lines run on Python ints
    want = math.factorial(30) // math.factorial(5) ** 6
    assert want >= 1 << 63
    assert dense_count((5,) * 6, (1,) * 30, False) == want
    assert dense_count((5,) * 6, (1,) * 30, True) == want


def test_four_by_four_forty_equals_stanley_polynomial():
    # 4 x 4 tables with every line sum n (OEIS A001496), a degree-9 polynomial
    coeffs = [11, 198, 1596, 7560, 23289, 48762, 70234, 68220, 40950, 11340]
    want = Fraction(sum(c * 40 ** (9 - i) for i, c in enumerate(coeffs)), 11340)
    assert exact_count_dp(Margins((40,) * 4, (40,) * 4)) == want


def test_symmetric_unit_margins_spend_the_sorted_dp_nodes():
    m = Margins((1,) * 14, (1,) * 14)
    sorted_dp = functools.partial(counting._line_count, m.col_sums, m.row_sums, None)
    assert exact_count_dp(m, node_budget=105) == sorted_dp(105) == math.factorial(14)
    for count in (lambda spend: exact_count_dp(m, node_budget=spend), sorted_dp):
        with pytest.raises(EnumerationBudgetError):
            count(104)


def test_sorted_dp_allowance_leaves_the_dense_pass_its_budget(monkeypatch):
    # the dense pass costs 663 node-equivalents on (10^4)x(10^4)
    limits = []
    line_count = counting._line_count

    def recorded(lines, state, cap, limit):
        limits.append(limit)
        return line_count(lines, state, cap, limit)

    m = Margins((10,) * 4, (10,) * 4)
    want = line_count(m.col_sums, m.row_sums, None, 10**7)
    monkeypatch.setattr(counting, "_line_count", recorded)
    for budget in (663, 1000, 10**7):
        limits.clear()
        assert exact_count_dp(m, node_budget=budget) == want
        assert limits == [min(663, budget - 663)]


def test_dense_pass_past_the_budget_builds_no_array(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("the dense pass ran")

    monkeypatch.setattr(counting, "box_coefficient", no_dense)
    with pytest.raises(EnumerationBudgetError):
        exact_count_dp(Margins((10,) * 4, (10,) * 4), node_budget=662)


def test_dense_pass_is_not_costed_past_the_cell_limit():
    budget = 10**15
    assert box_work((1,) * 22, [AxisRow(1, 22, (1,) * 22)], budget) <= budget
    assert box_work((1,) * 23, [AxisRow(1, 23, (1,) * 23)], budget) > budget


def test_counts_invariant_under_margin_permutations():
    m = Margins([3, 1, 2], [2, 2, 2])
    p = Margins([1, 2, 3], [2, 2, 2])
    assert exact_count_bruteforce(m) == exact_count_bruteforce(p)
    assert exact_count_dp(m) == exact_count_dp(p)
    assert exact_count_01(m) == exact_count_01(p)
    assert fisher_yates_count(m) == fisher_yates_count(p)


def test_fisher_yates_values():
    assert fisher_yates_count(Margins([1, 1], [1, 1])) == 2
    assert fisher_yates_count(Margins([2, 2], [2, 2])) == Fraction(3, 2)


def test_fisher_yates_equals_weighted_bruteforce():
    for rows, cols in [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((2, 2, 1), (3, 1, 1))]:
        m = Margins(rows, cols)
        total = Fraction(0)
        for table in iter_tables(m):
            w = Fraction(1)
            for row in table:
                for d in row:
                    w /= math.factorial(d)
            total += w
        assert fisher_yates_count(m) == total


def test_bekessy_unit_margins_is_factorial():
    for n in range(1, 8):
        m = Margins([1] * n, [1] * n)
        assert bekessy_estimate(m) == float(math.factorial(n))


def test_closed_forms_keep_no_factorial_table():
    # a table of every factorial up to N = 10^4 would hold about 71 MiB
    m = Margins([10000], [10000])
    tracemalloc.start()
    try:
        value = fisher_yates_count(m)
        log_value = bekessy_log_estimate(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert value == Fraction(1, math.factorial(10000))
    assert math.isfinite(log_value)


def test_bekessy_2x2_value():
    m = Margins([2, 2], [2, 2])
    assert bekessy_estimate(m) == pytest.approx(1.5 * math.exp(0.5))
    assert abs(bekessy_estimate(m) / 3 - 1) == pytest.approx(0.1756, abs=5e-4)


def test_bekessy_error_shrinks_with_n():
    errors = []
    for total in (4, 8, 12):
        k = total // 2
        m = Margins([2] * k, [2] * k)
        exact = exact_count_dp(m)
        errors.append(abs(bekessy_estimate(m) / exact - 1))
    assert errors[0] > errors[1] > errors[2]


def test_weighted_bruteforce_all_ones_matches_counts():
    m = Margins([2, 2], [2, 2])
    ones = WeightMatrix([[1, 1], [1, 1]])
    assert weighted_count_bruteforce(m, ones, include_factorials=False) == 3
    assert weighted_count_bruteforce(m, ones, include_factorials=True) == Fraction(3, 2)


def test_weighted_fy_count_past_24_cells():
    # N = 24, past the size where a block-matrix permanent was feasible
    m = Margins([12, 12], [8, 8, 8])
    w = WeightMatrix([[Fraction(1, 2), 1, Fraction(3, 2)], [2, Fraction(1, 3), 1]])
    got = weighted_fy_count(m, w)
    assert isinstance(got, Fraction)
    assert got == weighted_count_bruteforce(m, w)


def test_weighted_fy_count_float_weights_match_fraction_oracle():
    m = Margins([4, 4, 4], [3, 3, 3, 3])
    floats = [[0.3 + 0.37 * ((5 * i + 3 * j) % 7) for j in range(4)] for i in range(3)]
    oracle = weighted_count_bruteforce(m, WeightMatrix([[Fraction(w) for w in row] for row in floats]))
    got = weighted_fy_count(m, WeightMatrix(floats))
    assert isinstance(got, float)
    assert abs(got / oracle - 1) <= 1e-14


@pytest.mark.parametrize(
    "rows, cols, weights, expected",
    [
        # a 1e200 weight squared overflows to inf
        ([2, 2], [2, 2], [[1e200, 1.0], [1.0, 1e200]], math.inf),
        # 200! and 100^200 overflow a float; 100^200 / 200! ~ 1.27e25 does not
        ([200], [200], [[100.0]], float(Fraction(100) ** 200 / math.factorial(200))),
        # the only table puts 1 in the zero-weight cell: 0 * 1e200^2 / 2 is 0, not nan
        ([3], [1, 2], [[0.0, 1e200]], 0.0),
    ],
)
def test_weighted_fy_count_float_extremes(rows, cols, weights, expected):
    got = weighted_fy_count(Margins(rows, cols), WeightMatrix(weights))
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "rows, cols",
    [((8, 8), (1,) * 16), ((1,) * 16, (8, 8)), ((20,), (2,) * 10), ((2,) * 10, (20,)),
     ((1, 3, 2, 1), (2, 1, 4))],
)
def test_weighted_fy_count_wide_margins(rows, cols):
    # the box over the 0-1-like side has 2^16 or 3^10 cells, the other side's
    # 81 or 21; the last pair has its rows out of order
    m = Margins(list(rows), list(cols))
    w = WeightMatrix(
        [[Fraction(1 + (i + 2 * j) % 3, 2) for j in range(len(cols))] for i in range(len(rows))]
    )
    assert weighted_fy_count(m, w) == weighted_count_bruteforce(m, w)


@pytest.mark.parametrize(
    "rows, cols",
    [
        ([3] * 11, [3] * 11),  # too many transitions: about 1.3e9 element operations
        ([10**9], [5 * 10**8] * 2),  # one table entry, but factor lists of 5e8 rationals
    ],
)
def test_weighted_fy_count_budget_checked_before_tables(monkeypatch, rows, cols):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "_series", no_tables)
    with pytest.raises(EnumerationBudgetError):
        weighted_fy_count(Margins(rows, cols), WeightMatrix([[1] * len(cols)] * len(rows)))


def test_bekessy_log_estimate_past_float_range():
    m = Margins([1] * 200, [1] * 200)
    assert bekessy_estimate(m) is None
    assert bekessy_log_estimate(m) == pytest.approx(math.lgamma(201), rel=1e-12)
    small = Margins([2, 2], [2, 2])
    assert bekessy_log_estimate(small) == pytest.approx(math.log(bekessy_estimate(small)))


def test_bekessy_estimate_past_float_range_skips_the_exact_ratio(monkeypatch):
    def no_ratio(margins):
        raise AssertionError("the exact factorial ratio was built")

    monkeypatch.setattr(counting, "fisher_yates_count", no_ratio)
    assert bekessy_estimate(Margins([100000, 1], [100001])) is None


def test_weight_matrix_validation():
    with pytest.raises(ValidationError):
        WeightMatrix([[1, -1]])
    with pytest.raises(ValidationError):
        WeightMatrix([[1, 2], [3]])


def test_margins_io():
    m = margins_from_json_text('{"rows": [2, 2], "cols": [1, 3]}')
    assert m == Margins([2, 2], [1, 3])
    m2 = margins_from_csv_text("2,2\n1,3\n")
    assert m2 == Margins([2, 2], [1, 3])


def test_weights_io():
    w = weights_from_json_text('{"weights": [[1, "1/2"], [2.5, 3]]}')
    assert w.entries[0][1] == Fraction(1, 2)
    assert w.entries[1][0] == 2.5
    w2 = weights_from_csv_text("1,1/2\n2.5,3\n")
    assert w2 == w


def test_fisher_yates_equals_the_factorial_ratio():
    sums = [s for k in range(1, 4) for s in product(range(1, 6), repeat=k)]
    for rows, cols in product(sums, repeat=2):
        if sum(rows) == sum(cols):
            m = Margins(rows, cols)
            assert fisher_yates_count(m) == Fraction(math.factorial(m.total), m.divisor()), m


def test_fisher_yates_at_large_n_reduces_one_fraction():
    # reducing 100000! against all four margin factorials took about 9 s
    m = Margins([50000, 50000], [50000, 50000])
    start = time.process_time()
    value = fisher_yates_count(m)
    assert time.process_time() - start < 2.0
    assert value == Fraction(math.comb(100000, 50000), math.factorial(50000) ** 2)


def _integer_log_bekessy(m):
    # the log through the exact integers N! and prod of margin factorials
    return math.log(math.factorial(m.total)) - math.log(m.divisor()) + counting._bekessy_exponent(m)


def test_bekessy_log_estimate_matches_the_integer_logs():
    grid = [Margins(rows, cols)
            for total in range(1, 9)
            for rparts in range(1, 4)
            for cparts in range(1, 4)
            for rows in positive_compositions(total, rparts) if total >= rparts
            for cols in positive_compositions(total, cparts) if total >= cparts]
    grid += [Margins([100, 1], [101]), Margins([50, 50], [25] * 4), Margins([999, 1000], [1999]),
             Margins([3] * 40, [4] * 30), Margins([1] * 300, [1] * 300)]
    for m in grid:
        assert math.isclose(bekessy_log_estimate(m), _integer_log_bekessy(m), rel_tol=1e-12), m


def test_bekessy_log_estimate_builds_no_factorial(monkeypatch):
    m = Margins([50000, 50000], [50000, 50000])
    want = _integer_log_bekessy(m)

    def no_factorials(n):
        raise AssertionError("a factorial was built")

    monkeypatch.setattr(counting, "factorial", no_factorials)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        got = bekessy_log_estimate(m)
        elapsed.append(time.perf_counter() - start)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert min(elapsed) < 0.01
