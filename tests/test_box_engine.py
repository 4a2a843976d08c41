import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import weighted_count_bruteforce
from test_permanent import naive_permanent
from tablecount import counting
from tablecount.counting import (
    Margins,
    WeightMatrix,
    _line_count,
    _series,
    exact_count_dp,
    lowrank_asymptotic_count,
    weighted_fy_count,
)
from tablecount.errors import EnumerationBudgetError
from tablecount.permanent import permanent_exact
from tablecount.polynomial import (
    BOX_CELL_LIMIT,
    BOX_STEP_BUDGET,
    AxisRow,
    bounded_compositions,
    box_coefficient,
    box_work,
)


def _sums(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _random_margins(rng):
    total = rng.randint(1, 7)
    m, n = rng.randint(1, min(3, total)), rng.randint(1, min(3, total))
    return Margins(_sums(rng, total, m), _sums(rng, total, n))


def test_engine_matches_oracles_on_random_inputs():
    rng = random.Random(1977)
    for _ in range(60):
        m = _random_margins(rng)
        shape = range(m.num_rows), range(m.num_cols)
        exact = WeightMatrix([[Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in shape[1]]
                              for _ in shape[0]])
        assert weighted_fy_count(m, exact) == weighted_count_bruteforce(m, exact), m
        floats = WeightMatrix([[rng.uniform(0.0, 3.0) for _ in shape[1]] for _ in shape[0]])
        want = weighted_count_bruteforce(m, floats)
        assert weighted_fy_count(m, floats) == pytest.approx(want, rel=1e-14, abs=0), m
        surrogate = lowrank_asymptotic_count(m, 0.2, 0, exact_surrogate=True).value
        assert surrogate == exact_count_dp(m), m
        n = rng.randint(1, 6)
        ints = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(n)]
        assert permanent_exact(ints) == naive_permanent(ints)
        rationals = [[Fraction(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(n)]
                     for _ in range(n)]
        assert permanent_exact(rationals) == naive_permanent(rationals)
        for box, lines in ((m.col_sums, m.row_sums), (m.row_sums, m.col_sums)):
            ends = [frozenset((s,)) for s in box]
            plain = box_coefficient([AxisRow(r, 1, box) for r in lines], ends)
            zero_one = box_coefficient([AxisRow(r, 1, (1,) * len(box)) for r in lines], ends)
            assert plain == _line_count(lines, box, None, 10**7), (box, lines)
            assert zero_one == _line_count(lines, box, 1, 10**7), (box, lines)


def test_signed_permanent_past_int64_switches_on_absolute_sums():
    # rows 1 and 2 treat columns 0 and 1 alike, so row 0's a and -a cancel in
    # the sum of every state before the last row; the entries reach 2^69
    a, b, d = 2**20, 2**14, 2**20
    matrix = [[a, -a, 0, 0], [b] * 4, [b] * 4, [0, d, b, b]]
    assert naive_permanent(matrix) == 2 * a * b * b * d >= 1 << 63
    assert permanent_exact(matrix) == naive_permanent(matrix)


def test_zero_state_times_infinite_coefficient_adds_nothing():
    # row 1's scaled factors overflow to inf; only the state (0, 1) is reached
    # before it, and the empty cells it meets must not turn inf into nan
    rows, cols, weights = [1, 2], (2, 1), [[0.0, 1.0], [1e200, 1e200]]
    factors = [AxisRow(r, 1, cols, lambda r=r, w=w: _series(w, r, cols, scaled=True))
               for r, w in zip(rows, weights)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert box_coefficient(factors, [frozenset((c,)) for c in cols]) == math.inf


def test_repeated_exact_factor_keeps_its_denominator():
    # (x/2 + y/3)^2 (x + 2y) = (x^2/4 + xy/3 + y^2/9)(x + 2y): [x^2 y] = 1/2 + 1/3,
    # [x y^2] = 2/3 + 1/9
    half_third = AxisRow(1, 2, (1, 1), lambda: [(1, Fraction(1, 2)), (1, Fraction(1, 3))])
    line = AxisRow(1, 1, (1, 1), lambda: [(1, 1), (1, 2)])
    assert box_coefficient([half_third, line], [frozenset((2,)), frozenset((1,))]) == Fraction(5, 6)
    assert box_coefficient([half_third, line], [frozenset((1,)), frozenset((2,))]) == Fraction(7, 9)
    assert box_coefficient([half_third, line], [frozenset((1, 2)), frozenset((1, 2))]) == Fraction(29, 18)


def test_numpy_integer_entries_are_exact():
    assert permanent_exact(np.full((3, 3), 2**40, dtype=np.int64)) == 6 * 2**120


def test_work_counts_every_cell_the_engine_touches():
    rng = random.Random(5)
    for _ in range(40):
        bound = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        r, mult = rng.randint(1, 5), rng.randint(1, 3)
        box = tuple(rng.randint(0, 4) for _ in bound)
        cells = math.prod(b + 1 for b in bound)
        slices = sum(math.prod(b + 1 - e for b, e in zip(bound, a))
                     for a in bounded_compositions(r, tuple(map(min, bound, box))))
        build = sum(m * (m + 1) // 2 * m.bit_length() for m in (min(c, r) for c in box))
        assert box_work(bound, [(r, mult, box, None)]) == build + mult * (cells + slices)


def test_largest_permanent_fits_the_budget():
    units = [AxisRow(1, 1, (1,) * 22, lambda: [(1, 1)] * 22)] * 22
    assert box_work((1,) * 22, units) <= 1_107_296_740 <= BOX_STEP_BUDGET
    assert 2**22 == BOX_CELL_LIMIT


@pytest.mark.parametrize("rows, cols", [([30], [1] * 30), ([12, 12], [1] * 24)])
def test_oversized_box_refused_before_tables(monkeypatch, rows, cols):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built before the box was checked")

    monkeypatch.setattr(counting, "build_h_tilde", no_tables)
    monkeypatch.setattr(counting, "_series", no_tables)
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetError, match="cells exceeds the limit 4194304"):
        lowrank_asymptotic_count(Margins(rows, cols), 0.2, 0)
    assert time.perf_counter() - start < 1.0


def test_long_exact_factor_lists_refused_before_tables(monkeypatch):
    # one cell, but the factors 1/e! for e up to 20000 hold about 300 MB of digits
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built before its factors were counted")

    monkeypatch.setattr(counting, "_series", no_tables)
    with pytest.raises(EnumerationBudgetError, match="element operations"):
        weighted_fy_count(Margins([20000], [20000]), WeightMatrix([[1]]))
