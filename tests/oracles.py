"""Brute-force oracles that the tests check the library's routes against."""

from fractions import Fraction
from math import factorial

from tablecount.counting import DEFAULT_NODE_BUDGET, Margins, WeightMatrix, _check_weight_shape, iter_tables


def weighted_count_bruteforce(
    margins: Margins,
    weights: WeightMatrix,
    include_factorials: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """Sum over all tables of prod w_ij^d_ij, optionally divided by prod d_ij!.

    Exact when the weights are exact; this is the oracle weighted_fy_count and
    the low-rank weighted paths are checked against.
    """
    _check_weight_shape(margins, weights)
    exact = not any(isinstance(v, float) for row in weights.entries for v in row)
    total = Fraction(0) if exact else 0.0
    for table in iter_tables(margins, node_budget=node_budget):
        term = Fraction(1) if exact else 1.0
        for wrow, drow in zip(weights.entries, table):
            for w, d in zip(wrow, drow):
                if d:
                    term = term * w**d
                    if include_factorials:
                        term = term / factorial(d)
        total = total + term
    return total
