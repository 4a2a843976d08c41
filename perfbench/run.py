"""Closed-loop benchmark of the tablecount CLI, with oracle checks and layer tracing.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload mc_wide --seed 1 --seconds 20 --trace 0

Each solve is one in-process ``tablecount.cli.main(argv)`` call, issued only
after the previous one returned (one client, no threads).  A workload is a
fixed list of solves; the run repeats the list ("passes") until ``--seconds``
have gone by, each pass with fresh per-solve seeds derived from ``--seed``.
Every output is checked against an oracle computed here, not by the program:
brute-force enumeration, closed forms cross-checked by enumeration,
and for Monte Carlo and low-rank results a recomputation from the same public
``tablecount.rng`` draws that sums only non-negative terms.

Solve time is reported as ``solve_time_norm``: the CPU time of one pass
divided by the mean CPU time of a fixed reference loop timed between the
pass's solves, median over passes.  The loop is pure Python for workloads
dominated by interpreted code and whole-array numpy for the Monte Carlo ones.  On a small shared
machine the speed of a core drifts by up to 50 % over minutes, which moves
raw CPU time and the reference alike; the ratio keeps what the program's own
work costs.  Raw CPU and wall times are printed as ``#`` lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each module at the names the calling modules bound, runs
untraced and traced passes alternately, and prints per-layer metrics.  The
last stdout line is one JSON object.  ``--workload all`` runs each workload
in its own child process, so that peak RSS is each workload's own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("mc_wide", "mc_deep", "lowrank", "exact")
# the reference loop each workload's solve time is divided by, matched to the
# work that dominates it: numpy arrays in the MC kernel, interpreted loops in
# counting, polynomial and the exact layers
REFERENCE = {"mc_wide": "numpy", "mc_deep": "numpy", "lowrank": "python", "exact": "python"}
LAYERS = ("rng", "permanent", "polynomial", "lowrank", "counting", "cli")
SETUP_REPEATS = 7
# CPU seconds of solves between two timings of the reference loop
REF_EVERY_S = 0.2
# the CLI's caps on sampled forms: per distinct row sum, and per row when weighted
FORMS_PER_VALUE = 128
WEIGHTED_FORMS_PER_ROW = 64
# work counts the benchmark computes from arguments and results, not timings
COMPUTED = {"rng.draws", "permanent.matrices", "permanent.subset_steps", "counting.samples",
            "counting.pairing_terms", "lowrank.forms_built", "lowrank.coeffs_checked", "polynomial.terms_out"}
# helpers too small to trace: wrapping them would cost more than they do
UNTRACED = {"factorial", "parse_coeff", "format_coeff", "monomial_weight", "sort_key"}


def solve_seed(seed: int, pass_no: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}/{pass_no}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 2


# ---------------------------------------------------------------------------
# oracles


def iter_tables(rows, cols, cap=None):
    """Every non-negative integer matrix with these margins (entries at most
    cap, when given), row by row."""
    m, n = len(rows), len(cols)

    def compositions(total, bounds, j):
        if j == n - 1:
            if total <= bounds[j] and (cap is None or total <= cap):
                yield (total,)
            return
        top = min(total, bounds[j]) if cap is None else min(total, bounds[j], cap)
        for v in range(top + 1):
            for tail in compositions(total - v, bounds, j + 1):
                yield (v,) + tail

    def rec(i, rem):
        if i == m:
            if not any(rem):
                yield ()
            return
        for row in compositions(rows[i], rem, 0):
            for rest in rec(i + 1, [a - b for a, b in zip(rem, row)]):
                yield (row,) + rest

    if sum(rows) != sum(cols):
        return iter(())
    return rec(0, list(cols))


@functools.lru_cache(maxsize=None)
def table_count(rows, cols, cap=None):
    return sum(1 for _ in iter_tables(rows, cols, cap))


def weighted_table_sum(rows, cols, weights, factorials):
    """Sum over tables of prod w^d, divided by prod d! when factorials is set."""
    total = Fraction(0)
    for table in iter_tables(rows, cols):
        term = Fraction(1)
        for wrow, drow in zip(weights, table):
            for w, d in zip(wrow, drow):
                term *= Fraction(w) ** d
                if factorials:
                    term /= math.factorial(d)
        total += term
    return total


def margin_divisor(rows, cols):
    return math.prod(math.factorial(v) for v in (*rows, *cols))


@functools.lru_cache(maxsize=None)
def _table_array(rows, cols):
    return np.array([sum(t, ()) for t in iter_tables(rows, cols)], dtype=np.int64)


def mc_sample_oracle(rows, cols, seed, samples, weights=None):
    """Per-sample permanent / margin factorials, recomputed without cancellation.

    The draws are regenerated through the public rng functions (sample k reads
    its m*n cell exponentials row-major from child stream k).  For a block
    matrix with cell values x_ij the scaled permanent is the sum over tables
    of prod x^d / d!, a sum of non-negative terms.
    """
    from tablecount.rng import derive_seed_block, exponential_matrix

    m, n = len(rows), len(cols)
    tables = _table_array(rows, cols)
    top = max(max(rows), max(cols))
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(top + 1)])
    seeds = derive_seed_block(seed, samples)
    out = np.empty(samples)
    chunk = max(1, 2**21 // len(tables))
    for start in range(0, samples, chunk):
        x = exponential_matrix(seeds[start:start + chunk], m * n)
        if weights is not None:
            x = x * np.array(weights, dtype=np.float64).reshape(1, m * n)
        terms = np.ones((x.shape[0], tables.shape[0]))
        for c in range(m * n):
            # x^k / k! for every k, then picked per table by the cell's entry
            powers = x[:, c:c + 1] ** np.arange(top + 1) * inv_fact
            terms *= powers[:, tables[:, c]]
        out[start:start + chunk] = terms.sum(axis=1)
    return out


def complete_forms(r, n, epsilon, seed, m):
    """The m truncated-exponential forms a complete-kind family draws from seed."""
    from tablecount.lowrank import solve_threshold
    from tablecount.rng import derive_seed_block, truncated_exponential_matrix

    kappa = solve_threshold(r, 1.0 - math.sqrt(1.0 - epsilon)).kappa
    return truncated_exponential_matrix(derive_seed_block(seed, m), n, kappa)


def power_coefficient(gamma, expo):
    """[x^a] of sum_s (gamma_s . x)^r / (r! m): the mean over forms of
    prod gamma^a, over prod a!."""
    inner = np.prod(gamma ** np.array(expo, dtype=np.float64), axis=1)
    return float(inner.sum()) / (gamma.shape[0] * math.prod(math.factorial(a) for a in expo))


def surjection_count(n, r):
    return sum((-1) ** k * math.comb(r, k) * (r - k) ** n for k in range(r + 1))


def surjection_assignments(n, r, seed, m):
    """The m surjections {0..n-1} -> {0..r-1} an elementary family draws from seed."""
    from tablecount.rng import SplitMix64Stream, derive_seed

    limit = math.ceil(50 * r**n / surjection_count(n, r))
    out = np.empty((m, n), dtype=np.int64)
    for i in range(m):
        stream = SplitMix64Stream(derive_seed(seed, i))
        for _ in range(limit):
            assignment = stream.integers(n, r)
            if len(set(assignment.tolist())) == r:
                break
        else:
            raise RuntimeError(f"no surjection within {limit} attempts")
        out[i] = assignment
    return out


def group_coefficient(assignments, expo):
    """[x^a] of the unscaled surjection family: the number of surjections that
    map the support of the square-free monomial a bijectively onto the blocks."""
    if any(a > 1 for a in expo):
        return 0
    support = [j for j, a in enumerate(expo) if a]
    hits = np.sort(assignments[:, support], axis=1)
    return int(np.all(hits == np.arange(len(support)), axis=1).sum())


def elementary_scale(n, r, m):
    return float(Fraction(surjection_count(n, r), math.factorial(r) * r ** (n - r) * m))


def coefficient_product_sum(rows, col_vectors, coefficient, cap=None):
    """Sum over column vectors c of [x^c] prod_i f_i, where coefficient(i, d)
    is [x^d] f_i: a sum over tables of products of non-negative terms."""
    memo = {}
    total = 0.0
    for cols in col_vectors:
        for table in iter_tables(rows, cols, cap):
            term = 1.0
            for i, row in enumerate(table):
                if (i, row) not in memo:
                    memo[(i, row)] = coefficient(i, row)
                term *= memo[(i, row)]
            total += term
    return total


def complete_lowrank_oracle(rows, col_vectors, epsilon, seed):
    """(value, form counts, term count) of the complete-kind low-rank count."""
    from tablecount.lowrank import choose_sample_count
    from tablecount.rng import derive_seed

    n = len(col_vectors[0])
    values = sorted(set(rows))
    counts = [min(choose_sample_count(r, epsilon, n), FORMS_PER_VALUE) for r in values]
    gammas = {r: complete_forms(r, n, epsilon, derive_seed(seed, idx), m)
              for idx, (r, m) in enumerate(zip(values, counts))}
    value = coefficient_product_sum(rows, col_vectors, lambda i, d: power_coefficient(gammas[rows[i]], d))
    terms = math.prod(math.comb(m + rows.count(r) - 1, rows.count(r)) for r, m in zip(values, counts))
    return value, counts, terms * len(col_vectors)


def elementary_lowrank_oracle(rows, cols, epsilon, seed):
    from tablecount.lowrank import choose_elementary_sample_count
    from tablecount.rng import derive_seed

    n = len(cols)
    values = sorted(set(rows))
    counts = [min(choose_elementary_sample_count(r, epsilon, n), FORMS_PER_VALUE) for r in values]
    families = {r: (surjection_assignments(n, r, derive_seed(seed, idx), m), elementary_scale(n, r, m))
                for idx, (r, m) in enumerate(zip(values, counts))}

    def coefficient(i, d):
        assignments, scale = families[rows[i]]
        return scale * group_coefficient(assignments, d)

    value = coefficient_product_sum(rows, [cols], coefficient, cap=1)
    terms = math.prod(math.comb(m + rows.count(r) - 1, rows.count(r)) for r, m in zip(values, counts))
    return value, counts, terms


def weighted_lowrank_oracle(rows, cols, weights, epsilon, seed):
    from tablecount.lowrank import choose_sample_count
    from tablecount.rng import derive_seed

    n = len(cols)
    counts = [min(choose_sample_count(r, epsilon, n), WEIGHTED_FORMS_PER_ROW) for r in rows]
    gammas = [complete_forms(r, n, epsilon, derive_seed(seed, i), m) * np.array(weights[i], dtype=np.float64)
              for i, (r, m) in enumerate(zip(rows, counts))]
    value = coefficient_product_sum(rows, [cols], lambda i, d: power_coefficient(gammas[i], d))
    return value, counts, math.prod(counts)


# ---------------------------------------------------------------------------
# checks: check(rc, report, captured) -> (error text or None, quality dict).
# captured holds the permanent_float_batch results of a traced solve, else None.


def _margin_args(rows, cols):
    return ["--rows", ",".join(map(str, rows)), "--cols", ",".join(map(str, cols))]


def _close(got, want, tol):
    return abs(got - want) <= tol * abs(want)


def _mc_quality(rows, cols, seed, samples, weights, captured):
    """Oracle samples, and the kernel's worst per-sample error when its
    outputs were captured (every kernel call of an MC solve is a sample chunk)."""
    values = mc_sample_oracle(rows, cols, seed, samples, weights)
    quality = {}
    if captured is not None:
        got = np.concatenate(captured) / margin_divisor(rows, cols)
        quality["sample_rel_err"] = (float(np.max(np.abs(got / values - 1))) if got.shape == values.shape
                                     else math.inf)
    return values, quality


def _mc_check(rows, cols, seed, samples, weights, command):
    def check(rc, out, captured):
        if rc != 0:
            return f"exit {rc}", {}
        values, quality = _mc_quality(rows, cols, seed, samples, weights, captured)
        if command == "variance":
            ratio = float((values * values).mean() / values.mean() ** 2)
            if not _close(out["ratio"], ratio, 1e-9):
                return f"ratio {out['ratio']} != recomputed {ratio}", quality
            if out["bound_general"] != 2 ** (2 * sum(rows)) or out["samples"] != samples:
                return "bound or sample count mismatch", quality
            return None, quality
        mean = float(values.mean())
        std_err = float(values.std(ddof=1)) / math.sqrt(samples)
        # Ryser's formula loses digits to cancellation (several 1e-9 of the
        # mean at N = 16); that loss is measured as mc_float_rel_err, and fails the
        # solve only once it reaches 1 % of the reported standard error
        if abs(out["mean"] - mean) > 0.01 * out["std_err"] or not _close(out["std_err"], std_err, 0.01):
            return f"mean {out['mean']} / std_err {out['std_err']} != recomputed {mean} / {std_err}", quality
        if out["samples"] != samples or not out["ci_low"] < out["mean"] < out["ci_high"]:
            return "sample count or interval mismatch", quality
        exact = table_count(rows, cols) if weights is None else weighted_table_sum(rows, cols, weights, False)
        quality.update(mc=True, float_rel_err=abs(out["mean"] / mean - 1),
                       rel_err=abs(out["mean"] / float(exact) - 1), rse=out["std_err"] / out["mean"])
        return None, quality

    return check


def _value_check(key, expected, tol=0):
    def check(rc, out, captured):
        if rc != 0:
            return f"exit {rc}", {}
        got = out[key]
        got = Fraction(got) if isinstance(got, str) else got
        ok = got == expected if tol == 0 else _close(got, expected, tol)
        return (None if ok else f"{key} {got} != {expected}"), {}

    return check


def fy_value(rows, cols):
    return Fraction(math.factorial(sum(rows)), margin_divisor(rows, cols))


def bekessy_value(rows, cols):
    total = sum(rows)
    pairs = sum(math.comb(r, 2) for r in rows) * sum(math.comb(c, 2) for c in cols)
    return float(fy_value(rows, cols)) * math.exp(2.0 * pairs / (total * total))


def _lowrank_fields_error(out, epsilon, total, counts, terms):
    if not (_close(out["band_low"], (1 - epsilon) ** total, 1e-12)
            and _close(out["band_high"], (1 + epsilon) ** total, 1e-12)):
        return "band mismatch"
    if out["form_counts"] != counts or out["terms"] != terms:
        return f"form counts {out['form_counts']} / terms {out['terms']} != {counts} / {terms}"
    return None


def _lowrank_quality(value, exact, low, high):
    ratio = value / float(exact)
    return {"lowrank": True, "rel_err": abs(ratio - 1), "band_hit": low <= ratio <= high}


def _lowrank_check(oracle, exact, epsilon, total):
    """oracle() -> (value, form counts, terms); exact is the true target."""
    def check(rc, out, captured):
        if rc != 0:
            return f"exit {rc}", {}
        value, counts, terms = oracle()
        error = _lowrank_fields_error(out, epsilon, total, counts, terms)
        if error is None and not _close(out["value"], value, 1e-7):
            error = f"value {out['value']} != recomputed {value}"
        return error, _lowrank_quality(out["value"], exact, out["band_low"], out["band_high"])

    return check


def _budget_exit_check(terms, cap):
    def check(rc, out, captured):
        expected = f"pairing needs {terms} terms, cap is {cap}"
        if rc != 3 or expected not in out.get("error", ""):
            return f"expected exit 3 with '{expected}', got exit {rc}: {out}", {}
        return None, {"budget_exit": True}

    return check


def _compare_check(rows, cols, seed, samples, epsilon):
    def check(rc, out, captured):
        if rc != 0:
            return f"exit {rc}", {}
        got = {row["method"]: row["value"] for row in out["methods"]}
        exact = table_count(rows, cols)
        values, _ = _mc_quality(rows, cols, seed, samples, None, None)
        lowrank, _, _ = complete_lowrank_oracle(rows, [cols], epsilon, seed)
        want = {"exact": exact, "fy": fy_value(rows, cols), "bekessy": bekessy_value(rows, cols),
                "montecarlo": float(values.mean()), "lowrank": lowrank}
        tol = {"exact": 0, "fy": 0, "bekessy": 1e-12, "montecarlo": 1e-9, "lowrank": 1e-7}
        for method, value in want.items():
            have = got.get(method)
            have = Fraction(have) if isinstance(have, str) else have
            if have is None or not (have == value if tol[method] == 0 else _close(have, value, tol[method])):
                return f"compare {method}: {have} != {value}", {}
        low, high = (1 - epsilon) ** sum(rows), (1 + epsilon) ** sum(rows)
        return None, _lowrank_quality(got["lowrank"], exact, low, high)

    return check


def _verify_check(kind, degree, nvars, epsilon, seed, dump):
    """Recompute every coefficient from the same draws and compare."""
    def check(rc, out, captured):
        from tablecount.lowrank import choose_elementary_sample_count, choose_sample_count

        if rc != 0:
            return f"exit {rc}", {}
        if kind == "complete":
            m = choose_sample_count(degree, epsilon, nvars)
            gamma = complete_forms(degree, nvars, epsilon, seed, m)
            monomials = itertools.combinations_with_replacement(range(nvars), degree)

            def coefficient(expo):
                return power_coefficient(gamma, expo)
        else:
            m = choose_elementary_sample_count(degree, epsilon, nvars)
            assignments = surjection_assignments(nvars, degree, seed, m)
            scale = elementary_scale(nvars, degree, m)
            monomials = itertools.combinations(range(nvars), degree)

            def coefficient(expo):
                return scale * group_coefficient(assignments, expo)
        coeffs = {}
        for combo in monomials:
            expo = [0] * nvars
            for j in combo:
                expo[j] += 1
            coeffs[tuple(expo)] = coefficient(expo)
        lo, hi = (1 - epsilon) ** degree, (1 + epsilon) ** degree
        violations = sum(1 for c in coeffs.values() if not lo <= c <= hi)
        if out["forms"] != m or out["checked"] != len(coeffs):
            return f"forms {out['forms']} / checked {out['checked']} != {m} / {len(coeffs)}", {}
        if abs(out["band_low"] - lo) > 1e-12 or abs(out["band_high"] - hi) > 1e-12:
            return "band mismatch", {}
        if not (_close(out["min_ratio"], min(coeffs.values()), 1e-9)
                and _close(out["max_ratio"], max(coeffs.values()), 1e-9)):
            return f"min/max {out['min_ratio']}/{out['max_ratio']} != recomputed", {}
        if out["violations"] != violations or out["ok"] != (violations == 0):
            return f"violations {out['violations']} != recomputed {violations}", {}
        if dump is not None:
            dumped = {}
            for line in Path(dump).read_text().splitlines():
                token, *expo = line.split()
                dumped[tuple(map(int, expo))] = float(token)
            # the dump omits zero coefficients
            if not dumped.keys() <= coeffs.keys():
                return "dumped monomials outside the target degree", {}
            wrong = [e for e, c in coeffs.items() if not _close(dumped.get(e, 0.0), c, 1e-9)]
            if wrong:
                return f"{len(wrong)} dumped coefficients differ, first {wrong[0]}", {}
        return None, {}

    return check


# ---------------------------------------------------------------------------
# workloads


def _estimate(add, rows, cols, samples, s, command="estimate"):
    add([command, *_margin_args(rows, cols), "--samples", str(samples), "--seed", str(s)],
        _mc_check(rows, cols, s, samples, None, command))


def build_pass(workload, seed, pass_no, workdir):
    """The workload's solve list for one pass, with per-solve seeds."""
    solves = []

    def add(argv, check):
        solves.append((argv, check))

    def seeds():
        return (solve_seed(seed, pass_no, i) for i in itertools.count())

    if workload == "mc_wide":
        # wide numpy batches at N = 2..8: kernel throughput and RNG dominate
        s = seeds()
        for rows, cols, samples in [((1, 1), (1, 1), 1000000), ((2, 2), (2, 2), 200000),
                                    ((2, 2, 2), (2, 2, 2), 100000), ((3, 3), (2, 2, 2), 100000),
                                    ((4, 4), (2, 2, 2, 2), 100000)]:
            _estimate(add, rows, cols, samples, next(s))
        _estimate(add, (2, 2), (2, 2), 100000, next(s), "variance")
        _estimate(add, (2, 2, 2), (2, 2, 2), 100000, next(s), "variance")
        for rows, cols in [((2, 2), (2, 2)), ((3, 3), (2, 2, 2))]:
            w_seed = next(s)
            weights = [[(w_seed >> (3 * k)) % 7 / 4 + 0.25 for k in range(len(cols) * i, len(cols) * (i + 1))]
                       for i in range(len(rows))]
            wfile = workdir / f"w{pass_no}_{len(cols)}.json"
            wfile.write_text(json.dumps({"weights": weights}))
            add(["weighted", *_margin_args(rows, cols), "--weights-file", str(wfile), "--method", "mc",
                 "--samples", "100000", "--seed", str(w_seed)],
                _mc_check(rows, cols, w_seed, 100000, weights, "weighted"))
    elif workload == "mc_deep":
        # narrow batches of large matrices: 2^N interpreter steps per kernel call
        s = seeds()
        for rows, cols, samples in [((3, 3, 3, 3), (4, 4, 4), 2000), ((7, 7), (7, 7), 1000),
                                    ((4, 4, 4, 4), (4, 4, 4, 4), 256)]:
            _estimate(add, rows, cols, samples, next(s))
    elif workload == "lowrank":
        # term enumeration and N <= 8 permanents of the low-rank pairing routes
        s = seeds()
        eps = 0.2
        for rows, cols in [((2, 2, 2), (2, 2, 2)), ((3, 3), (2, 2, 2)), ((3, 1), (2, 2))]:
            k = next(s)
            add(["lowrank", *_margin_args(rows, cols), "--seed", str(k)],
                _lowrank_check(functools.partial(complete_lowrank_oracle, rows, [cols], eps, k),
                               table_count(rows, cols), eps, sum(rows)))
        rows, cols, k = (2, 2, 2), (2, 2, 1, 1), next(s)
        add(["lowrank01", *_margin_args(rows, cols), "--seed", str(k)],
            _lowrank_check(functools.partial(elementary_lowrank_oracle, rows, cols, eps, k),
                           table_count(rows, cols, 1), eps, sum(rows)))
        rows, sets, k = (2, 2), ((0, 1, 2), (1, 2), (0, 1, 2)), next(s)
        vectors = [v for v in itertools.product(*sets) if sum(v) == sum(rows)]
        add(["lowrank-colsets", "--rows", "2,2", "--col-sets", ";".join(",".join(map(str, c)) for c in sets),
             "--seed", str(k)],
            _lowrank_check(functools.partial(complete_lowrank_oracle, rows, vectors, eps, k),
                           sum(table_count(rows, v) for v in vectors), eps, sum(rows)))
        rows, cols, k = (2, 2), (2, 2), next(s)
        weights = [[(k >> (3 * j)) % 7 / 4 + 0.25 for j in range(2 * i, 2 * i + 2)] for i in range(2)]
        wfile = workdir / f"w{pass_no}.json"
        wfile.write_text(json.dumps({"weights": weights}))
        add(["weighted", *_margin_args(rows, cols), "--weights-file", str(wfile), "--method", "lowrank",
             "--seed", str(k)],
            _lowrank_check(functools.partial(weighted_lowrank_oracle, rows, cols, weights, eps, k),
                           weighted_table_sum(rows, cols, weights, False), eps, sum(rows)))
        rows, cols, k = (3, 3), (2, 2, 2), next(s)
        add(["compare", *_margin_args(rows, cols), "--samples", "10000", "--seed", str(k)],
            _compare_check(rows, cols, k, 10000, eps))
        # past the default term cap: the term tables are built before the cap is checked
        add(["lowrank", *_margin_args((2, 2, 2, 1, 1), (2, 2, 2, 2)), "--seed", str(next(s))],
            _budget_exit_check(math.comb(130, 3) * math.comb(129, 2), 10**7))
    elif workload == "exact":
        # pure-Python exact layers: DP, Fraction permanent, polynomial expansion
        for n in (3, 5, 8, 10):
            add(["count", *_margin_args((n,) * 4, (n,) * 4)], _value_check("count", four_by_four_count(n)))
        add(["count", *_margin_args((3, 3, 3, 3), (4, 4, 4))],
            _value_check("count", table_count((3, 3, 3, 3), (4, 4, 4))))
        # 0-1 counts of n x n matrices with constant line sums (OEIS A001499, A001501)
        for rows, count in [((4,) * 6, 67950), ((3,) * 6, 297200), ((3,) * 7, 68938800)]:
            add(["count01", *_margin_args(rows, rows)], _value_check("count", count))
        add(["fy", *_margin_args((3, 3), (2, 2, 2))], _value_check("value", fy_value((3, 3), (2, 2, 2))))
        add(["bekessy", *_margin_args((3, 3), (2, 2, 2))],
            _value_check("value", bekessy_value((3, 3), (2, 2, 2)), 1e-12))
        for i, margins in enumerate([(3, 3, 3), (4, 4, 4), (3, 3, 3, 3)]):
            s = solve_seed(seed, pass_no, i)
            weights = [[Fraction((s >> (4 * k)) % 5 + 1, (s >> (4 * k + 2)) % 3 + 1)
                        for k in range(len(margins) * j, len(margins) * (j + 1))] for j in range(len(margins))]
            wfile = workdir / f"w{pass_no}_{i}.json"
            wfile.write_text(json.dumps({"weights": [[str(w) for w in row] for row in weights]}))
            add(["weighted", *_margin_args(margins, margins), "--weights-file", str(wfile), "--method", "exact"],
                _value_check("value", weighted_table_sum(margins, margins, weights, True)))
        for i, (kind, degree, nvars, eps, dump) in enumerate(
            [("complete", 2, 4, 0.5, True), ("complete", 2, 4, 0.5, False), ("elementary", 3, 8, 0.3, True),
             ("elementary", 4, 10, 0.3, True)]
        ):
            s = solve_seed(seed, pass_no, i + 3)
            argv = ["verify-coeffs", "--kind", kind, "--degree", str(degree), "--vars", str(nvars),
                    "--epsilon", str(eps), "--seed", str(s)]
            path = str(workdir / f"poly{pass_no}_{i}.txt") if dump else None
            if dump:
                argv += ["--dump-poly", path]
            add(argv, _verify_check(kind, degree, nvars, eps, s, path))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return solves


def four_by_four_count(n):
    """Number of 4 x 4 tables with every line sum n (OEIS A001496), from
    Stanley's degree-9 polynomial."""
    coeffs = [11, 198, 1596, 7560, 23289, 48762, 70234, 68220, 40950, 11340]
    value = Fraction(sum(c * n ** (9 - i) for i, c in enumerate(coeffs)), 11340)
    return int(value)


def oracle_errors():
    """Brute-force cross-check of the closed-form count oracle where enumeration is cheap."""
    return [f"four_by_four_count({n}) disagrees with enumeration" for n in range(6)
            if four_by_four_count(n) != table_count((n,) * 4, (n,) * 4)]


# ---------------------------------------------------------------------------
# tracing


def _draws(args, result):
    return {"draws": int(getattr(result, "size", 0))}


def _batch(args, result):
    b, n = args[0].shape[0], args[0].shape[1]
    return {"matrices": b, "subset_steps": b * ((1 << n) - 1)}


def _samples(args, result):
    return {"samples": int(getattr(result, "num_samples", 0))}


def _forms(args, result):
    return {"forms": len(result.forms)}


def _checked(args, result):
    return {"coeffs": result.checked}


def _poly_terms(args, result):
    terms = getattr(result, "terms", None)
    return {"terms_out": len(terms)} if isinstance(terms, dict) else {}


class Tracer:
    """Spans around calls into each layer, recorded in memory.

    A span is (name, layer, start, end, parent index, solve id, counts, budget
    error).  counts are computed here from arguments and results, not read
    from the program.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solve_id = -1
        self.patches = []
        self.captured = None

    def wrap(self, owner, attr, layer, name, counter, budget_error):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            result, budget = None, False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except budget_error:
                budget = True
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                counts = counter(args, result) if counter and result is not None else {}
                self.spans[index] = (name, layer, start, end, parent, self.solve_id, counts, budget)
                if name == "permanent_float_batch" and self.captured is not None and result is not None:
                    self.captured.append(result)

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def install(self):
        import tablecount.cli as cli
        import tablecount.counting as counting
        import tablecount.errors as errors
        import tablecount.lowrank as lowrank
        import tablecount.permanent as permanent
        import tablecount.polynomial as polynomial
        import tablecount.rng as rng

        counters = {"uniform_matrix": _draws, "exponential_matrix": _draws,
                    "truncated_exponential_matrix": _draws, "permanent_float_batch": _batch,
                    "mc_estimate_count": _samples, "mc_weighted_count": _samples,
                    "variance_ratio_report": _samples, "build_h_tilde": _forms, "build_e_tilde": _forms,
                    "verify_coefficients": _checked}
        for caller in (cli, counting, lowrank, permanent):
            for attr, value in list(vars(caller).items()):
                module = getattr(value, "__module__", "") or ""
                layer = module.rsplit(".", 1)[-1]
                if (callable(value) and not isinstance(value, type) and module.startswith("tablecount.")
                        and layer in LAYERS and module != caller.__name__ and attr not in UNTRACED):
                    counter = counters.get(attr, _poly_terms if layer == "polynomial" else None)
                    self.wrap(caller, attr, layer, attr, counter, errors.BudgetError)
        self.wrap(cli, "main", "cli", "main", None, errors.BudgetError)
        self.wrap(polynomial.SparsePolynomial, "add", "polynomial", "SparsePolynomial.add", _poly_terms,
                  errors.BudgetError)
        self.wrap(lowrank.ApproxSymmetricPoly, "expand", "lowrank", "ApproxSymmetricPoly.expand", _poly_terms,
                  errors.BudgetError)
        self.wrap(rng.SplitMix64Stream, "integers", "rng", "SplitMix64Stream.integers", _draws,
                  errors.BudgetError)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def layer_stats(self, first):
        """Per layer: calls, self time, summed counts, and per function
        [calls, self time, inclusive time, counts]; for spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[4] >= first:
                child[span[4] - first] += span[3] - span[2]
        stats = {layer: {"calls": 0, "self_s": 0.0, "counts": {}, "fn": {}} for layer in LAYERS}
        stats["pairing_terms"] = 0
        stats["budget_exits"] = 0
        stats["budget_exit_s"] = 0.0
        for i, (name, layer, start, end, parent, solve, counts, budget) in enumerate(spans):
            entry = stats[layer]
            own = end - start - child[i]
            entry["calls"] += 1
            entry["self_s"] += own
            fn = entry["fn"].setdefault(name, [0, 0.0, 0.0, {}])
            fn[0] += 1
            fn[1] += own
            fn[2] += end - start
            for key, value in counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
                fn[3][key] = fn[3].get(key, 0) + value
            if name == "permanent_float_batch" and parent >= first and self.spans[parent][0].startswith("lowrank"):
                stats["pairing_terms"] += counts.get("matrices", 0)
            if budget and layer == "counting":
                stats["budget_exits"] += 1
                stats["budget_exit_s"] += end - start
        return stats


# ---------------------------------------------------------------------------
# running


def reference_work(kind):
    """Fixed work whose CPU time tracks the current speed of the core for the
    kind of work a workload does: a dictionary loop like the exact and
    low-rank layers, or whole-array numpy arithmetic like the float kernel."""
    if kind == "python":
        table = {}
        for i in range(150000):
            key = (i & 63, (i >> 6) & 63)
            table[key] = table.get(key, 0) + i * 0.5
        return len(table)
    x = np.arange(1 << 18, dtype=np.float64)
    for _ in range(45):
        x = x + np.log1p(x) * 1e-9
    return float(x[0])


def reference_cpu(kind):
    """CPU time of the reference loop, with the collector off so that the
    benchmark's own heap does not enter it."""
    gc.disable()
    try:
        start = time.process_time()
        reference_work(kind)
        return time.process_time() - start
    finally:
        gc.enable()


def run_solve(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    text = (out if rc == 0 else err).getvalue().strip()
    try:
        report = json.loads(text)
    except ValueError:
        report = {"unparsed": text}
    return rc, report, elapsed, cpu


def measure_setup():
    """Median CPU time (user + system) of a fresh interpreter importing the
    CLI and solving 2x2, as a CLI user pays it on every call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import json, io, contextlib, tablecount.cli as c\n"
            "buf = io.StringIO()\n"
            "with contextlib.redirect_stdout(buf):\n"
            "    rc = c.main(['count', '--rows', '2,2', '--cols', '2,2'])\n"
            "assert rc == 0 and json.loads(buf.getvalue())['count'] == 3\n")
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                              capture_output=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        if done.returncode != 0:
            raise RuntimeError("set-up solve failed: " + done.stderr.decode()[-300:])
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    import tablecount.cli as cli

    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(cli, workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cli, workload, seed, seconds, trace, workdir):
    setup_s = None if trace else measure_setup()
    tracer = Tracer() if trace else None
    passes = []  # dicts: wall, cpu, norm, traced, results, stats
    kind = REFERENCE[workload]
    refs = [reference_cpu(kind)]
    start = time.perf_counter()
    pass_no = 0
    while time.perf_counter() - start < seconds or (trace and len(passes) < 4) or not passes:
        traced = bool(trace) and pass_no % 2 == 1
        # traced runs repeat one seed set, so computed work counts must repeat exactly
        solves = build_pass(workload, seed, 0 if trace else pass_no, workdir)
        # the benchmark's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        if traced:
            tracer.install()
        first = len(tracer.spans) if tracer else 0
        wall = cpu = segment = 0.0
        refs = [refs[-1]]
        results = []
        try:
            for index, (argv, check) in enumerate(solves):
                if traced:
                    tracer.solve_id = pass_no * 1000 + index
                    tracer.captured = []
                rc, report, elapsed, solve_cpu = run_solve(cli.main, argv)
                captured = tracer.captured if traced else None
                if traced:
                    tracer.captured = None
                wall += elapsed
                cpu += solve_cpu
                segment += solve_cpu
                results.append((argv, check, rc, report, solve_cpu, captured))
                if segment >= REF_EVERY_S or index == len(solves) - 1:
                    refs.append(reference_cpu(kind))
                    segment = 0.0
        finally:
            if traced:
                tracer.uninstall()
        stats = tracer.layer_stats(first) if traced else None
        norm = cpu / statistics.mean(refs)
        passes.append({"wall": wall, "cpu": cpu, "norm": norm, "traced": traced, "results": results,
                       "stats": stats})
        pass_no += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = solved = 0
    qualities = []
    for p in passes:
        for argv, check, rc, report, solve_cpu, captured in p["results"]:
            attempted += 1
            if "unparsed" in report:
                error, quality = "unparsable output", {}
            else:
                error, quality = check(rc, report, captured)
            if error:
                failed += 1
                print(f"FAIL {' '.join(argv)}: {error}", file=sys.stderr)
            elif rc == 0:
                solved += 1
            quality["cpu"] = solve_cpu
            qualities.append(quality)
    for error in oracle_errors() if workload == "exact" else []:
        failed += 1
        print(f"FAIL {error}", file=sys.stderr)
    quality = quality_metrics(qualities)

    plain = [p for p in passes if not p["traced"]]
    print(f"# {workload}: {len(passes)} passes of {len(passes[0]['results'])} solves; per pass "
          f"CPU median {statistics.median(p['cpu'] for p in plain):.4f} s, "
          f"wall median {statistics.median(p['wall'] for p in plain):.4f} s; "
          f"reference loop {refs[-1]:.4f} s CPU; solve_time_norm per pass "
          + " ".join(f"{p['norm']:.2f}" for p in plain))
    if not trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_time_norm": {"value": statistics.median(p["norm"] for p in passes), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "solved_frac": {"value": solved / attempted, "unit": "ratio"},
        }
        # per-sample errors need the kernel's outputs, which only a traced run captures
        quality.pop("permanent.sample_rel_err_max")
        shown = {**metrics, **quality}
    else:
        metrics, problems = layer_metrics(workload, passes)
        metrics.update(quality)
        shown = metrics
        for problem in problems:
            failed += 1
            print(f"FAIL trace: {problem}", file=sys.stderr)
        trace_file = ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-{seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as handle:
            keys = ("name", "layer", "start", "end", "parent", "solve", "counts", "budget_error")
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    for name, entry in shown.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}{label}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def quality_metrics(qualities):
    """Accuracy against the oracles, over the run's solves (0 where a workload
    has no such solve)."""
    mc = [q for q in qualities if q.get("mc")]
    low = [q for q in qualities if q.get("lowrank")]
    samples = [q["sample_rel_err"] for q in qualities if "sample_rel_err" in q]
    m = {
        "counting.mc_rel_err_p50": (statistics.median(q["rel_err"] for q in mc) if mc else 0.0, "ratio"),
        "counting.mc_float_rel_err_max": (max((q["float_rel_err"] for q in mc), default=0.0), "ratio"),
        "counting.time_to_1pct_s": (statistics.mean(q["cpu"] * (q["rse"] / 0.01) ** 2 for q in mc)
                                    if mc else 0.0, "s"),
        "permanent.sample_rel_err_max": (max(samples, default=0.0), "ratio"),
        "counting.lowrank_rel_err_p50": (statistics.median(q["rel_err"] for q in low) if low else 0.0, "ratio"),
        "counting.band_hit_frac": (sum(q["band_hit"] for q in low) / len(low) if low else 0.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def layer_metrics(workload, passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []

    def work(stats):
        return ({layer: (stats[layer]["calls"], stats[layer]["counts"]) for layer in LAYERS},
                stats["pairing_terms"], stats["budget_exits"])

    counts = [work(p["stats"]) for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"computed work counts differ between traced passes: {counts}")
    stats = traced[-1]["stats"]

    def med(fn):
        return statistics.median(fn(p["stats"]) for p in traced)

    def fn_stat(s, layer, names, k):
        return sum(v[k] for name, v in s[layer]["fn"].items() if name in names)

    def count(layer, key):
        return stats[layer]["counts"].get(key, 0)

    rng_self = med(lambda s: s["rng"]["self_s"])
    batch = {"permanent_float_batch"}
    batch_self = med(lambda s: fn_stat(s, "permanent", batch, 1))
    builders = {"build_h_tilde", "build_e_tilde"}
    m = {
        "rng.calls": (stats["rng"]["calls"], "count"),
        "rng.draws": (count("rng", "draws"), "count"),
        "rng.self_s": (rng_self, "s"),
        "rng.draws_per_s": (count("rng", "draws") / rng_self if rng_self else 0.0, "1/s"),
        "permanent.batch_calls": (fn_stat(stats, "permanent", batch, 0), "count"),
        "permanent.matrices": (count("permanent", "matrices"), "count"),
        "permanent.subset_steps": (count("permanent", "subset_steps"), "count"),
        "permanent.self_s": (med(lambda s: s["permanent"]["self_s"]), "s"),
        "permanent.steps_per_s": (count("permanent", "subset_steps") / batch_self if batch_self else 0.0, "1/s"),
        "permanent.exact_calls": (fn_stat(stats, "permanent", {"permanent_exact"}, 0), "count"),
        "permanent.exact_self_s": (med(lambda s: fn_stat(s, "permanent", {"permanent_exact"}, 1)), "s"),
        "counting.calls": (stats["counting"]["calls"], "count"),
        "counting.self_s": (med(lambda s: s["counting"]["self_s"]), "s"),
        "counting.samples": (count("counting", "samples"), "count"),
        "counting.pairing_terms": (stats["pairing_terms"], "count"),
        "counting.budget_exits": (stats["budget_exits"], "count"),
        "counting.budget_exit_s": (med(lambda s: s["budget_exit_s"]), "s"),
        "lowrank.calls": (stats["lowrank"]["calls"], "count"),
        "lowrank.self_s": (med(lambda s: s["lowrank"]["self_s"]), "s"),
        "lowrank.forms_built": (count("lowrank", "forms"), "count"),
        "lowrank.build_s": (med(lambda s: fn_stat(s, "lowrank", builders, 2)), "s"),
        "lowrank.coeffs_checked": (count("lowrank", "coeffs"), "count"),
        "lowrank.verify_s": (med(lambda s: fn_stat(s, "lowrank", {"verify_coefficients"}, 2)), "s"),
        "polynomial.calls": (stats["polynomial"]["calls"], "count"),
        "polynomial.terms_out": (count("polynomial", "terms_out"), "count"),
        "polynomial.self_s": (med(lambda s: s["polynomial"]["self_s"]), "s"),
        "cli.solves": (fn_stat(stats, "cli", {"main"}, 0), "count"),
        "cli.self_s": (med(lambda s: s["cli"]["self_s"]), "s"),
        "trace.overhead_frac": (statistics.median(p["norm"] for p in traced)
                                / statistics.median(p["norm"] for p in plain) - 1.0, "ratio"),
        "trace.unaccounted_frac": (1.0 - med(lambda s: sum(s[layer]["self_s"] for layer in LAYERS))
                                   / statistics.median(p["wall"] for p in traced), "ratio"),
    }
    wall = traced[-1]["wall"]
    ranked = sorted(LAYERS, key=lambda layer: -stats[layer]["self_s"])
    shares = ", ".join(f"{layer} {stats[layer]['self_s'] / wall:.1%}" for layer in ranked)
    print(f"# {workload}: dominant layer {ranked[0]}; self-time shares of traced wall {shares}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}, problems


def hand_count_check():
    """Computed counts on estimate (2,2,2)x(2,2,2) with 1e5 samples match a hand
    count: 9 cells x 1e5 draws, and 1e5 matrices x (2^6 - 1) subsets."""
    import tablecount.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        rc, report, _, _ = run_solve(cli.main, ["estimate", "--rows", "2,2,2", "--cols", "2,2,2",
                                             "--samples", "100000", "--seed", "1"])
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats(0)
    draws = stats["rng"]["counts"].get("draws", 0)
    steps = stats["permanent"]["counts"].get("subset_steps", 0)
    samples = stats["counting"]["counts"].get("samples", 0)
    if rc != 0 or (draws, steps, samples) != (9 * 10**5, 63 * 10**5, 10**5):
        return f"hand count: rc {rc}, draws {draws}, subset steps {steps}, samples {samples}"
    return None


def run_all(args):
    """Each workload in its own child process; a failed child fails the run."""
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=str(ROOT), timeout=900)
        ok = ok and done.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tablecount" / "cli.py").is_file():
        print(f"error: no tablecount sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        problem = hand_count_check()
        if problem:
            print(f"FAIL {problem}", file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
