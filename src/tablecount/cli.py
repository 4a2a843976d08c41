"""Command line front end: every counting path behind one executable.

Reports are JSON objects (or aligned text with --output table).  Identical
arguments and seed give identical reports except for the elapsed_ms field
and compare's per-method ms.
Exact values (integer counts, rationals) that cannot survive a float round
trip are emitted as JSON strings, or as null when their decimal form would
pass the interpreter's integer string limit; every exact value comes with its
natural log as log_value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from .errors import BudgetError, CertificationError, SurjectionSamplingError, TableCountError, ValidationError
from .lowrank import _band_report, approx_coefficients, build_e_tilde, build_h_tilde, verify_coefficients
from .polynomial import SparsePolynomial, poly_to_text
from .counting import (
    Margins,
    bekessy_estimate,
    bekessy_log_estimate,
    exact_count_01,
    exact_count_dp,
    fisher_yates_count,
    lowrank_01_count,
    lowrank_asymptotic_count,
    lowrank_column_sets_count,
    lowrank_weighted_count,
    margins_from_csv_text,
    margins_from_json_text,
    mc_estimate_count,
    variance_ratio_report,
    weighted_fy_count,
    weights_from_csv_text,
    weights_from_json_text,
)

# fixed default so bare invocations reproduce; --seed or TABLECOUNT_SEED override
DEFAULT_SEED = 1729
_SAFE_INT = 1 << 53


def _encode(value: Any, field: str = "report") -> Any:
    """JSON-safe encoding: exact values go to strings when floats would lie.

    A non-finite float has no JSON form; it fails validation, naming its field.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and abs(value) < _SAFE_INT:
        return value
    if isinstance(value, (int, Fraction)):
        try:
            return str(value)
        except ValueError:  # past sys.get_int_max_str_digits(); log_value still holds it
            return None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"report field {field!r} is not finite ({value})")
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v, field) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v, k) for k, v in value.items()}
    return value


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_column_sets(text: str) -> List[List[int]]:
    # semicolon-separated columns, comma-separated sums: "0,1,2;1,2"
    return [_parse_int_list(part, "column set") for part in text.split(";")]


def _read_table(path: str, from_csv, from_json):
    """Parse a file with from_csv when its name ends in .csv, else with from_json."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}")
    return (from_csv if path.endswith(".csv") else from_json)(text)


def _load_margins(args: argparse.Namespace) -> Margins:
    if args.margins_file is not None:
        if args.rows is not None or args.cols is not None:
            raise ValidationError("give margins inline or by file, not both")
        return _read_table(args.margins_file, margins_from_csv_text, margins_from_json_text)
    if args.rows is None or args.cols is None:
        raise ValidationError("need --rows and --cols, or --margins-file")
    return Margins(_parse_int_list(args.rows, "--rows"), _parse_int_list(args.cols, "--cols"))


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TABLECOUNT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"TABLECOUNT_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _exact_fields(key: str, value: Any) -> Dict[str, Any]:
    """An exact value and its natural log, from the integer logs of numerator
    and denominator so that it is finite whatever the size; null at zero."""
    if not value:
        log_value = None
    elif isinstance(value, float):
        log_value = math.log(value)
    else:
        q = Fraction(value)
        log_value = math.log(q.numerator) - math.log(q.denominator)
    return {key: value, "log_value": log_value}


def _on_margins(fields):
    """A handler that loads the margins, echoes them, then adds fields(args, margins)."""

    def handler(args: argparse.Namespace) -> Dict[str, Any]:
        margins = _load_margins(args)
        return {"rows": list(margins.row_sums), "cols": list(margins.col_sums),
                **fields(args, margins)}

    return handler


def _mc_fields(args: argparse.Namespace, margins: Margins, weights=None) -> Dict[str, Any]:
    est = mc_estimate_count(margins, args.samples, _resolve_seed(args), weights=weights)
    return {
        "mean": est.mean,
        "std_err": est.std_err,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "samples": est.num_samples,
        "seed": est.seed,
    }


def _lowrank_fields(res: Any) -> Dict[str, Any]:
    lo, hi = res.guarantee_factor
    return {
        "value": res.value,
        "band_low": lo,
        "band_high": hi,
        "epsilon": res.epsilon,
        "seed": res.seed,
        "form_counts": list(res.form_counts),
        "terms": res.term_count,
        "repeats": res.repeats,
    }


def _weighted(args: argparse.Namespace, margins: Margins) -> Dict[str, Any]:
    weights = _read_table(args.weights_file, weights_from_csv_text, weights_from_json_text)
    if args.method == "exact":
        fields = _exact_fields("value", weighted_fy_count(margins, weights))
    elif args.method == "mc":
        fields = _mc_fields(args, margins, weights)
    else:
        fields = _lowrank_fields(lowrank_weighted_count(
            margins, weights, args.epsilon, _resolve_seed(args), repeats=args.repeats))
    return {"method": args.method, **fields}


def _lowrank_colsets(args: argparse.Namespace) -> Dict[str, Any]:
    if args.rows is None:
        raise ValidationError("need --rows")
    if args.col_sets is None:
        raise ValidationError("need --col-sets (e.g. '0,1,2;1,2')")
    rows = _parse_int_list(args.rows, "--rows")
    column_sets = _parse_column_sets(args.col_sets)
    res = lowrank_column_sets_count(
        rows, column_sets, args.epsilon, _resolve_seed(args), repeats=args.repeats
    )
    return {"rows": rows, "col_sets": column_sets, **_lowrank_fields(res)}


def _verify_coeffs(args: argparse.Namespace) -> Dict[str, Any]:
    seed = _resolve_seed(args)
    build = build_h_tilde if args.kind == "complete" else build_e_tilde
    approx = build(args.degree, args.vars, args.epsilon, seed)
    if args.dump_poly is None:
        rep = verify_coefficients(approx)
    else:
        # one coefficient pass feeds the band check and the dump
        coefficients = dict(approx_coefficients(approx))
        rep = _band_report(coefficients.items(), approx.r, approx.epsilon)
        try:
            with open(args.dump_poly, "w", encoding="utf-8") as handle:
                handle.write(poly_to_text(SparsePolynomial(approx.num_vars, coefficients)))
        except OSError as exc:
            raise ValidationError(f"cannot write {args.dump_poly}: {exc.strerror or exc}")
    lo, hi = rep.band
    return {
        "kind": args.kind,
        "degree": args.degree,
        "vars": args.vars,
        "epsilon": args.epsilon,
        "forms": approx.form_count,
        "seed": seed,
        "min_ratio": rep.min_ratio,
        "max_ratio": rep.max_ratio,
        "band_low": lo,
        "band_high": hi,
        "checked": rep.checked,
        "violations": len(rep.violations),
        "ok": rep.ok,
    }


def _variance(args: argparse.Namespace, margins: Margins) -> Dict[str, Any]:
    seed = _resolve_seed(args)
    rep = variance_ratio_report(margins, args.samples, seed)
    return {
        "ratio": rep.empirical_ratio,
        "slack": rep.slack,
        "bound_general": rep.bound_part2,
        "rho": rep.rho,
        "bound_bounded_exponent": rep.bound_part3_exponent,
        "bound_bounded": rep.bound_part3,
        "within_general": rep.within_part2,
        "samples": rep.num_samples,
        "seed": seed,
    }


def _bekessy(args: argparse.Namespace, margins: Margins) -> Dict[str, Any]:
    log_value = bekessy_log_estimate(margins)
    return {"value": bekessy_estimate(margins, log_value), "log_value": log_value}


def _compare(args: argparse.Namespace, margins: Margins) -> Dict[str, Any]:
    """Every route on one margin pair.  A budget error on the exact count
    ends the run; on another route it fills that route's error field, as does
    the low-rank route's certification error."""
    seed = _resolve_seed(args)
    exact = exact_count_dp(margins)
    methods: List[Dict[str, Any]] = []

    def add(name, value):
        row = {"method": name, "value": None, "rel_error": None}
        start = time.perf_counter()
        try:
            row["value"] = value()
        except (BudgetError, CertificationError) as exc:
            row["error"] = str(exc)
        row["ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        if row["value"] is not None:
            row["rel_error"] = float(abs(Fraction(row["value"]) / exact - 1))
        methods.append(row)

    add("exact", lambda: exact)
    add("fy", lambda: fisher_yates_count(margins))
    add("bekessy", lambda: bekessy_estimate(margins))
    add("montecarlo", lambda: mc_estimate_count(margins, args.samples, seed).mean)
    add("lowrank",
        lambda: lowrank_asymptotic_count(margins, args.epsilon, seed, repeats=args.repeats).value)
    return {"seed": seed, "samples": args.samples, "epsilon": args.epsilon, "methods": methods}


_ROWS = (("--rows", dict(help="comma-separated row sums")),)
_MARGINS = _ROWS + (
    ("--cols", dict(help="comma-separated column sums")),
    ("--margins-file", dict(help="JSON {rows, cols} or two-line CSV")),
)
_SAMPLES = (("--samples", dict(type=int, default=10000)),)
_EPSILON = (("--epsilon", dict(type=float, default=0.2)),)
_LOWRANK = _EPSILON + (("--repeats", dict(type=int, default=1)),)
_COMMON = (
    ("--seed", dict(type=int, default=None,
                    help=f"RNG seed (default {DEFAULT_SEED}, or TABLECOUNT_SEED)")),
    ("--output", dict(choices=("json", "table"), default="json")),
)

# subcommand -> (flags in help order, report builder).  The builders name the
# counting functions inside their bodies, so a wrapper put on this module's
# attribute (a profiler, a test double) sees every call.
_COMMANDS = {
    "count": (_MARGINS + _COMMON,
              _on_margins(lambda args, m: _exact_fields("count", exact_count_dp(m)))),
    "count01": (_MARGINS + _COMMON,
                _on_margins(lambda args, m: _exact_fields("count", exact_count_01(m)))),
    "fy": (_MARGINS + _COMMON,
           _on_margins(lambda args, m: _exact_fields("value", fisher_yates_count(m)))),
    "bekessy": (_MARGINS + _COMMON, _on_margins(_bekessy)),
    "estimate": (_MARGINS + _SAMPLES + _COMMON, _on_margins(_mc_fields)),
    "weighted": (
        _MARGINS
        + (("--weights-file", dict(required=True, help="JSON {weights} or CSV grid")),
           ("--method", dict(choices=("exact", "mc", "lowrank"), default="exact")))
        + _SAMPLES + _LOWRANK + _COMMON,
        _on_margins(_weighted),
    ),
    "lowrank": (_MARGINS + _LOWRANK + _COMMON, _on_margins(lambda args, m: _lowrank_fields(
        lowrank_asymptotic_count(m, args.epsilon, _resolve_seed(args), repeats=args.repeats)))),
    "lowrank01": (_MARGINS + _LOWRANK + _COMMON, _on_margins(lambda args, m: _lowrank_fields(
        lowrank_01_count(m, args.epsilon, _resolve_seed(args), repeats=args.repeats)))),
    "lowrank-colsets": (
        _ROWS
        + (("--col-sets", dict(help="allowed sums per column, ';'-separated")),)
        + _LOWRANK + _COMMON,
        _lowrank_colsets,
    ),
    "verify-coeffs": (
        (("--kind", dict(choices=("complete", "elementary"), default="complete")),
         ("--degree", dict(type=int, required=True)),
         ("--vars", dict(type=int, required=True)))
        + _EPSILON
        + (("--dump-poly", dict(help="write the approximating polynomial to this path")),)
        + _COMMON,
        _verify_coeffs,
    ),
    "variance": (_MARGINS + _SAMPLES + _COMMON, _on_margins(_variance)),
    "compare": (_MARGINS + _SAMPLES + _LOWRANK + _COMMON, _on_margins(_compare)),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ValidationError, so they leave as single-line
    JSON like every other error; -h still prints help."""

    def error(self, message: str):
        raise ValidationError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it
    unchanged, and TABLECOUNT_SEED is read when a command runs."""
    parser = _Parser(
        prog="tablecount",
        description="Count integer matrices with prescribed row and column sums.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (flags, _) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for flag, spec in flags:
            sub.add_argument(flag, **spec)
    return parser

def _render_table(report: Dict[str, Any]) -> str:
    lines = []
    if "methods" in report:
        for key, value in report.items():
            if key != "methods":
                lines.append(f"{key:<12} {value}")
        lines.append(f"{'method':<12} {'value':>16} {'rel_error':>12} {'ms':>10}")
        for row in report["methods"]:
            value, rel = row["value"], row["rel_error"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            rel_shown = "-" if rel is None else f"{rel:.4g}"
            lines.append(f"{row['method']:<12} {shown:>16} {rel_shown:>12} {row['ms']:>10.3f}"
                         + (f"  {row['error']}" if "error" in row else ""))
    else:
        for key, value in report.items():
            lines.append(f"{key:<12} {value}")
    return "\n".join(lines)


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        # non-finite floats are reported by _encode, so numpy's floating-point
        # warnings stay off stderr; a filter does it without importing numpy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = _COMMANDS[args.command][1](args)
        report = {"command": args.command, **report}
        report["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        encoded = _encode(report)
    except (BudgetError, SurjectionSamplingError) as exc:
        return _fail(str(exc), 3)
    except TableCountError as exc:
        return _fail(str(exc), 2)
    except OverflowError as exc:
        return _fail(f"the result overflows a float: {exc}", 2)
    try:
        if args.output == "table":
            print(_render_table(encoded))
        else:
            print(json.dumps(encoded, sort_keys=True, allow_nan=False))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (as with `| head -c 1`): point stdout at devnull
        # so that the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
