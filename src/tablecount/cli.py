"""Command line front end: every counting path behind one executable.

Reports are JSON objects (or aligned text with --output table).  Identical
arguments and seed give identical reports except for the elapsed_ms field.
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
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import BudgetError, SurjectionSamplingError, TableCountError, ValidationError
from .lowrank import _band_report, approx_coefficients, build_e_tilde, build_h_tilde, verify_coefficients
from .polynomial import SparsePolynomial, poly_to_text
from .counting import (
    Margins,
    WeightMatrix,
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


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}")


def _load_margins(args: argparse.Namespace) -> Margins:
    if args.margins_file is not None:
        if args.rows is not None or args.cols is not None:
            raise ValidationError("give margins inline or by file, not both")
        text = _read_text(args.margins_file)
        if args.margins_file.endswith(".csv"):
            return margins_from_csv_text(text)
        return margins_from_json_text(text)
    if args.rows is None or args.cols is None:
        raise ValidationError("need --rows and --cols, or --margins-file")
    return Margins(_parse_int_list(args.rows, "--rows"), _parse_int_list(args.cols, "--cols"))


def _load_weights(args: argparse.Namespace) -> WeightMatrix:
    if args.weights_file is None:
        raise ValidationError("need --weights-file")
    text = _read_text(args.weights_file)
    if args.weights_file.endswith(".csv"):
        return weights_from_csv_text(text)
    return weights_from_json_text(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TABLECOUNT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"TABLECOUNT_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _margins_echo(margins: Margins) -> Dict[str, Any]:
    return {"rows": list(margins.row_sums), "cols": list(margins.col_sums)}


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


# margins-only commands and the report fields each one fills.  The lambdas
# look their functions up when called, so a wrapper put on this module's
# attribute (a profiler, a test double) sees every call.
_MARGIN_COMMANDS = {
    "count": lambda m: _exact_fields("count", exact_count_dp(m)),
    "count01": lambda m: _exact_fields("count", exact_count_01(m)),
    "fy": lambda m: _exact_fields("value", fisher_yates_count(m)),
    "bekessy": lambda m: {"value": bekessy_estimate(m), "log_value": bekessy_log_estimate(m)},
}


def _cmd_margins(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    report = _margins_echo(margins)
    report.update(_MARGIN_COMMANDS[args.command](margins))
    return report


def _cmd_estimate(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    seed = _resolve_seed(args)
    est = mc_estimate_count(margins, args.samples, seed)
    report = _margins_echo(margins)
    report.update(_estimate_fields(est))
    return report


def _cmd_weighted(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    weights = _load_weights(args)
    report = _margins_echo(margins)
    report["method"] = args.method
    if args.method == "exact":
        report.update(_exact_fields("value", weighted_fy_count(margins, weights)))
    elif args.method == "mc":
        seed = _resolve_seed(args)
        est = mc_estimate_count(margins, args.samples, seed, weights=weights)
        report.update(_estimate_fields(est))
    else:
        seed = _resolve_seed(args)
        res = lowrank_weighted_count(margins, weights, args.epsilon, seed, repeats=args.repeats)
        report.update(_lowrank_fields(res))
    return report


def _estimate_fields(est: Any) -> Dict[str, Any]:
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


def _cmd_lowrank(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    count = lowrank_01_count if args.command == "lowrank01" else lowrank_asymptotic_count
    res = count(margins, args.epsilon, _resolve_seed(args), repeats=args.repeats)
    report = _margins_echo(margins)
    report.update(_lowrank_fields(res))
    return report


def _cmd_lowrank_colsets(args: argparse.Namespace) -> Dict[str, Any]:
    if args.rows is None:
        raise ValidationError("need --rows")
    if args.col_sets is None:
        raise ValidationError("need --col-sets (e.g. '0,1,2;1,2')")
    rows = _parse_int_list(args.rows, "--rows")
    column_sets = _parse_column_sets(args.col_sets)
    res = lowrank_column_sets_count(
        rows, column_sets, args.epsilon, _resolve_seed(args), repeats=args.repeats
    )
    report: Dict[str, Any] = {"rows": rows, "col_sets": column_sets}
    report.update(_lowrank_fields(res))
    return report


def _cmd_verify_coeffs(args: argparse.Namespace) -> Dict[str, Any]:
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


def _cmd_variance(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    seed = _resolve_seed(args)
    rep = variance_ratio_report(margins, args.samples, seed)
    report = _margins_echo(margins)
    report.update(
        ratio=rep.empirical_ratio,
        slack=rep.slack,
        bound_general=rep.bound_part2,
        rho=rep.rho,
        bound_bounded_exponent=rep.bound_part3_exponent,
        bound_bounded=rep.bound_part3,
        within_general=rep.within_part2,
        samples=rep.num_samples,
        seed=seed,
    )
    return report


def _cmd_compare(args: argparse.Namespace) -> Dict[str, Any]:
    margins = _load_margins(args)
    seed = _resolve_seed(args)
    exact = exact_count_dp(margins)
    methods: List[Dict[str, Any]] = []

    def add(name, value):
        start = time.perf_counter()
        got = value()
        ms = (time.perf_counter() - start) * 1000.0
        rel = None if got is None else abs(float(got) / exact - 1.0)
        methods.append({"method": name, "value": got, "rel_error": rel, "ms": round(ms, 3)})

    add("exact", lambda: exact)
    add("fy", lambda: fisher_yates_count(margins))
    add("bekessy", lambda: bekessy_estimate(margins))
    add("montecarlo", lambda: mc_estimate_count(margins, args.samples, seed).mean)
    add("lowrank",
        lambda: lowrank_asymptotic_count(margins, args.epsilon, seed, repeats=args.repeats).value)
    report = _margins_echo(margins)
    report.update(seed=seed, samples=args.samples, epsilon=args.epsilon, methods=methods)
    return report


_HANDLERS = {
    **dict.fromkeys(_MARGIN_COMMANDS, _cmd_margins),
    "estimate": _cmd_estimate,
    "weighted": _cmd_weighted,
    "lowrank": _cmd_lowrank,
    "lowrank01": _cmd_lowrank,
    "lowrank-colsets": _cmd_lowrank_colsets,
    "verify-coeffs": _cmd_verify_coeffs,
    "variance": _cmd_variance,
    "compare": _cmd_compare,
}


def _add_margin_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rows", help="comma-separated row sums")
    sub.add_argument("--cols", help="comma-separated column sums")
    sub.add_argument("--margins-file", help="JSON {rows, cols} or two-line CSV")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default {DEFAULT_SEED}, or TABLECOUNT_SEED)")
    sub.add_argument("--output", choices=("json", "table"), default="json")


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

    for name in _MARGIN_COMMANDS:
        sub = subs.add_parser(name)
        _add_margin_flags(sub)
        _add_common_flags(sub)

    sub = subs.add_parser("estimate")
    _add_margin_flags(sub)
    sub.add_argument("--samples", type=int, default=10000)
    _add_common_flags(sub)

    sub = subs.add_parser("weighted")
    _add_margin_flags(sub)
    sub.add_argument("--weights-file", required=True, help="JSON {weights} or CSV grid")
    sub.add_argument("--method", choices=("exact", "mc", "lowrank"), default="exact")
    sub.add_argument("--samples", type=int, default=10000)
    sub.add_argument("--epsilon", type=float, default=0.2)
    sub.add_argument("--repeats", type=int, default=1)
    _add_common_flags(sub)

    for name in ("lowrank", "lowrank01"):
        sub = subs.add_parser(name)
        _add_margin_flags(sub)
        sub.add_argument("--epsilon", type=float, default=0.2)
        sub.add_argument("--repeats", type=int, default=1)
        _add_common_flags(sub)

    sub = subs.add_parser("lowrank-colsets")
    sub.add_argument("--rows", help="comma-separated row sums")
    sub.add_argument("--col-sets", help="allowed sums per column, ';'-separated")
    sub.add_argument("--epsilon", type=float, default=0.2)
    sub.add_argument("--repeats", type=int, default=1)
    _add_common_flags(sub)

    sub = subs.add_parser("verify-coeffs")
    sub.add_argument("--kind", choices=("complete", "elementary"), default="complete")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--vars", type=int, required=True)
    sub.add_argument("--epsilon", type=float, default=0.2)
    sub.add_argument("--dump-poly", help="write the approximating polynomial to this path")
    _add_common_flags(sub)

    sub = subs.add_parser("variance")
    _add_margin_flags(sub)
    sub.add_argument("--samples", type=int, default=10000)
    _add_common_flags(sub)

    sub = subs.add_parser("compare")
    _add_margin_flags(sub)
    sub.add_argument("--samples", type=int, default=10000)
    sub.add_argument("--epsilon", type=float, default=0.2)
    sub.add_argument("--repeats", type=int, default=1)
    _add_common_flags(sub)

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
            lines.append(
                f"{row['method']:<12} {shown:>16} {rel_shown:>12} {row['ms']:>10.3f}"
            )
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
        # non-finite floats are reported by _encode, so numpy need not warn
        with np.errstate(all="ignore"):
            report = _HANDLERS[args.command](args)
        report = {"command": args.command, **report}
        report["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        encoded = _encode(report)
    except (BudgetError, SurjectionSamplingError) as exc:
        return _fail(str(exc), 3)
    except TableCountError as exc:
        return _fail(str(exc), 2)
    except OverflowError as exc:
        return _fail(f"the result overflows a float: {exc}", 2)
    if args.output == "table":
        print(_render_table(encoded))
    else:
        print(json.dumps(encoded, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
