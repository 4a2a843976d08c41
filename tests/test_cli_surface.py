"""The command line surface: each subcommand's flags and defaults, the order
of its report fields, and the examples README shows."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from tablecount.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

_MARGINS = [("--rows", None, False, None), ("--cols", None, False, None),
            ("--margins-file", None, False, None)]
_COMMON = [("--seed", None, False, None), ("--output", "json", False, ("json", "table"))]
_SAMPLES = ("--samples", 10000, False, None)
_EPSILON = ("--epsilon", 0.2, False, None)
_REPEATS = ("--repeats", 1, False, None)

# (option string, default, required, choices) in help order
OPTIONS = {
    "count": _MARGINS + _COMMON,
    "count01": _MARGINS + _COMMON,
    "fy": _MARGINS + _COMMON,
    "bekessy": _MARGINS + _COMMON,
    "estimate": _MARGINS + [_SAMPLES] + _COMMON,
    "weighted": _MARGINS + [
        ("--weights-file", None, True, None),
        ("--method", "exact", False, ("exact", "mc", "lowrank")),
        _SAMPLES, _EPSILON, _REPEATS,
    ] + _COMMON,
    "lowrank": _MARGINS + [_EPSILON, _REPEATS] + _COMMON,
    "lowrank01": _MARGINS + [_EPSILON, _REPEATS] + _COMMON,
    "lowrank-colsets": [
        ("--rows", None, False, None), ("--col-sets", None, False, None), _EPSILON, _REPEATS,
    ] + _COMMON,
    "verify-coeffs": [
        ("--kind", "complete", False, ("complete", "elementary")),
        ("--degree", None, True, None), ("--vars", None, True, None),
        _EPSILON, ("--dump-poly", None, False, None),
    ] + _COMMON,
    "variance": _MARGINS + [_SAMPLES] + _COMMON,
    "compare": _MARGINS + [_SAMPLES, _EPSILON, _REPEATS] + _COMMON,
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommand_options_and_defaults():
    subs = _subparsers()
    assert list(subs) == list(OPTIONS)
    for name, sub in subs.items():
        got = [(a.option_strings[-1], a.default, a.required, a.choices)
               for a in sub._actions if a.dest != "help"]
        assert got == OPTIONS[name], name
        assert all(len(a.option_strings) == 1 for a in sub._actions if a.dest != "help")


_MARGIN_ECHO = ["command", "rows", "cols"]
_EXACT = ["log_value", "elapsed_ms"]
_ESTIMATE = ["mean", "std_err", "ci_low", "ci_high", "samples", "seed", "elapsed_ms"]
_LOWRANK = ["value", "band_low", "band_high", "epsilon", "seed", "form_counts", "terms",
            "repeats", "elapsed_ms"]
_METHODS = ["method", "exact", "fy", "bekessy", "montecarlo", "lowrank"]

# one small input per subcommand (three for weighted's methods), and its
# report fields in the order --output table prints them
REPORT_KEYS = [
    ("count --rows 2,2 --cols 2,2", _MARGIN_ECHO + ["count"] + _EXACT),
    ("count01 --rows 1,1 --cols 1,1", _MARGIN_ECHO + ["count"] + _EXACT),
    ("fy --rows 2,2 --cols 2,2", _MARGIN_ECHO + ["value"] + _EXACT),
    ("bekessy --rows 2,2 --cols 2,2", _MARGIN_ECHO + ["value"] + _EXACT),
    ("estimate --rows 2,2 --cols 2,2 --samples 100", _MARGIN_ECHO + _ESTIMATE),
    ("weighted --rows 2,2 --cols 2,2 --weights-file w.json",
     _MARGIN_ECHO + ["method", "value"] + _EXACT),
    ("weighted --rows 2,2 --cols 2,2 --weights-file w.json --method mc --samples 100",
     _MARGIN_ECHO + ["method"] + _ESTIMATE),
    ("weighted --rows 2,2 --cols 2,2 --weights-file w.json --method lowrank --epsilon 0.5",
     _MARGIN_ECHO + ["method"] + _LOWRANK),
    ("lowrank --rows 2,2 --cols 2,2", _MARGIN_ECHO + _LOWRANK),
    ("lowrank01 --rows 1,1 --cols 1,1", _MARGIN_ECHO + _LOWRANK),
    ("lowrank-colsets --rows 2,1 --col-sets 1,2;1,2 --epsilon 0.3",
     ["command", "rows", "col_sets"] + _LOWRANK),
    ("verify-coeffs --degree 2 --vars 3 --epsilon 0.7",
     ["command", "kind", "degree", "vars", "epsilon", "forms", "seed", "min_ratio", "max_ratio",
      "band_low", "band_high", "checked", "violations", "ok", "elapsed_ms"]),
    ("variance --rows 1,1 --cols 1,1 --samples 100",
     _MARGIN_ECHO + ["ratio", "slack", "bound_general", "rho", "bound_bounded_exponent",
                     "bound_bounded", "within_general", "samples", "seed", "elapsed_ms"]),
    ("compare --rows 2,2 --cols 2,2 --samples 100",
     _MARGIN_ECHO + ["seed", "samples", "epsilon", "methods", "elapsed_ms"]),
]


@pytest.mark.parametrize("line,keys", REPORT_KEYS, ids=[line for line, _ in REPORT_KEYS])
def test_report_keys_and_order(capsys, tmp_path, monkeypatch, line, keys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text('{"weights": [[1, 2], [3, 4]]}')
    argv = line.split()
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == set(keys)
    assert main(argv + ["--output", "table"]) == 0
    first_column = [row.split()[0] for row in capsys.readouterr().out.splitlines()]
    if "methods" in keys:
        assert [row["method"] for row in report["methods"]] == _METHODS[1:]
        assert all(set(row) == {"method", "value", "rel_error", "ms"} for row in report["methods"])
        keys = [k for k in keys if k != "methods"] + _METHODS
    assert first_column == keys


def _readme_cli_examples():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[1])
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text('{"weights": [[1, 2], [3, 4]]}')
    assert argv[0] == "tablecount"
    code = main(argv[1:])
    assert code == 0, capsys.readouterr().err
