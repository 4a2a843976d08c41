import json
import math
import time
from fractions import Fraction

import pytest

import tablecount.cli as cli
import tablecount.counting as counting
import tablecount.lowrank as lowrank
from tablecount.cli import DEFAULT_SEED, build_parser, main
from tablecount.errors import EnumerationBudgetError
from tablecount.lowrank import approx_coefficients, build_e_tilde, build_h_tilde
from tablecount.polynomial import poly_to_text


def run_cli(capsys, *argv, env=None, monkeypatch=None):
    if env is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, **kw):
    code, out, err = run_cli(capsys, *argv, **kw)
    assert code == 0, err
    return json.loads(out)


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def test_count_example(capsys):
    report = run_json(capsys, "count", "--rows", "2,2", "--cols", "2,2")
    assert report["count"] == 3


def test_count01(capsys):
    report = run_json(capsys, "count01", "--rows", "2,2,2", "--cols", "2,2,2")
    assert report["count"] == 6


def test_fy_example(capsys):
    report = run_json(capsys, "fy", "--rows", "2,2", "--cols", "2,2")
    assert report["value"] == "3/2"


def test_bekessy(capsys):
    report = run_json(capsys, "bekessy", "--rows", "2,2", "--cols", "2,2")
    assert report["value"] == pytest.approx(2.4730819, rel=1e-6)


def test_estimate_ci_contains_truth(capsys):
    report = run_json(
        capsys, "estimate", "--rows", "2,2,2", "--cols", "2,2,2",
        "--samples", "20000", "--seed", "42",
    )
    assert report["ci_low"] <= 21 <= report["ci_high"]
    assert report["seed"] == 42


def test_mismatched_margins_names_both_totals(capsys):
    code, out, err = run_cli(capsys, "count", "--rows", "2,2", "--cols", "3,2")
    assert code == 2
    message = json.loads(err)["error"]
    assert "4" in message and "5" in message


def test_budget_error_exits_3(capsys):
    # 128 forms for row value 2 taken thrice and for row value 1 taken twice
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lowrank", "--rows", "2,2,2,1,1", "--cols", "2,2,2,2")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"].startswith("pairing needs 2953666560 terms, cap is 10000000")


@pytest.mark.parametrize(
    "argv, message",
    [
        # 705432 monomials per row: 2.9 billion element operations, counted before any table
        (["lowrank", "--rows", "11,11", "--cols", ",".join(["1"] * 22)],
         "box engine would exceed 1200000000 element operations"),
        # a billion repeats of one family: charged before any repeat seed is derived
        (["lowrank", "--rows", "1", "--cols", "1", "--repeats", "1000000000"], "draw budget"),
        # 2^24 and 2^30 states: the box is refused before any array is allocated
        (["lowrank", "--rows", "12,12", "--cols", ",".join(["1"] * 24)],
         "box of 16777216 cells exceeds the limit 4194304"),
        (["lowrank", "--rows", "30", "--cols", ",".join(["1"] * 30)],
         "box of 1073741824 cells exceeds the limit 4194304"),
    ],
)
def test_lowrank_budget_exits_3_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == "" and err.count("\n") == 1
    assert message in json.loads(err)["error"]


def test_lowrank_inside_budget_answers_at_once(capsys):
    # 12870 monomials per row over a box of 2^16 cells: 6.7 million element operations
    start = time.perf_counter()
    report = run_json(capsys, "lowrank", "--rows", "8,8", "--cols", ",".join(["1"] * 16))
    assert time.perf_counter() - start < 2.0
    assert report["form_counts"] == [128] and report["value"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--rows", "2,2", "--cols", "2,2", "--samples", "1000000000000"],
        ["verify-coeffs", "--degree", "6", "--vars", "10"],
        ["verify-coeffs", "--degree", "10", "--vars", "10"],
    ],
)
def test_oversized_draw_request_exits_3_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == "" and err.count("\n") == 1
    assert "draw budget" in json.loads(err)["error"]


def test_verify_coeffs_target_budget_exits_3_at_once(capsys):
    # C(37, 6) = 2,324,784 square-free targets, counted before any coefficient
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify-coeffs", "--kind", "elementary", "--degree", "6", "--vars", "37",
                             "--epsilon", "0.99")
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "degree-6 monomials exceed budget 2000000"


def test_perm_cap_flag_is_gone(capsys):
    margins = ["--rows", "2,2", "--cols", "2,2"]
    for argv in (
        ["estimate", *margins, "--samples", "10", "--perm-cap", "22"],
        *([command, *margins, "--term-cap", "10"] for command in ("lowrank", "lowrank01", "compare")),
        ["lowrank-colsets", "--rows", "2,2", "--col-sets", "2;2", "--term-cap", "10"],
        ["weighted", *margins, "--weights-file", "w.json", "--method", "lowrank", "--term-cap", "10"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and argv[-2] in json.loads(err)["error"]


def test_env_seed_used_only_without_flag(capsys, monkeypatch):
    report = run_json(
        capsys, "estimate", "--rows", "1,1", "--cols", "1,1", "--samples", "10",
        env={"TABLECOUNT_SEED": "33"}, monkeypatch=monkeypatch,
    )
    assert report["seed"] == 33
    report = run_json(
        capsys, "estimate", "--rows", "1,1", "--cols", "1,1", "--samples", "10",
        "--seed", "8", env={"TABLECOUNT_SEED": "33"}, monkeypatch=monkeypatch,
    )
    assert report["seed"] == 8


def test_default_seed_constant(capsys):
    report = run_json(capsys, "estimate", "--rows", "1,1", "--cols", "1,1", "--samples", "10")
    assert report["seed"] == DEFAULT_SEED


def test_bad_env_seed_rejected(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "estimate", "--rows", "1,1", "--cols", "1,1",
        env={"TABLECOUNT_SEED": "not-a-number"}, monkeypatch=monkeypatch,
    )
    assert code == 2
    # only commands that draw resolve a seed
    report = run_json(capsys, "count", "--rows", "1,1", "--cols", "1,1")
    assert report["count"] == 2


def test_reports_deterministic_modulo_timing(capsys):
    argv = ["lowrank", "--rows", "2,2", "--cols", "2,2", "--epsilon", "0.25", "--seed", "7"]
    a = run_json(capsys, *argv)
    b = run_json(capsys, *argv)
    assert strip_timing(a) == strip_timing(b)


def test_margins_file_json(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [2, 2], "cols": [2, 2]}')
    report = run_json(capsys, "count", "--margins-file", str(path))
    assert report["count"] == 3


def test_margins_file_csv(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,2\n2,2\n")
    report = run_json(capsys, "count", "--margins-file", str(path))
    assert report["count"] == 3


def test_margins_file_conflicts_with_inline(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [2, 2], "cols": [2, 2]}')
    code, out, err = run_cli(
        capsys, "count", "--margins-file", str(path), "--rows", "2,2", "--cols", "2,2"
    )
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "count", "--margins-file", "/no/such/file.json")
    assert code == 2


def test_unwritable_dump_path_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "p.txt"
    code, out, err = run_cli(
        capsys, "verify-coeffs", "--degree", "2", "--vars", "3", "--dump-poly", str(path)
    )
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith(f"cannot write {path}: ")


@pytest.mark.parametrize(
    "command,flag,name,text",
    [
        ("count", "--margins-file", "m.json", '{"rows": [2.5, 2], "cols": [2, 2]}'),
        ("count", "--margins-file", "m.json", '{"rows": [true, 1], "cols": [1, 1]}'),
        ("count", "--margins-file", "m.json", '{"rows": [2, 2], "cols": [2,'),
        ("count", "--margins-file", "m.json", '[[2, 2], [2, 2]]'),
        ("count", "--margins-file", "m.csv", "2,2.5\n2,2\n"),
        ("weighted", "--weights-file", "w.json", '{"grid": [[1, 2], [2, 1]]}'),
        ("weighted", "--weights-file", "w.json", '{"weights": [[1, 2], [2, 1]'),
        ("weighted", "--weights-file", "w.json", '{"weights": [[1, null], [2, 1]]}'),
        ("weighted", "--weights-file", "w.csv", "1,one\n1,1\n"),
    ],
)
def test_bad_input_file_exits_2(capsys, tmp_path, command, flag, name, text):
    path = tmp_path / name
    path.write_text(text)
    argv = [command, flag, str(path)]
    if command == "weighted":
        argv += ["--rows", "2,2", "--cols", "2,2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert "error" in json.loads(err)


def test_seed_taken_mod_2_64(capsys):
    argv = ["estimate", "--rows", "2,2", "--cols", "2,2", "--samples", "200"]
    negative = run_json(capsys, *argv, "--seed", "-1")
    wrapped = run_json(capsys, *argv, "--seed", str(2**64 - 1))
    assert negative["mean"] == wrapped["mean"]
    assert run_json(capsys, *argv, "--seed", str(10**23))["samples"] == 200


def test_weighted_exact(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"weights": [["1", "2"], ["1/2", "1"]]}')
    report = run_json(
        capsys, "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path)
    )
    assert report["value"] == "3/2"
    assert report["method"] == "exact"


def test_weighted_exact_wide_unit_margins(capsys, tmp_path):
    # unit weights on 0-1 tables: the value is the table count C(16, 8)
    path = tmp_path / "w.csv"
    path.write_text(",".join(["1"] * 16) + "\n" + ",".join(["1"] * 16) + "\n")
    report = run_json(
        capsys, "weighted", "--rows", "8,8", "--cols", ",".join(["1"] * 16),
        "--weights-file", str(path),
    )
    assert report["value"] == str(math.comb(16, 8))


def test_weighted_mc_and_lowrank(capsys, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("1,2\n1/2,1\n")
    mc = run_json(
        capsys, "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path),
        "--method", "mc", "--samples", "20000", "--seed", "3",
    )
    # unweighted-power target is 3 for these rank-1 weights
    assert mc["ci_low"] <= 3 <= mc["ci_high"]
    lr = run_json(
        capsys, "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path),
        "--method", "lowrank", "--epsilon", "0.3", "--seed", "3",
    )
    assert lr["band_low"] * 3 * 0.5 <= lr["value"] <= lr["band_high"] * 3 * 2.0


def test_lowrank_colsets(capsys):
    report = run_json(
        capsys, "lowrank-colsets", "--rows", "2,1", "--col-sets", "1,2;1,2",
        "--epsilon", "0.3", "--seed", "4",
    )
    assert report["col_sets"] == [[1, 2], [1, 2]]
    assert 1.0 <= report["value"] <= 9.0  # exact total is 4


def test_verify_coeffs_complete(capsys):
    report = run_json(
        capsys, "verify-coeffs", "--kind", "complete", "--degree", "2", "--vars", "6",
        "--epsilon", "0.3", "--seed", "9",
    )
    assert report["checked"] == 21
    assert report["ok"] is True
    assert report["band_low"] == pytest.approx(0.49)


def test_verify_coeffs_dump_poly(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    report = run_json(
        capsys, "verify-coeffs", "--kind", "elementary", "--degree", "2", "--vars", "4",
        "--epsilon", "0.3", "--seed", "9", "--dump-poly", str(path),
    )
    lines = path.read_text().strip().splitlines()
    assert len(lines) == report["checked"] == 6
    for line in lines:
        parts = line.split()
        assert len(parts) == 5  # coeff + one exponent per variable
        assert sum(int(p) for p in parts[1:]) == 2


def test_dump_poly_takes_one_coefficient_pass(capsys, tmp_path, monkeypatch):
    passes = []

    def counted(approx, *args, **kwargs):
        passes.append(approx.kind)
        return approx_coefficients(approx, *args, **kwargs)

    monkeypatch.setattr(cli, "approx_coefficients", counted)
    monkeypatch.setattr(lowrank, "approx_coefficients", counted)
    path = tmp_path / "poly.txt"
    report = run_json(
        capsys, "verify-coeffs", "--kind", "complete", "--degree", "2", "--vars", "4",
        "--epsilon", "0.5", "--seed", "9", "--dump-poly", str(path),
    )
    assert passes == ["complete"]
    assert len(path.read_text().splitlines()) == report["checked"] == 10


@pytest.mark.parametrize("kind,degree,nvars,epsilon", [("complete", 2, 3, 0.7), ("elementary", 2, 5, 0.3)])
def test_dump_poly_matches_expansion(capsys, tmp_path, kind, degree, nvars, epsilon):
    path = tmp_path / "poly.txt"
    run_json(
        capsys, "verify-coeffs", "--kind", kind, "--degree", str(degree), "--vars", str(nvars),
        "--epsilon", str(epsilon), "--seed", "9", "--dump-poly", str(path),
    )
    build = build_h_tilde if kind == "complete" else build_e_tilde
    reference = build(degree, nvars, epsilon, 9).expand()
    text = path.read_text()
    if kind == "elementary":
        assert text == poly_to_text(reference)
    dumped = {}
    for line in text.splitlines():
        token, *expo = line.split()
        dumped[tuple(map(int, expo))] = float(token)
    assert dumped.keys() == reference.terms.keys()
    for expo, coeff in reference.terms.items():
        assert dumped[expo] == pytest.approx(coeff, rel=1e-12)


def test_variance_report(capsys):
    report = run_json(
        capsys, "variance", "--rows", "1,1", "--cols", "1,1",
        "--samples", "30000", "--seed", "2",
    )
    assert report["bound_general"] == 16
    assert report["within_general"] is True
    assert abs(report["ratio"] - 2.5) < 5 * report["slack"]


def test_compare_unit_margins_fy_bekessy_exact(capsys):
    report = run_json(
        capsys, "compare", "--rows", "1,1,1", "--cols", "1,1,1",
        "--samples", "2000", "--seed", "1",
    )
    by_method = {row["method"]: row for row in report["methods"]}
    assert by_method["exact"]["value"] == 6
    assert by_method["fy"]["rel_error"] == 0.0
    assert by_method["bekessy"]["rel_error"] == 0.0


def test_compare_2x2_bekessy_error(capsys):
    report = run_json(
        capsys, "compare", "--rows", "2,2", "--cols", "2,2",
        "--samples", "2000", "--seed", "1",
    )
    by_method = {row["method"]: row for row in report["methods"]}
    assert by_method["exact"]["value"] == 3
    assert by_method["bekessy"]["rel_error"] == pytest.approx(0.176, abs=5e-4)
    assert set(by_method) == {"exact", "fy", "bekessy", "montecarlo", "lowrank"}


@pytest.mark.parametrize(
    "rows,cols,exact,failed,message",
    [
        ("4,4,4,4", "4,4,4,4", 10147, "lowrank", "pairing needs 11716640 terms, cap is 10000000"),
        ("12,12", "12,12", 13, "montecarlo", "margins total 24 exceeds permanent size limit 22"),
    ],
)
def test_compare_keeps_finished_methods_past_a_budget(capsys, rows, cols, exact, failed, message):
    argv = ["compare", "--rows", rows, "--cols", cols, "--samples", "10"]
    report = run_json(capsys, *argv)
    by_method = {row["method"]: row for row in report["methods"]}
    assert by_method["exact"]["value"] == exact
    for name, row in by_method.items():
        if name == failed:
            assert row["value"] is None and row["rel_error"] is None
            assert row["error"].startswith(message)
        else:
            assert row["value"] is not None and "error" not in row
    code, out, err = run_cli(capsys, *argv, "--output", "table")
    assert code == 0 and err == ""
    assert message in next(line for line in out.splitlines() if line.startswith(failed))


def test_compare_exact_budget_or_bad_input_still_fails(capsys, monkeypatch):
    def over_budget(margins):
        raise EnumerationBudgetError("enumeration exceeded 5 nodes", limit=5)

    code, out, err = run_cli(capsys, "compare", "--rows", "2,2", "--cols", "2,2", "--samples", "1")
    assert code == 2 and out == ""
    monkeypatch.setattr(cli, "exact_count_dp", over_budget)
    code, out, err = run_cli(capsys, "compare", "--rows", "2,2", "--cols", "2,2")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "enumeration exceeded 5 nodes"


def test_table_output_renders(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--rows", "2,2", "--cols", "2,2",
        "--samples", "2000", "--seed", "1", "--output", "table",
    )
    assert code == 0
    assert "method" in out and "bekessy" in out
    code, out, err = run_cli(capsys, "count", "--rows", "2,2", "--cols", "2,2", "--output", "table")
    assert code == 0
    assert "count" in out


def test_bekessy_computes_its_log_once(capsys, monkeypatch):
    calls = []
    log = counting.bekessy_log_estimate

    def counted(margins):
        calls.append(margins)
        return log(margins)

    monkeypatch.setattr(cli, "bekessy_log_estimate", counted)
    monkeypatch.setattr(counting, "bekessy_log_estimate", counted)
    report = run_json(capsys, "bekessy", "--rows", "3,3", "--cols", "2,2,2")
    assert len(calls) == 1
    assert report["log_value"] == pytest.approx(math.log(report["value"]), rel=1e-12)


def test_compare_reports_the_lowrank_certification_error(capsys):
    report = run_json(capsys, "compare", "--rows", "700", "--cols", "700", "--samples", "10")
    by_method = {row["method"]: row for row in report["methods"]}
    assert by_method["exact"]["value"] == 1
    row = by_method["lowrank"]
    assert row["value"] is None and row["rel_error"] is None
    assert "does not certify" in row["error"] and "at degree 700" in row["error"]
    code, out, err = run_cli(capsys, "lowrank", "--rows", "700", "--cols", "700")
    assert code == 2 and out == ""
    assert "does not certify" in json.loads(err)["error"]


def test_compare_past_float_range(capsys):
    # 171! passes the largest float, so rel_error is taken in exact arithmetic
    ones = ",".join(["1"] * 171)
    report = run_json(capsys, "compare", "--rows", ones, "--cols", ones)
    by_method = {row["method"]: row for row in report["methods"]}
    assert int(by_method["exact"]["value"]) == math.factorial(171)
    assert by_method["exact"]["rel_error"] == by_method["fy"]["rel_error"] == 0.0
    assert by_method["bekessy"]["value"] is None and by_method["bekessy"]["rel_error"] is None
    for name, message in (("montecarlo", "margins total 171 exceeds permanent size limit 22"),
                          ("lowrank", "pairing needs")):
        row = by_method[name]
        assert row["value"] is None and row["rel_error"] is None
        assert row["error"].startswith(message)


def test_bekessy_log_value_past_float_range(capsys):
    ones = ",".join(["1"] * 200)
    report = run_json(capsys, "bekessy", "--rows", ones, "--cols", ones)
    assert report["value"] is None
    assert report["log_value"] == pytest.approx(math.lgamma(201), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["lowrank", "--rows", "1,1", "--cols", "2"],
        ["lowrank01", "--rows", "1,1", "--cols", "2"],
        ["lowrank-colsets", "--rows", "2", "--col-sets", "2"],
    ],
)
def test_lowrank_single_column(capsys, argv):
    report = run_json(capsys, *argv)
    assert report["band_low"] <= report["value"] <= report["band_high"]  # exact count is 1


@pytest.mark.parametrize("rows,cols", [("4", "2,2"), ("2,2", "2,2")])
@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_lowrank01_rejects_repeats_below_one(capsys, rows, cols, repeats):
    # (4)x(2,2) has no 0-1 filling and is answered without sampling
    code, out, err = run_cli(capsys, "lowrank01", "--rows", rows, "--cols", cols, "--repeats", repeats)
    assert code == 2
    assert out == "" and json.loads(err)["error"] == "repeats must be at least 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--rows", "2,2", "--cols", "2,2", "--seed", "abc"],
        ["frobnicate"],
        ["count", "--rows"],
        [],
    ],
)
def test_argument_errors_exit_2_as_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert "error" in json.loads(err)


def test_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("method,field", [("exact", "value"), ("mc", "mean"), ("lowrank", "value")])
def test_non_finite_result_exits_2(capsys, tmp_path, method, field):
    path = tmp_path / "w.json"
    path.write_text('{"weights": [[1e200, 1e200], [1e200, 1e200]]}')
    code, out, err = run_cli(
        capsys, "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path),
        "--method", method, "--samples", "100",
    )
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert repr(field) in json.loads(err)["error"]


def test_parser_built_once_gives_same_reports(capsys):
    # one process: an argument error, then fy, then estimate, each printing
    # what it prints when it runs first
    sequence = [
        ["estimate", "--rows", "2,2", "--cols", "2,2", "--seed", "abc"],
        ["fy", "--rows", "3,3", "--cols", "2,2,2"],
        ["estimate", "--rows", "2,2", "--cols", "2,2", "--samples", "500", "--seed", "4"],
    ]

    def run(argv):
        code, out, err = run_cli(capsys, *argv)
        return code, strip_timing(json.loads(out)) if out else out, err

    first = []
    for argv in sequence:
        build_parser.cache_clear()
        first.append(run(argv))
    build_parser.cache_clear()
    assert [run(argv) for argv in sequence] == first
    assert build_parser() is build_parser()
    assert [code for code, _, _ in first] == [2, 0, 0]


@pytest.mark.parametrize("command,value_key", [("count", "count"), ("count01", "count"), ("fy", "value")])
def test_exact_commands_report_log_value(capsys, command, value_key):
    report = run_json(capsys, command, "--rows", "3,3", "--cols", "2,2,2")
    value = report[value_key]
    value = float(Fraction(value)) if isinstance(value, str) else value
    assert report["log_value"] == pytest.approx(math.log(value), rel=1e-12)


def test_exact_log_value_null_at_zero(capsys):
    report = run_json(capsys, "count01", "--rows", "3", "--cols", "2,1")
    assert report["count"] == 0 and report["log_value"] is None


def test_fy_past_int_string_limit(capsys):
    # 1/2000! has 5736 denominator digits, past Python's 4300-digit default
    report = run_json(capsys, "fy", "--rows", "2000", "--cols", "2000")
    assert report["value"] is None
    assert report["log_value"] == pytest.approx(-math.lgamma(2001), rel=1e-12)


def test_weighted_exact_log_value(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"weights": [["1", "2"], ["1/2", "1"]]}')
    report = run_json(
        capsys, "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path)
    )
    assert report["log_value"] == pytest.approx(math.log(1.5), rel=1e-12)


@pytest.mark.parametrize("cap", ["40", "0", "-5"])
def test_perm_cap_out_of_range_exits_2_before_sampling(capsys, cap):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "estimate", "--rows", "15,15", "--cols", "15,15", "--perm-cap", cap, "--samples", "10"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert "--perm-cap" in json.loads(err)["error"]
