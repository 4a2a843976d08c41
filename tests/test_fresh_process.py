"""The CLI as a fresh interpreter runs it: what it imports and what reaches stderr.

In-process tests share one interpreter that already holds numpy, and pytest
takes the warnings a command raises, so these checks run in subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tablecount

SRC = str(Path(tablecount.__file__).resolve().parents[1])


def run_python(code, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_exact_commands_never_import_numpy():
    code = """
import contextlib, io, json, sys
import tablecount
from tablecount.cli import main

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, "numpy" in sys.modules, out.getvalue(), err.getvalue()]

runs = [["import", "numpy" in sys.modules, "", ""]]
runs.append(run("count", "--rows", "2,2", "--cols", "2,2"))
runs.append(run("count01", "--rows", "2,1", "--cols", "1,1,1"))
runs.append(run("fy", "--rows", "3,3", "--cols", "2,2,2"))
runs.append(run("bekessy", "--rows", "3,3", "--cols", "2,2,2"))
runs.append(run("count", "--rows", "2,2"))
runs.append(run("estimate", "--rows", "2,2", "--cols", "2,2"))
print(json.dumps(runs))
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    assert [run[:2] for run in runs[:5]] == [["import", False]] + [[0, False]] * 4
    assert all(run[2] and not run[3] for run in runs[1:5])
    error, estimate = runs[5:]
    assert error == [2, False, "", '{"error": "need --rows and --cols, or --margins-file"}\n']
    assert estimate[:2] == [0, True] and estimate[3] == ""
    report = json.loads(estimate[2])
    del report["elapsed_ms"]
    assert report == {"ci_high": 3.213660589265808, "ci_low": 2.7998621958329344, "cols": [2, 2],
                      "command": "estimate", "mean": 3.0067613925493712, "rows": [2, 2],
                      "samples": 10000, "seed": 1729, "std_err": 0.10556275439162728}


def test_overflowing_numeric_input_prints_one_json_line(tmp_path):
    # numpy's overflow warning would otherwise precede the error on stderr
    path = tmp_path / "w.json"
    path.write_text('{"weights": [[1e200, 1e200], [1e200, 1e200]]}')
    done = run_python("import sys; from tablecount.cli import main; sys.exit(main(sys.argv[1:]))",
                      "weighted", "--rows", "2,2", "--cols", "2,2", "--weights-file", str(path),
                      "--method", "lowrank")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == '{"error": "report field \'value\' is not finite (inf)"}\n'


@pytest.mark.parametrize("flags", [[], ["-u"]])
def test_closed_stdout_exits_1_without_a_traceback(flags):
    # the pipe's reader is gone before the child writes, as after `| head -c 1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, *flags, "-m", "tablecount", "count", "--rows", "2,2",
                               "--cols", "2,2"], env=dict(os.environ, PYTHONPATH=path),
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
