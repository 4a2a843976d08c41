"""Property test of the CLI contract: any bounded command line exits 0, 2 or 3
and prints exactly one line of strict JSON, on stdout for 0 and on stderr
otherwise, with nothing on the other stream."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from tablecount.cli import main

BAD_TOKENS = ["2.5", "-1", "x", "0"]
EPSILONS = ["0", "0.05", "0.2", "0.99", "1", "nan", "-1"]
SEEDS = ["-1", str(10**23), "0", "7", "x"]
MAX_TOTAL = 8

MARGIN_FILES = [
    ("m.json", '{"rows": [2, 2], "cols": [2, 2]}'),
    ("m.json", '{"rows": [2.5, 1], "cols": [2, 2]}'),
    ("m.json", '{"rows": [0, 2], "cols": [1, 1]}'),
    ("m.json", '{"rows": [2, 2]'),
    ("m.json", "[1, 2]"),
    ("m.csv", "2,2\n2,2\n"),
    ("m.csv", "2\n"),
    ("m.csv", "a,b\nc,d\n"),
]
WEIGHT_FILES = [
    ("w.json", '{"weights": [[1, 2], [2, 1]]}'),
    ("w.json", '{"weights": [["1/2", 1], [1, "3/2"]]}'),
    ("w.json", '{"weights": [[1e200, 1], [1, 1e200]]}'),
    ("w.json", '{"weights": [[NaN, 1], [1, 1]]}'),
    ("w.json", '{"weights": [[-1, 1], [1, 1]]}'),
    ("w.json", '{"weights": [[1, 2]'),
    ("w.json", '{"grid": [[1]]}'),
    ("w.csv", "1,2\n2,1\n"),
    ("w.csv", "1,x\n1,1\n"),
    ("w.csv", "1/0,1\n1,1\n"),
    ("w.csv", ""),
]

# flags each subcommand registers, beyond --seed
FLAGS = {
    "count": (), "count01": (), "fy": (), "bekessy": (),
    "estimate": ("--samples",),
    "weighted": ("--samples", "--epsilon", "--repeats"),
    "lowrank": ("--epsilon", "--repeats"),
    "lowrank01": ("--epsilon", "--repeats"),
    "lowrank-colsets": ("--epsilon", "--repeats"),
    "verify-coeffs": ("--epsilon",),
    "variance": ("--samples",),
    "compare": ("--samples", "--epsilon", "--repeats"),
}


@st.composite
def token(draw, value):
    """The value as a string, or one time in ten a malformed token."""
    if draw(st.integers(0, 9)):
        return str(value)
    return draw(st.sampled_from(BAD_TOKENS))


@st.composite
def sums(draw, total, parts=None):
    """One to four parts (or the given number) summing to total, as tokens."""
    k = parts or draw(st.integers(1, min(4, total)))
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1, unique=True)) \
        if total > 1 else []
    bounds = [0, *sorted(cuts), total]
    parts = [bounds[i + 1] - bounds[i] for i in range(k)]
    return ",".join(draw(token(p)) for p in parts)


@st.composite
def command_lines(draw):
    """(argv, {file name: text}) for one bounded invocation."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv, files = [command], {}
    if command == "verify-coeffs":
        # complete families of degree and vars 6..10 ask for more forms than
        # the draw budget allows, so they exit 3 before drawing
        kind, size = draw(st.sampled_from([("elementary", st.integers(1, 8)),
                                           ("complete", st.integers(6, 10))]))
        argv += ["--kind", kind, "--degree", draw(token(draw(size))),
                 "--vars", draw(token(draw(size)))]
        if draw(st.booleans()):
            argv += ["--dump-poly", "poly.txt"]
    elif command == "lowrank-colsets":
        total = draw(st.integers(1, MAX_TOTAL))
        sets = draw(st.lists(sums(total), min_size=1, max_size=3))
        argv += ["--rows", draw(sums(total)), "--col-sets", ";".join(sets)]
    elif draw(st.integers(0, 4)) == 0:
        name, text = draw(st.sampled_from(MARGIN_FILES))
        files[name] = text
        argv += ["--margins-file", name]
    else:
        # the weight files are 2 x 2, so weighted margins mostly are too
        parts = 2 if command == "weighted" and draw(st.integers(0, 3)) else None
        total = draw(st.integers(parts or 1, MAX_TOTAL))
        other = total if draw(st.integers(0, 5)) else draw(st.integers(parts or 1, MAX_TOTAL))
        argv += ["--rows", draw(sums(total, parts)), "--cols", draw(sums(other, parts))]
    if command == "weighted":
        name, text = draw(st.sampled_from(WEIGHT_FILES))
        files[name] = text
        argv += ["--weights-file", name, "--method", draw(st.sampled_from(["exact", "mc", "lowrank"]))]
    for flag in FLAGS[command]:
        if flag == "--samples":
            # one time in ten a request past the draw budget, which exits 3
            samples = draw(st.integers(1, 300)) if draw(st.integers(0, 9)) else 10**12
            argv += [flag, draw(token(samples))]
        elif draw(st.booleans()):
            value = st.sampled_from(EPSILONS) if flag == "--epsilon" else token(draw(st.integers(1, 2)))
            argv += [flag, draw(value)]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(SEEDS))]
    return argv, files


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_main_prints_one_json_line_and_exits_0_2_or_3(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in files or a == "poly.txt" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    event(f"{argv[0]} exits {rc}")
    assert rc in (0, 2, 3), (argv, err.getvalue())
    printed, other = (out, err) if rc == 0 else (err, out)
    assert other.getvalue() == ""
    text = printed.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, text
    report = json.loads(text, parse_constant=reject_constant)
    assert isinstance(report, dict) and (rc == 0) != ("error" in report)
