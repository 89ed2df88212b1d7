"""Hypothesis fuzzing of the command line: every argv of the three
subcommands, built from small, zero, negative and non-prime values and from
good, bad and missing files, gets one of the documented exit codes, and no
run ends in a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from katzrates.cli import main
from katzrates.sweep import run_sweep, state_to_json

EXIT_CODES = {0, 2, 3, 4, 5, 6}

PRIMES = st.sampled_from(["5", "7", "11", "-5", "0", "1", "3", "4", "9", "x"])
SMALL = st.integers(-2, 8).map(str)

MALFORMED = [b"[1, 2", b"hello\n", b"[true]", b'{"version": 1}', b"1.5\n"]
# Arrays nested this deep, the deepest past the JSON decoder's recursion limit.
NESTED = st.sampled_from([1, 2, 50, 100_000]).map(lambda d: b"[" * d + b"]" * d)
OUT_PATHS = ["@out.csv", "@dir", "@missing/out.csv"]

# A checkpoint that a sweep wrote, for p = 5 to i = 6.
CHECKPOINT = state_to_json(run_sweep(5, 6))
# Small values only: a checkpoint's lambda is the precision a resumed sweep
# plans at.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 50),
    st.text(max_size=3),
    st.lists(st.integers(-1, 9), max_size=3),
)


@st.composite
def files(draw, kind):
    """The content of one file argument: bytes, None for a path that does not
    exist, or "dir" for a directory."""
    choice = draw(
        st.sampled_from(["missing", "dir", "empty", "garbage", "text", "nested", "good"])
    )
    if choice == "missing":
        return None
    if choice == "dir":
        return "dir"
    if choice == "empty":
        return b""
    if choice == "garbage":
        return b"\xff\xfe{[\n"
    if choice == "text":
        return draw(st.sampled_from(MALFORMED))
    if choice == "nested":
        return draw(NESTED)
    if kind == "coefficients":
        coeffs = draw(st.lists(st.integers(-(10**6), 10**6), max_size=8))
        if draw(st.booleans()):
            return json.dumps(coeffs).encode()
        return "".join(f"{c}\n" for c in coeffs).encode()
    data = json.loads(json.dumps(CHECKPOINT))
    if draw(st.booleans()):
        data[draw(st.sampled_from(sorted(data)))] = draw(JSON_VALUES)
    return json.dumps(data).encode()


def _place(tmp: str, name: str, content) -> None:
    path = os.path.join(tmp, name)
    if content == "dir":
        os.mkdir(path)
    elif content is not None:
        with open(path, "wb") as fh:
            fh.write(content)


def _flags(draw, pairs):
    """The flag/value pairs, each kept or dropped, in a drawn order."""
    argv = []
    for flag, value in draw(st.permutations(pairs)):
        if draw(st.integers(0, 9)):  # dropped one time in ten
            argv += [flag, value]
    return argv


@st.composite
def katz_expand_argv(draw):
    pairs = [
        ("--p", draw(PRIMES)),
        ("--n", draw(SMALL)),
        ("--prec", draw(SMALL)),
        ("--input", "@f"),
    ]
    return ["katz-expand", *_flags(draw, pairs)], {"f": draw(files("coefficients"))}


@st.composite
def valuations_argv(draw):
    pairs = [("--p", draw(PRIMES)), ("--r", draw(SMALL))]
    if draw(st.booleans()):
        pairs.append(("--lambda", draw(SMALL)))
    if draw(st.booleans()):
        s_values = draw(st.lists(st.integers(-1, 12), max_size=6))
        pairs.append(("--weights", ",".join(map(str, s_values))))
    return ["valuations", *_flags(draw, pairs)], {}


@st.composite
def sweep_argv(draw):
    pairs = [("--p", draw(PRIMES)), ("--imax", draw(SMALL))]
    argv = ["sweep"]
    if draw(st.booleans()):
        pairs.append(("--checkpoint", "@ck"))
    if draw(st.booleans()):
        pairs.append(("--out", draw(st.sampled_from(OUT_PATHS))))
    argv += _flags(draw, pairs)
    if draw(st.booleans()):
        argv.append("--resume")
    return argv, {"ck": draw(files("checkpoint"))}


def run(argv, placed) -> tuple[int, str]:
    """Exit code and standard error of `katzrates argv`.  An argument @name is
    the path `name` in a fresh directory, which holds the directory `dir` and
    the `placed` files."""
    with tempfile.TemporaryDirectory() as tmp:
        _place(tmp, "dir", "dir")
        for name, content in placed.items():
            _place(tmp, name, content)
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.one_of(katz_expand_argv(), valuations_argv(), sweep_argv()))
def test_cli_exits_with_a_documented_code(case):
    argv, placed = case
    code, err = run(argv, placed)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert err, "a failing run says why on stderr"
