"""Tests for the command-line interface and its file formats."""

import csv
import io
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from katzrates import sweep as sweep_module
from katzrates.arithmetic import PRIME_BOUND
from katzrates.basis import dim_mk
from katzrates.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_katz_expand_constant(tmp_path, capsys):
    N = dim_mk(12)
    inp = tmp_path / "f.txt"
    inp.write_text("\n".join(["1"] + ["0"] * (N - 1)) + "\n")
    code, out, _ = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "3", "--prec", "2", "--input", str(inp)
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 5 and data["N"] == N
    assert data["components"][0]["coords"] == [{"j": 0, "value": 1}]
    for comp in data["components"][1:]:
        assert all(c["value"] == 0 for c in comp["coords"])


def test_katz_expand_json_input_autodetected(tmp_path, capsys):
    N = dim_mk(12)
    inp = tmp_path / "f.json"
    inp.write_text(json.dumps([1] + [0] * (N - 1)))
    code, out, _ = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "3", "--prec", "2", "--input", str(inp)
    )
    assert code == 0


def test_katz_expand_matches_library(tmp_path, capsys):
    from katzrates.arithmetic import RingSpec
    from katzrates.expand import psi
    from katzrates.family import eis_ratio_by_s

    p, n, C = 5, 3, 4
    N = dim_mk(n * (p - 1))
    ratio = eis_ratio_by_s(p, 1, C, N)
    inp = tmp_path / "ratio.txt"
    inp.write_text("\n".join(str(c) for c in ratio.coeffs))
    code, out, _ = run_cli(
        capsys, "katz-expand", "--p", str(p), "--n", str(n), "--prec", str(C),
        "--input", str(inp),
    )
    assert code == 0
    data = json.loads(out)
    t = psi(p, n, C, ratio)
    for comp_json, comp in zip(data["components"], t.components):
        assert comp_json["i"] == comp.i
        assert tuple(c["value"] for c in comp_json["coords"]) == comp.coords


def test_katz_expand_wrong_length_exits_3(tmp_path, capsys):
    inp = tmp_path / "f.txt"
    inp.write_text("1\n0\n0\n0\n0\n")
    code, _, err = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "3", "--prec", "2", "--input", str(inp)
    )
    assert code == 3
    assert str(dim_mk(12)) in err


def test_katz_expand_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["katz-expand", "--n", "3", "--prec", "2", "--input", "x"])
    assert exc.value.code == 2


def test_katz_expand_bad_prime_exits_2(tmp_path, capsys):
    inp = tmp_path / "f.txt"
    inp.write_text("1\n")
    code, _, _ = run_cli(
        capsys, "katz-expand", "--p", "4", "--n", "3", "--prec", "2", "--input", str(inp)
    )
    assert code == 2


def test_valuations_r0(capsys):
    code, out, _ = run_cli(capsys, "valuations", "--p", "5", "--r", "0", "--lambda", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "status", "value", "gamma"]
    assert rows[1][:4] == ["0", "0", "exact", "0"]


def test_valuations_j0_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "valuations", "--p", "5", "--r", "3", "--lambda", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    j0 = [r for r in rows[1:] if r[1] == "0"][0]
    assert j0[2] == "inconclusive" and j0[3] == ""


@pytest.mark.parametrize(
    "p, r, flag, value", [(5, 200, "--lambda", "2"), (11, 5, "--weights", "1,2,3,4")]
)
def test_valuations_empty_block_prints_only_the_header(capsys, p, r, flag, value):
    # Row r has no basis forms, so every b_{r,j} is 0 and there is no entry.
    argv = ["valuations", "--p", str(p), "--r", str(r), flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, "i,j,status,value,gamma\n", "")


def test_valuations_explicit_weights(capsys):
    code, out, _ = run_cli(
        capsys, "valuations", "--p", "5", "--r", "3", "--weights", "1,2,3,4,6,7,8,9"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1


def test_valuations_weight_order_does_not_matter(capsys):
    s_values = [s for s in range(1, 20) if s % 5]
    shuffled = s_values[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != s_values
    outs = []
    for order in (s_values, shuffled):
        code, out, _ = run_cli(
            capsys, "valuations", "--p", "5", "--r", "12",
            "--weights", ",".join(map(str, order)),
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "exact" in outs[0]


def test_valuations_weight_divisible_by_p_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "valuations", "--p", "5", "--r", "3", "--weights", "1,2,5"
    )
    assert code == 2


def test_valuations_requires_lambda_or_weights(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["valuations", "--p", "5", "--r", "3"])
    assert exc.value.code == 2


def test_valuations_lambda_and_weights_together_exit_2(capsys):
    # One of the two flags chooses the weights; both at once is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["valuations", "--p", "5", "--r", "3", "--lambda", "3", "--weights", "1,2"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_valuations_lambda_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "valuations", "--p", "5", "--r", "3", "--lambda", "0")
    assert (code, out) == (2, "")
    assert err == "error: lam must be >= 1\n"


def test_sweep_cli_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "9", "--out", str(out_csv)
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 5
    assert data["c_p"] == "11/144"
    assert (data["lambda_max"], data["rows_solved"], data["unresolved"]) == (10, 3, 0)
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "status", "value", "gamma"]
    assert len(rows) > 1


def test_sweep_cli_not_prime_exits_2(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--p", "4", "--imax", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # 100000007 * 100000037: trial division took 14.8 s to reject it.
        ["valuations", "--p", "10000004400000259", "--r", "1", "--lambda", "2"],
        ["sweep", "--p", "100000980001501", "--imax", "5"],
    ],
)
def test_large_composite_p_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: p must be a prime >= 5, got {argv[2]}\n"


def test_p_at_the_primality_bound_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--p", str(PRIME_BOUND), "--imax", "5")
    assert code == 2
    assert err == f"error: p must be below {PRIME_BOUND}, got {PRIME_BOUND}\n"


def test_sweep_cli_bad_checkpoint_exits_5(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps({"version": 99}))
    code, _, _ = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "5", "--checkpoint", str(ck), "--resume"
    )
    assert code == 5


def _checkpoint_with_first_exact(tmp_path, capsys, key, bad):
    ck = tmp_path / "ck.json"
    code, _, _ = run_cli(capsys, "sweep", "--p", "5", "--imax", "6", "--checkpoint", str(ck))
    assert code == 0
    data = json.loads(ck.read_text())
    next(e for e in data["entries"] if e["status"] == "exact")[key] = bad
    ck.write_text(json.dumps(data))
    return ck


@pytest.mark.parametrize("key, bad", [("value", None), ("i", 0)])
def test_sweep_cli_malformed_entry_exits_5(tmp_path, capsys, key, bad):
    # These raised TypeError and ZeroDivisionError tracebacks before they were
    # validated.
    ck = _checkpoint_with_first_exact(tmp_path, capsys, key, bad)
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "9", "--checkpoint", str(ck), "--resume"
    )
    assert code == 5
    assert err.startswith("error:") and "Traceback" not in err and out == ""


@pytest.mark.parametrize("edit", ["drop_row_9", "p_9", "j_past_i", "row_past_i_max"])
def test_sweep_cli_incomplete_checkpoint_exits_5(tmp_path, capsys, edit):
    ck = tmp_path / "ck.json"
    code, _, _ = run_cli(capsys, "sweep", "--p", "5", "--imax", "9", "--checkpoint", str(ck))
    assert code == 0
    data = json.loads(ck.read_text())
    if edit == "drop_row_9":
        data["entries"] = [e for e in data["entries"] if e["i"] != 9]
    elif edit == "j_past_i":
        data["entries"].append(
            {"i": 3, "j": 4, "status": "inconclusive", "value": None, "gamma": 1}
        )
    elif edit == "row_past_i_max":
        data["completed_rows"].append(50)
    else:
        data["p"] = 9
    ck.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "12", "--checkpoint", str(ck), "--resume"
    )
    assert code == 5
    assert err.startswith("error:") and "Traceback" not in err and out == ""


def test_sweep_cli_checkpoint_for_a_large_p_exits_5_at_once(tmp_path, capsys):
    # p = 2^61 - 1 is prime: trial division to its square root would run for
    # minutes, so the checkpoint must be rejected for its p before that.
    ck = tmp_path / "ck.json"
    code, _, _ = run_cli(capsys, "sweep", "--p", "5", "--imax", "6", "--checkpoint", str(ck))
    assert code == 0
    data = json.loads(ck.read_text())
    data["p"] = 2**61 - 1
    ck.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(sweep_module.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "katzrates.cli", "sweep", "--p", "5", "--imax", "6",
         "--checkpoint", str(ck), "--resume"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == f"error: checkpoint is for p = {2**61 - 1}, not 5\n"


@pytest.mark.parametrize("alias", ["same", "dotted", "symlink"])
@pytest.mark.parametrize("resume", [False, True])
def test_sweep_cli_out_naming_the_checkpoint_exits_2(tmp_path, capsys, alias, resume):
    # The CSV would overwrite the checkpoint, and the next --resume would
    # lose every solved row; nothing is swept or written.
    ck = tmp_path / "ck.json"
    out = {
        "same": str(ck),
        "dotted": os.path.join(tmp_path, ".", "ck.json"),
        "symlink": str(tmp_path / "ln"),
    }[alias]
    if alias == "symlink":
        os.symlink(ck, out)
    if resume:
        assert run_cli(capsys, "sweep", "--p", "5", "--imax", "6", "--checkpoint", str(ck))[0] == 0
        before = ck.read_bytes()
    code, stdout, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "12", "--checkpoint", str(ck),
        "--out", out, *["--resume"] * resume
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: --out and --checkpoint both name {out}\n"
    if resume:
        assert ck.read_bytes() == before
    else:
        assert not ck.exists()


def test_sweep_cli_resume_matches_uninterrupted(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "6",
        "--checkpoint", str(ck),
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "12",
        "--checkpoint", str(ck), "--resume", "--out", str(out1),
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "sweep", "--p", "5", "--imax", "12", "--out", str(out2))
    assert code == 0
    assert out1.read_text() == out2.read_text()


def test_sweep_cli_deterministic(tmp_path, capsys):
    outs = []
    for run in ("a", "b"):
        out_csv = tmp_path / f"{run}.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "5", "--imax", "9", "--out", str(out_csv)
        )
        assert code == 0
        outs.append((out, out_csv.read_text()))
    assert outs[0] == outs[1]


def test_katz_expand_zero_precision_exits_2(tmp_path, capsys):
    N = dim_mk(12)
    inp = tmp_path / "f.txt"
    inp.write_text("\n".join(["1"] + ["0"] * (N - 1)) + "\n")
    code, _, err = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "3", "--prec", "0", "--input", str(inp)
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_valuations_negative_row_exits_2(capsys):
    code, _, err = run_cli(capsys, "valuations", "--p", "5", "--r", "-1", "--lambda", "3")
    assert code == 2
    assert err.startswith("error:")


def test_valuations_duplicate_weights_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "valuations", "--p", "5", "--r", "2", "--weights", "1,1,2"
    )
    assert code == 2
    assert "duplicate weight" in err


@pytest.mark.parametrize("flag, name", [("--checkpoint", "ck.json"), ("--out", "o.csv")])
def test_sweep_missing_output_directory_exits_2(tmp_path, capsys, flag, name):
    path = tmp_path / "missing" / name
    code, out, err = run_cli(capsys, "sweep", "--p", "5", "--imax", "3", flag, str(path))
    assert code == 2
    assert err.startswith("error:") and out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("n", [-1, -5])
def test_katz_expand_negative_n_exits_2(tmp_path, capsys, n):
    # With an empty input, n < 0 used to reach psi and die in a traceback.
    inp = tmp_path / "empty.json"
    inp.write_text("[]")
    argv = ["katz-expand", "--p", "5", "--n", str(n), "--prec", "2", "--input", str(inp)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "--n" in err and out == ""


@pytest.mark.parametrize("data", [[True], [1, False, 0], [1, 0.5]])
def test_katz_expand_rejects_non_integer_json(tmp_path, capsys, data):
    # A JSON boolean is not a coefficient, though Python's bool is an int.
    inp = tmp_path / "f.json"
    inp.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "0", "--prec", "2", "--input", str(inp)
    )
    assert code == 2
    assert "array of integers" in err and out == ""


@pytest.mark.parametrize(
    "flags", [["--checkpoint"], ["--checkpoint", "--resume"], ["--out"]]
)
def test_sweep_directory_as_file_exits_2(tmp_path, capsys, flags):
    # Writing or reading a checkpoint or CSV at a directory was an
    # IsADirectoryError traceback.
    argv = ["sweep", "--p", "5", "--imax", "3", flags[0], str(tmp_path), *flags[1:]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "is a directory" in err and out == ""


def test_sweep_cli_non_utf8_checkpoint_exits_5(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "3", "--checkpoint", str(ck), "--resume"
    )
    assert code == 5
    assert err.startswith("error:") and "Traceback" not in err and out == ""


@pytest.mark.parametrize("lam", [0, -3, 1500, None])
def test_sweep_cli_checkpoint_lambda_out_of_range_exits_5(tmp_path, capsys, lam):
    # A resumed sweep plans at no less than the checkpoint's lambda: 1500 ran
    # past 20 s before lambda was bounded.  Unedited (None), the resume still
    # writes the uninterrupted CSV.
    ck, resumed, whole = tmp_path / "ck.json", tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "sweep", "--p", "5", "--imax", "6", "--checkpoint", str(ck))[0] == 0
    if lam is not None:
        data = json.loads(ck.read_text())
        data["lambda"] = lam
        ck.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "9",
        "--checkpoint", str(ck), "--resume", "--out", str(resumed),
    )
    if lam is None:
        assert code == 0
        assert run_cli(capsys, "sweep", "--p", "5", "--imax", "9", "--out", str(whole))[0] == 0
        assert resumed.read_bytes() == whole.read_bytes()
    else:
        assert code == 5
        assert err.startswith("error:") and "lambda" in err and out == ""
        assert not resumed.exists()


def test_sweep_cli_interrupt_exits_130_and_resumes(tmp_path, capsys, monkeypatch):
    # Ctrl-C, or SIGTERM sent to the process, while row 9 is solved: the rows
    # before it are saved, the run exits 130 (143 for SIGTERM) without a
    # traceback, and the resumed --out CSV is the uninterrupted one.  The
    # SIGTERM handler is the sweep's only while it runs.
    real = sweep_module.solve_row
    whole = tmp_path / "whole.csv"
    assert run_cli(capsys, "sweep", "--p", "5", "--imax", "12", "--out", str(whole))[0] == 0
    before = signal.getsignal(signal.SIGTERM)
    for how, want in [("interrupted", 130), ("terminated", 143)]:

        def stopped(p, r, lam, **kw):
            if r == 9:
                if how == "interrupted":
                    raise KeyboardInterrupt
                os.kill(os.getpid(), signal.SIGTERM)
            return real(p, r, lam, **kw)

        ck, resumed = tmp_path / f"{how}.json", tmp_path / f"{how}.csv"
        monkeypatch.setattr(sweep_module, "solve_row", stopped)
        code, out, err = run_cli(
            capsys, "sweep", "--p", "5", "--imax", "12", "--checkpoint", str(ck)
        )
        assert code == want
        assert err.startswith(f"error: {how}") and str(ck) in err and out == ""
        assert "Traceback" not in err
        assert signal.getsignal(signal.SIGTERM) is before
        assert sweep_module.load_checkpoint(str(ck), 5).completed_rows == set(range(1, 9))
        monkeypatch.setattr(sweep_module, "solve_row", real)
        code, _, _ = run_cli(
            capsys, "sweep", "--p", "5", "--imax", "12",
            "--checkpoint", str(ck), "--resume", "--out", str(resumed),
        )
        assert code == 0
        assert resumed.read_bytes() == whole.read_bytes()


def test_deeply_nested_json_exits_with_its_code(tmp_path, capsys):
    # The JSON decoder raises RecursionError on this input: katz-expand exits
    # 2 and a resumed sweep 5, each with one error line.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(
        capsys, "katz-expand", "--p", "5", "--n", "3", "--prec", "3", "--input", str(deep)
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err and out == ""
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "3", "--checkpoint", str(deep), "--resume"
    )
    assert code == 5
    assert err.startswith("error:") and "Traceback" not in err and out == ""


def test_sweep_cli_unresolved_entries_exit_6(tmp_path, capsys, monkeypatch):
    # One attempt per row at the least lam a row allows leaves entries with
    # j >= 1 inconclusive: the outputs are still written, then the run fails.
    monkeypatch.setattr(sweep_module, "_MAX_RETRIES", 0)
    monkeypatch.setattr(sweep_module, "lambda_for", lambda p, target, j_max: j_max + 1)
    ck, out_csv = tmp_path / "ck.json", tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--p", "5", "--imax", "9",
        "--checkpoint", str(ck), "--out", str(out_csv),
    )
    assert code == 6
    unresolved = json.loads(out)["unresolved"]
    assert unresolved > 0
    assert err.startswith(f"error: {unresolved} entries")
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert sum(r["status"] == "inconclusive" and r["j"] != "0" for r in rows) == unresolved
    assert json.loads(ck.read_text())["completed_rows"] == list(range(1, 10))
