"""Tests for the sweep driver, its constants, and checkpoint persistence."""

import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from katzrates import basis as basis_module
from katzrates.basis import dim_mk
from katzrates.solver import f_bound
from katzrates.sweep import (
    CheckpointError,
    c_p,
    d_p,
    lambda_for,
    load_checkpoint,
    run_sweep,
    save_checkpoint,
    state_from_json,
    state_to_json,
    summary,
    theorem_b_audit,
    write_entries_csv,
)

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def test_c_p_values():
    assert c_p(5) == Fraction(11, 144)
    assert c_p(7) == Fraction(29, 432)


def test_d_p_values():
    assert d_p(5) == Fraction(2, 15)
    assert d_p(7) == Fraction(3, 28)
    assert d_p(17) == Fraction(8, 153)


def test_c_p_below_conjectured_d_p():
    for p in (5, 7, 11, 13, 17, 37):
        assert c_p(p) < d_p(p)


def test_lambda_for():
    assert lambda_for(5, 1, 0) == 1
    n = lambda_for(5, 5, 4)
    assert n - 4 - f_bound(5, n) >= 5
    assert n - 1 - 4 - f_bound(5, n - 1) < 5 or n == 5
    # monotone in the target
    prev = 0
    for target in range(1, 12):
        cur = lambda_for(5, target, 3)
        assert cur >= prev
        prev = cur


def test_run_sweep_small():
    state = run_sweep(5, 9)
    assert state.completed_rows == set(range(1, 10))
    # rows with empty basis contribute no entries at all
    empty = {i for i in range(1, 10) if i % 3}
    assert all(e.i not in empty for e in state.entries)
    assert state.d_prime == min(
        Fraction(e.value + e.j, e.i) for e in state.entries if e.exact
    )


def test_sweep_d_prime_nonincreasing():
    s9 = run_sweep(5, 9)
    s18 = run_sweep(5, 18)
    assert s18.d_prime <= s9.d_prime


def test_resume_equivalence(tmp_path):
    full = run_sweep(5, 12)
    half = run_sweep(5, 6)
    resumed = run_sweep(5, 12, resume=half)
    assert resumed.entries == full.entries
    assert resumed.d_prime == full.d_prime
    assert resumed.attained == full.attained


def test_checkpoint_round_trip(tmp_path):
    state = run_sweep(5, 9)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.p == state.p
    assert loaded.d_prime == state.d_prime
    assert loaded.entries == state.entries
    assert loaded.completed_rows == state.completed_rows
    assert loaded.attained == state.attained


def test_checkpoint_written_during_sweep(tmp_path):
    path = str(tmp_path / "ck.json")
    state = run_sweep(5, 6, checkpoint_path=path)
    loaded = load_checkpoint(path)
    assert loaded.completed_rows == state.completed_rows


def test_checkpoint_schema_version_rejected():
    with pytest.raises(CheckpointError):
        state_from_json({"version": 2})
    with pytest.raises(CheckpointError):
        state_from_json({"version": 1, "p": 5})  # missing fields


def test_checkpoint_json_schema_fields(tmp_path):
    state = run_sweep(5, 6)
    data = state_to_json(state)
    assert data["version"] == 1
    assert set(data) == {
        "version",
        "p",
        "lambda",
        "i_max",
        "d_prime",
        "completed_rows",
        "entries",
    }
    for e in data["entries"]:
        assert set(e) == {"i", "j", "status", "value", "gamma"}
    json.dumps(data)  # serializable


def test_theorem_b_audit_empty_state():
    from katzrates.sweep import SweepState

    assert theorem_b_audit(SweepState(p=5)) == ([], [])


def test_summary_shape():
    state = run_sweep(5, 9)
    s = summary(state)
    assert s["p"] == 5
    assert "/" in s["d_prime"]
    assert s["c_p"] == "11/144"
    assert s["d_p_conj"] == "2/15"
    assert s["audits"]["theorem_b_violations"] == 0


def test_run_sweep_rejects_mismatched_resume():
    state = run_sweep(5, 6)
    with pytest.raises(ValueError):
        run_sweep(7, 6, resume=state)


def test_empty_basis_rows_match_dimension_jump():
    # For p=11, the i=7 block is empty: the dimension does not grow there.
    assert dim_mk(7 * 10) == dim_mk(6 * 10)


def _entries_csv(state) -> str:
    buf = io.StringIO()
    write_entries_csv(state.entries, buf)
    return buf.getvalue()


@pytest.mark.parametrize("p, i_max", [(5, 36), (7, 56), (17, 20)])
def test_sweep_reproduces_golden_csv(p, i_max):
    # Frozen per-entry output of the table rows; 17/20 needs one more
    # q-coefficient per basis form than the matrix has rows.
    golden = (DATA / f"p{p}_i{i_max}.csv").read_bytes().decode()
    assert _entries_csv(run_sweep(p, i_max)) == golden


def test_reproduce_table_writes_the_sweep_csv(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_table", ROOT / "scripts" / "reproduce_table.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--rows", "17:20", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "p17.csv").read_bytes() == (DATA / "p17_i20.csv").read_bytes()


def test_sweep_builds_basis_once_per_precision_doubling(monkeypatch):
    # p=5 to i=36 needs lam = 10, 12, 15: the basis is built at E = 10, then
    # at 20, and never through the shared basis_matrix cache.
    builds = []
    real = basis_module.build_matrix

    def counting(p, n, ring, form_len=None):
        builds.append(ring.e)
        return real(p, n, ring, form_len)

    monkeypatch.setattr("katzrates.solver.build_matrix", counting)
    cached = set(basis_module._CACHE)
    run_sweep(5, 36)
    assert builds == [10, 20]
    assert set(basis_module._CACHE) == cached
