"""Tests for the sweep driver, its constants, and checkpoint persistence."""

import hashlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from katzrates import basis as basis_module
from katzrates import sweep as sweep_module
from katzrates.basis import dim_mk
from katzrates.solver import PLAN_SLACK, f_bound
from katzrates.sweep import (
    CheckpointError,
    SweepEntry,
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


@pytest.fixture(scope="module")
def checkpoint_p5_i9():
    return json.dumps(state_to_json(run_sweep(5, 9)))


def _first_exact(data):
    return next(e for e in data["entries"] if e["status"] == "exact")


@pytest.mark.parametrize(
    "key, bad, reason",
    [
        ("i", "3", "must be integers"),
        ("j", 1.0, "must be integers"),
        ("gamma", None, "must be integers"),
        ("i", True, "must be integers"),
        ("value", None, "exact value"),
        ("value", "2", "exact value"),
        ("value", -1, "exact value"),
        ("i", 0, "i >= 1"),
        ("j", -1, "j >= 0"),
        ("i", 10, "not in completed_rows"),
        ("status", "maybe", "needs status"),
    ],
)
def test_checkpoint_rejects_malformed_entry(checkpoint_p5_i9, key, bad, reason):
    data = json.loads(checkpoint_p5_i9)
    _first_exact(data)[key] = bad
    with pytest.raises(CheckpointError, match=reason):
        state_from_json(data)


def test_checkpoint_rejects_exact_value_at_gamma(checkpoint_p5_i9):
    data = json.loads(checkpoint_p5_i9)
    entry = _first_exact(data)
    entry["value"] = entry["gamma"]
    with pytest.raises(CheckpointError, match="exact value"):
        state_from_json(data)


def test_checkpoint_rejects_inconclusive_with_value(checkpoint_p5_i9):
    data = json.loads(checkpoint_p5_i9)
    entry = next(e for e in data["entries"] if e["status"] == "inconclusive")
    entry["value"] = 0
    with pytest.raises(CheckpointError, match="needs status"):
        state_from_json(data)


@pytest.mark.parametrize(
    "d_prime, reason",
    [
        ("1/7", "not the minimum"),
        (0.5, "must be a string"),
        ("two", "malformed"),
        ("1/0", "malformed"),
    ],
)
def test_checkpoint_rejects_bad_d_prime(checkpoint_p5_i9, d_prime, reason):
    data = json.loads(checkpoint_p5_i9)
    data["d_prime"] = d_prime
    with pytest.raises(CheckpointError, match=reason):
        state_from_json(data)


def test_checkpoint_d_prime_must_match_the_entries(checkpoint_p5_i9):
    # nu(b_{9,1}) = 0 would give (0 + 1)/9 < d' = 1/6.
    data = json.loads(checkpoint_p5_i9)
    assert data["d_prime"] == "1/6"
    entry = next(e for e in data["entries"] if (e["i"], e["j"]) == (9, 1))
    assert entry["status"] == "exact" and entry["value"] > 0
    entry["value"] = 0
    with pytest.raises(CheckpointError, match="not the minimum"):
        state_from_json(data)


@pytest.mark.parametrize(
    "key, bad", [("p", "5"), ("lambda", None), ("completed_rows", ["3"])]
)
def test_checkpoint_rejects_non_integer_fields(checkpoint_p5_i9, key, bad):
    data = json.loads(checkpoint_p5_i9)
    data[key] = bad
    with pytest.raises(CheckpointError, match="must be integers"):
        state_from_json(data)


def test_checkpoint_rejects_row_with_missing_entries(checkpoint_p5_i9):
    # Row 9 is completed but its entries are gone; d' = 1/6 still holds on
    # row 6, and a resumed sweep would skip row 9 without a word.
    data = json.loads(checkpoint_p5_i9)
    data["entries"] = [e for e in data["entries"] if e["i"] != 9]
    with pytest.raises(CheckpointError, match="row 9 has entries j = \\[\\]"):
        state_from_json(data)


@pytest.mark.parametrize("j", [0, 1])
def test_checkpoint_rejects_row_with_a_gap(checkpoint_p5_i9, j):
    # Row 3 holds j = 0..3; without j = 0 or j = 1 it is not 0..J.
    data = json.loads(checkpoint_p5_i9)
    data["entries"] = [e for e in data["entries"] if (e["i"], e["j"]) != (3, j)]
    with pytest.raises(CheckpointError, match="row 3 has entries"):
        state_from_json(data)


def test_checkpoint_rejects_duplicate_entry(checkpoint_p5_i9):
    data = json.loads(checkpoint_p5_i9)
    data["entries"].append(dict(data["entries"][-1]))
    with pytest.raises(CheckpointError, match="row 9 has entries"):
        state_from_json(data)


def test_checkpoint_rejects_entry_past_j_equals_i(checkpoint_p5_i9):
    # Row 3 holds j = 0..3; a sweep never solves j > i, though 0..4 has no gap.
    data = json.loads(checkpoint_p5_i9)
    data["entries"].append(
        {"i": 3, "j": 4, "status": "inconclusive", "value": None, "gamma": 1}
    )
    with pytest.raises(CheckpointError, match="j <= i"):
        state_from_json(data)


@pytest.mark.parametrize("row", [50, 10, 0, -2])
def test_checkpoint_rejects_completed_row_outside_i_max(checkpoint_p5_i9, row):
    # Row 50 (p = 5) has an empty basis block, so it needs no entries.
    data = json.loads(checkpoint_p5_i9)
    assert data["i_max"] == 9
    data["completed_rows"].append(row)
    with pytest.raises(CheckpointError, match="outside 1..9"):
        state_from_json(data)


def test_checkpoint_accepts_a_shorter_row(checkpoint_p5_i9):
    # j = 0..J for a smaller J is what a lower d' would have solved.
    data = json.loads(checkpoint_p5_i9)
    data["entries"] = [e for e in data["entries"] if (e["i"], e["j"]) != (3, 3)]
    assert len(state_from_json(data).entries) == 9


def test_checkpoint_rejects_entries_in_an_empty_row(checkpoint_p5_i9):
    # For p = 5, rows 1 and 2 have no basis forms.
    data = json.loads(checkpoint_p5_i9)
    assert 1 in data["completed_rows"]
    data["entries"].append(
        {"i": 1, "j": 0, "status": "inconclusive", "value": None, "gamma": 1}
    )
    with pytest.raises(CheckpointError, match="row 1 .*empty basis block"):
        state_from_json(data)


@pytest.mark.parametrize("p", [9, 1, 3, -5])
def test_checkpoint_rejects_p_not_a_prime_from_5(checkpoint_p5_i9, p):
    data = json.loads(checkpoint_p5_i9)
    data["p"] = p
    with pytest.raises(CheckpointError, match="prime"):
        state_from_json(data)


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


def test_summary_reports_the_work_done():
    state = run_sweep(5, 9)
    s = summary(state)
    assert s["lambda_max"] == state.lam_current == 10
    assert s["rows_solved"] == 3  # rows 3, 6 and 9; the others are empty
    assert s["unresolved"] == 0
    state.entries.append(SweepEntry(i=9, j=3, exact=False, value=None, gamma=2))
    state.entries.append(SweepEntry(i=9, j=0, exact=False, value=None, gamma=2))
    assert summary(state)["unresolved"] == 1  # j = 0 is never decided


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


@pytest.mark.parametrize("p, i_max", [(5, 36), (7, 56), (17, 20), (13, 182)])
def test_sweep_reproduces_golden_csv(p, i_max):
    # Frozen per-entry output of the table rows and of the frontier row
    # 13/182; 17/20 needs one more q-coefficient per basis form than the
    # matrix has rows.
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


def test_sweep_builds_basis_once_at_planned_precision(matrix_builds):
    # p=5 to i=36 needs lam = 10, 12, 15, and plans 15 + 2; p=11 to i=132
    # needs lam up to 26 and plans 24 + 2.  Neither goes through the shared
    # basis_matrix cache.
    cached = set(basis_module._CACHE)
    assert sweep_module.planned_precision(5, 36) == 17
    run_sweep(5, 36)
    assert matrix_builds == [17]
    matrix_builds.clear()
    assert sweep_module.planned_precision(11, 132) == 26
    run_sweep(11, 132)
    assert matrix_builds == [26]
    assert set(basis_module._CACHE) == cached


@pytest.mark.parametrize("p, i_max", [(5, 36), (7, 56)])
@pytest.mark.parametrize("shift", [-100, 20])
def test_wrong_plan_gives_the_same_csv(monkeypatch, matrix_builds, p, i_max, shift):
    # A plan far too low builds at the first row's lam and steps by
    # PLAN_SLACK on each miss; one far too high builds once, above need.
    # Either way the entries are the golden ones.
    real = sweep_module.planned_precision
    monkeypatch.setattr(
        sweep_module, "planned_precision", lambda p, i_max: max(real(p, i_max) + shift, 1)
    )
    golden = (DATA / f"p{p}_i{i_max}.csv").read_bytes().decode()
    state = run_sweep(p, i_max)
    assert _entries_csv(state) == golden
    if shift < 0:
        assert len(matrix_builds) > 1 and matrix_builds == sorted(set(matrix_builds))
        assert state.lam_current <= matrix_builds[-1] <= state.lam_current + PLAN_SLACK
    else:
        assert matrix_builds == [real(p, i_max) + shift]


def test_resumed_sweep_plans_at_least_the_checkpoint_lambda(matrix_builds):
    # Row 15 is the first nonempty row past 12 for p = 5.
    state = run_sweep(5, 12)
    matrix_builds.clear()
    state.lam_current = 40
    run_sweep(5, 15, resume=state)
    assert matrix_builds == [40]


def test_sweep_builds_each_system_once(monkeypatch):
    # lam never decreases along a sweep, so keeping only the newest system
    # builds each lam once.
    lams = []
    real = sweep_module.build_system

    def counting(p, lam, weights=None):
        lams.append(lam)
        return real(p, lam, weights)

    monkeypatch.setattr(sweep_module, "build_system", counting)
    run_sweep(5, 36)
    assert lams == sorted(set(lams)) == [10, 12, 15]


@pytest.mark.parametrize(
    "workload, p, i_max", [("sweep-p5-deep", 5, 144), ("sweep-p11", 11, 132)]
)
def test_deep_sweep_matches_benchmark_digest(workload, p, i_max):
    # The per-entry CSV digests pinned by the benchmark, read from its file.
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())[workload]
    assert (expected["p"], expected["i_max"]) == (p, i_max)
    csv_bytes = _entries_csv(run_sweep(p, i_max)).encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == expected["entries_sha256"]


@pytest.mark.slow
@pytest.mark.parametrize(
    "p, digest",
    [
        (17, "0fb66a4f144cce103f6f27639a1fc4ef14466b362d06ae6017d45e54a1df2577"),
        (19, "9bef70d9a6e237e51ba5632c802efd18cbc4fd3bf1bfbffcbd8e80bd3ac7ed7d"),
    ],
)
def test_frontier_sweep_matches_pinned_digest(p, digest):
    # The conjecture frontier at i = p(p+1), where d' = (p-1)/(p(p+1)).
    state = run_sweep(p, p * (p + 1))
    assert state.d_prime == d_p(p)
    assert summary(state)["unresolved"] == 0
    assert hashlib.sha256(_entries_csv(state).encode()).hexdigest() == digest
