"""Tests for the sweep driver, its constants, and checkpoint persistence."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import stat
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from katzrates import sweep as sweep_module
from katzrates.arithmetic import PRIME_BOUND
from katzrates.basis import dim_mk
from katzrates.solver import ValuationRow, build_system, f_bound
from katzrates.sweep import (
    PLAN_SLACK,
    CheckpointError,
    SweepEntry,
    SweepState,
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 23]), st.integers(1, 80), st.integers(0, 400))
def test_lambda_for_matches_the_linear_scan(p, target, j_max):
    # lambda_for steps n by its whole shortfall; the scan tries every n.
    assert lambda_for(p, target, j_max) == oracles.lambda_for(p, target, j_max)


def test_run_sweep_small():
    state = run_sweep(5, 9)
    assert state.rows_done == 9
    # rows with empty basis contribute no entries at all
    empty = {i for i in range(1, 10) if i % 3}
    assert all(e.i not in empty for e in state.entries)
    assert state.d_prime == min(
        Fraction(e.value + e.j, e.i) for e in state.entries if e.exact
    )


def test_empty_rows_advance_the_count():
    # Rows 10 and 11 of p = 5 have empty basis blocks: a sweep that ends on
    # them has done them, and its checkpoint counts them.
    state = run_sweep(5, 11)
    assert state.rows_done == 11
    assert state_to_json(state)["rows_done"] == 11
    assert summary(state)["rows_solved"] == 3


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


_ENTRY_LISTS = st.lists(
    st.builds(
        lambda i, j, value: SweepEntry(i, min(j, i), value, 9),
        st.integers(0, 12),
        st.integers(0, 12),
        st.none() | st.integers(0, 8),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_ENTRY_LISTS)
@example([])
@example([SweepEntry(6, 1, None, 3)])  # d' = 1 with no exact entry
@example([SweepEntry(0, 0, 0, 2), SweepEntry(3, 0, 3, 4)])  # i = 0; a tie at d' = 1
@example([SweepEntry(6, 0, 2, 5), SweepEntry(9, 1, 2, 5), SweepEntry(3, 1, 0, 5)])
def test_attained_is_the_incremental_fold(entries):
    # The attaining set read off the entries is the one the fold kept entry
    # by entry: ties at the minimum are all kept, and i = 0 never attains.
    d_prime, attained = oracles.fold_rate(entries)
    assert sweep_module._fold_rate(entries, Fraction(1)) == d_prime
    state = SweepState(p=5, d_prime=d_prime, entries=entries)
    assert state.attained == attained


@pytest.mark.parametrize("p, i_max", [(5, 36), (7, 56), (17, 20), (13, 182)])
def test_attained_on_a_golden_sweep_is_the_incremental_fold(p, i_max):
    # The golden entries recorded row by row, as a sweep records them: after
    # each row, d' and the attaining set are the fold's.
    with (DATA / f"p{p}_i{i_max}.csv").open() as fh:
        rows = {}
        for r in csv.DictReader(fh):
            value = int(r["value"]) if r["value"] else None
            e = SweepEntry(int(r["i"]), int(r["j"]), value, int(r["gamma"]))
            rows.setdefault(e.i, {})[e.j] = e
    state, d_prime, attained = SweepState(p=p), Fraction(1), set()
    for i, entries in rows.items():
        sweep_module._record_row(state, ValuationRow(r=i, lam=1, entries=entries))
        d_prime, attained = oracles.fold_rate(entries.values(), d_prime, attained)
        assert (state.rows_done, state.d_prime, state.attained) == (i, d_prime, attained)
    assert attained


def test_checkpoint_round_trip(tmp_path):
    state = run_sweep(5, 9)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, path)
    loaded = load_checkpoint(path, 5)
    assert loaded.p == state.p
    assert loaded.d_prime == state.d_prime
    assert loaded.entries == state.entries
    assert loaded.rows_done == state.rows_done
    assert loaded.attained == state.attained


def test_load_checkpoint_rejects_another_p(tmp_path):
    path = str(tmp_path / "ck.json")
    save_checkpoint(run_sweep(5, 6), path)
    with pytest.raises(CheckpointError, match="^checkpoint is for p = 5, not 7$"):
        load_checkpoint(path, 7)


def test_checkpoint_written_during_sweep(tmp_path):
    path = str(tmp_path / "ck.json")
    state = run_sweep(5, 6, checkpoint_path=path)
    loaded = load_checkpoint(path, 5)
    assert loaded.rows_done == state.rows_done


def _fsynced(fd):
    """What an fsync of `fd` makes durable: the size of a file, or the
    inode of a directory."""
    st = os.fstat(fd)
    return ("directory", st.st_ino) if stat.S_ISDIR(st.st_mode) else st.st_size


def test_checkpoint_is_fsynced_before_the_rename(tmp_path, monkeypatch):
    # The temp file holds the whole text when it is fsynced, and only then
    # replaces the checkpoint; the directory is fsynced after the rename.
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", _fsynced(fd)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    state = run_sweep(5, 9)
    path = tmp_path / "ck.json"
    save_checkpoint(state, str(path))
    text = path.read_text()
    directory = ("directory", tmp_path.stat().st_ino)
    assert events == [("fsync", len(text)), ("replace", str(path)), ("fsync", directory)]
    assert [f.name for f in tmp_path.iterdir()] == ["ck.json"]
    # The text the streaming encoder of json.dump gives for this state.
    assert text == "".join(json.JSONEncoder().iterencode(state_to_json(state)))


def test_checkpoint_rename_is_made_durable_where_a_directory_opens(tmp_path, monkeypatch):
    # The rename is durable only once the directory is fsynced after it, and
    # every descriptor opened for that is closed.  Where os.O_DIRECTORY does
    # not exist, the directory cannot be opened and only the file is synced.
    events, opened = [], []
    real_fsync, real_replace, real_open = os.fsync, os.replace, os.open

    def fsync(fd):
        events.append(_fsynced(fd))
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    def open_(path, flags, *args):
        fd = real_open(path, flags, *args)
        opened.append(fd)
        return fd

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "open", open_)
    state = run_sweep(5, 6)
    path = tmp_path / "ck.json"
    save_checkpoint(state, str(path))
    assert events[1:] == ["replace", ("directory", tmp_path.stat().st_ino)]
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    events.clear()
    monkeypatch.delattr(os, "O_DIRECTORY")
    save_checkpoint(state, str(path))
    assert events[1:] == ["replace"]
    assert load_checkpoint(str(path), 5).entries == state.entries


def test_failed_checkpoint_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # A rename that fails removes the temp file, leaves the old checkpoint
    # as it was and reaches the caller.
    path = tmp_path / "ck.json"
    save_checkpoint(run_sweep(5, 6), str(path))
    before = path.read_bytes()

    def replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(run_sweep(5, 9), str(path))
    assert [f.name for f in tmp_path.iterdir()] == ["ck.json"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("p, i_max", [(5, 18), (7, 28)])
def test_a_stuck_row_is_solved_again_at_a_larger_lambda(monkeypatch, p, i_max):
    # Every first attempt plans lam = j_max + 1, too few weights to decide
    # the row: the retry doubles the margin and solves it again at a larger
    # lam, and the sweep ends where the unpatched one does.
    reference = run_sweep(p, i_max)
    real_lambda_for, real_solve_row = sweep_module.lambda_for, sweep_module.solve_row
    solves = {}

    def short_lambda_for(p, target_gamma, j_max):
        if target_gamma - j_max == sweep_module._MARGINS[0]:
            return j_max + 1
        return real_lambda_for(p, target_gamma, j_max)

    def solve_row(p, i, lam, **kwargs):
        solves.setdefault(i, []).append(lam)
        return real_solve_row(p, i, lam, **kwargs)

    monkeypatch.setattr(sweep_module, "lambda_for", short_lambda_for)
    monkeypatch.setattr(sweep_module, "solve_row", solve_row)
    state = run_sweep(p, i_max)
    assert any(len(lams) > 1 and lams[-1] > lams[0] for lams in solves.values()), solves
    assert summary(state)["unresolved"] == 0
    assert (state.d_prime, state.attained) == (reference.d_prime, reference.attained)
    exact = {(e.i, e.j): e.value for e in state.entries if e.exact}
    for e in reference.entries:
        if e.exact and (e.i, e.j) in exact:
            assert exact[e.i, e.j] == e.value, (e.i, e.j)


@pytest.fixture
def checkpoint_writes(monkeypatch) -> list[int]:
    """The rows_done of every checkpoint a sweep writes, in order."""
    writes = []
    real = sweep_module.save_checkpoint

    def counting(state, path):
        writes.append(state.rows_done)
        real(state, path)

    monkeypatch.setattr(sweep_module, "save_checkpoint", counting)
    return writes


def test_sweep_writes_its_checkpoint_once_inside_the_interval(tmp_path, checkpoint_writes):
    # 5/36 takes milliseconds, far less than CHECKPOINT_INTERVAL_S, so the
    # only write is the one after the last row.
    path = str(tmp_path / "ck.json")
    state = run_sweep(5, 36, checkpoint_path=path)
    assert sweep_module.CHECKPOINT_INTERVAL_S == 1.0
    assert checkpoint_writes == [36]
    assert load_checkpoint(path, 5).entries == state.entries


def test_resume_with_no_rows_left_still_writes(tmp_path, checkpoint_writes):
    path = str(tmp_path / "ck.json")
    state = run_sweep(5, 12)
    run_sweep(5, 12, resume=state, checkpoint_path=path)
    assert checkpoint_writes == [12]
    assert load_checkpoint(path, 5).entries == state.entries


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("k, last_saved", [(k, k - 3) for k in range(6, 37, 3)])
def test_interrupted_sweep_resumes_to_the_uninterrupted_csv(
    tmp_path, monkeypatch, checkpoint_writes, k, last_saved
):
    # With the interval at 0 every solved row is saved.  A sweep stopped by
    # its progress hook on row k (p = 5 solves every third row) leaves the
    # checkpoint of the solved row before it, and resuming from that file
    # gives the golden CSV of the uninterrupted sweep.  Every row k a stop
    # can split the sweep at is tried; a stop on row 3 leaves no file.
    monkeypatch.setattr(sweep_module, "CHECKPOINT_INTERVAL_S", 0)
    path = str(tmp_path / "ck.json")

    def stop(state, i):
        if i == k:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        run_sweep(5, 36, checkpoint_path=path, progress=stop)
    assert checkpoint_writes == list(range(3, k, 3))
    saved = load_checkpoint(path, 5)
    assert saved.rows_done == last_saved
    resumed = run_sweep(5, 36, resume=saved, checkpoint_path=path)
    assert _entries_csv(resumed) == (DATA / "p5_i36.csv").read_bytes().decode()
    assert load_checkpoint(path, 5).rows_done == 36


@pytest.mark.parametrize("k", [6, 18, 36])
def test_keyboard_interrupt_saves_the_solved_rows(
    tmp_path, monkeypatch, checkpoint_writes, k
):
    # Ctrl-C in the progress hook of row k, long before the write interval
    # ends: the sweep saves rows 1..k once and raises again, and resuming
    # from that file gives the golden CSV of the uninterrupted sweep.
    monkeypatch.setattr(sweep_module, "CHECKPOINT_INTERVAL_S", 10**9)
    path = str(tmp_path / "ck.json")

    def stop(state, i):
        if i == k:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(5, 36, checkpoint_path=path, progress=stop)
    assert checkpoint_writes == [k]
    saved = load_checkpoint(path, 5)
    resumed = run_sweep(5, 36, resume=saved, checkpoint_path=path)
    assert _entries_csv(resumed) == (DATA / "p5_i36.csv").read_bytes().decode()


def test_row_is_recorded_whole_or_not_at_all():
    # An interrupt after the first of a row's entries is read leaves the
    # state as it was before the row.
    state = run_sweep(5, 9)
    before = state_to_json(state)

    class Interrupted(dict):
        def values(self):
            yield next(iter(dict.values(self)))
            raise KeyboardInterrupt

    solved = sweep_module.solve_row(5, 12, 10, j_max=2)
    row = ValuationRow(r=12, lam=10, entries=Interrupted(solved.entries))
    with pytest.raises(KeyboardInterrupt):
        sweep_module._record_row(state, row)
    assert state_to_json(state) == before


def test_checkpoint_schema_version_rejected():
    with pytest.raises(CheckpointError, match="malformed"):
        state_from_json({"version": 2})  # missing fields
    # Format 1 also held d_prime, completed_rows, i_max and a status per
    # entry, each derivable or unread: it is refused by its version.
    for version in (1, 3, None, "2"):
        message = f"^unsupported checkpoint version: {version!r}$"
        with pytest.raises(CheckpointError, match=message):
            state_from_json({"version": version, "p": 5})


@pytest.fixture(scope="module")
def checkpoint_p5_i9():
    return json.dumps(state_to_json(run_sweep(5, 9)))


def _first_exact(data):
    return next(e for e in data["entries"] if e["value"] is not None)


@pytest.mark.parametrize(
    "key, bad, reason",
    [
        ("i", "3", "must be integers"),
        ("j", 1.0, "must be integers"),
        ("gamma", None, "must be integers"),
        ("i", True, "must be integers"),
        ("value", "2", "exact value"),
        ("value", -1, "exact value"),
        ("value", 1.0, "exact value"),
        ("i", 0, "i >= 1"),
        ("j", -1, "j >= 0"),
        ("i", 10, "past rows_done = 9"),
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


def test_checkpoint_rejects_gamma_above_lambda(checkpoint_p5_i9):
    # Each gamma is capped at its row's lambda, which is at most the
    # checkpoint's; gamma = 0 can occur and stays legal.
    data = json.loads(checkpoint_p5_i9)
    _first_exact(data)["gamma"] = data["lambda"] + 50
    with pytest.raises(CheckpointError, match="gamma must lie in 0..lambda"):
        state_from_json(data)
    data = json.loads(checkpoint_p5_i9)
    entry = next(e for e in data["entries"] if e["value"] is None)
    entry["gamma"] = 0
    assert SweepEntry(i=entry["i"], j=entry["j"], value=None, gamma=0) in (
        state_from_json(data).entries
    )


def test_checkpoint_d_prime_must_match_the_entries(checkpoint_p5_i9):
    # d' is not stored: a load folds it from the entries.  nu(b_{9,1}) = 0
    # gives (0 + 1)/9 < 1/6, and (9, 1) alone attains it.
    data = json.loads(checkpoint_p5_i9)
    assert state_from_json(data).d_prime == Fraction(1, 6)
    entry = next(e for e in data["entries"] if (e["i"], e["j"]) == (9, 1))
    assert entry["value"] > 0
    entry["value"] = 0
    state = state_from_json(data)
    assert (state.d_prime, state.attained) == (Fraction(1, 9), {(9, 1)})


def test_checkpoint_rejects_an_exact_j_0_entry(checkpoint_p5_i9):
    # b_{i,0} = 0 for i >= 1, so no sweep writes an exact j = 0 entry
    # (collect_statuses); read as one, nu(b_{6,0}) = 0 would give d' = 0.
    data = json.loads(checkpoint_p5_i9)
    entry = next(e for e in data["entries"] if (e["i"], e["j"]) == (6, 0))
    assert entry["value"] is None and entry["gamma"] > 0
    entry["value"] = 0
    with pytest.raises(CheckpointError, match=r"b_\{6,0\} = 0, so no j = 0 entry is exact"):
        state_from_json(data)


@pytest.mark.parametrize(
    "key, bad", [("p", "5"), ("lambda", None), ("rows_done", 9.0)]
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
    data["entries"].append({"i": 3, "j": 4, "value": None, "gamma": 1})
    with pytest.raises(CheckpointError, match="j <= i"):
        state_from_json(data)


@pytest.mark.parametrize(
    "rows_done, reason",
    [
        (-2, "outside 0..33"),
        (0, "lambda 10 lies outside"),
        (8, "row 9 lies past rows_done = 8"),
        (12, "row 12 has entries"),
        (33, "row 12 has entries"),
        (34, "outside 0..33"),
        (10**12, "outside 0..33"),
    ],
)
def test_checkpoint_rejects_rows_done_its_entries_do_not_fit(
    checkpoint_p5_i9, rows_done, reason
):
    # Rows 3, 6 and 9 of p = 5 hold the 10 entries.  Any three rows in a row
    # hold a nonempty block, and with it a j = 0 entry, so a count past
    # 3 (10 + 1) is refused before anything is sized by it: 10^12 at once.
    data = json.loads(checkpoint_p5_i9)
    assert (data["rows_done"], len(data["entries"])) == (9, 10)
    data["rows_done"] = rows_done
    with pytest.raises(CheckpointError, match=reason):
        state_from_json(data)


@pytest.mark.parametrize("rows_done", [9, 10, 11])
def test_checkpoint_accepts_rows_done_over_empty_rows(checkpoint_p5_i9, rows_done):
    # Rows 10 and 11 of p = 5 have empty basis blocks.
    data = json.loads(checkpoint_p5_i9)
    data["rows_done"] = rows_done
    assert state_from_json(data).rows_done == rows_done


@pytest.mark.parametrize("lam", [0, -3, 1500])
def test_checkpoint_rejects_lambda_out_of_range(checkpoint_p5_i9, lam):
    data = json.loads(checkpoint_p5_i9)
    data["lambda"] = lam
    with pytest.raises(CheckpointError, match="lambda"):
        state_from_json(data)


def test_checkpoint_lambda_bound_is_the_retry_policy_ceiling(checkpoint_p5_i9):
    # Row 9 is the last nonempty row; d' <= 1 and four attempts at most give
    # target_j + margin <= 9 + 2 * 2^3.
    data = json.loads(checkpoint_p5_i9)
    bound = lambda_for(5, 9 + 16, 9)
    data["lambda"] = bound
    assert state_from_json(data).lam_current == bound
    data["lambda"] = bound + 1
    with pytest.raises(CheckpointError, match="lambda"):
        state_from_json(data)


def test_a_sweep_that_never_resolves_reaches_the_lambda_bound_exactly(monkeypatch):
    # With every entry inconclusive, d' stays 1 and each nonempty row is
    # solved at every margin, so the last row's lam is the largest a sweep
    # through rows 1..9 can use: its checkpoint loads, one with lam + 1 is
    # refused.  The retry loop and _lambda_bound read one margin list.
    real, attempts = sweep_module.solve_row, {}

    def inconclusive(p, i, lam, **kwargs):
        attempts[i] = attempts.get(i, 0) + 1
        row = real(p, i, lam, **kwargs)
        entries = {j: SweepEntry(i, j, None, e.gamma) for j, e in row.entries.items()}
        return ValuationRow(r=i, lam=lam, entries=entries)

    monkeypatch.setattr(sweep_module, "solve_row", inconclusive)
    state = run_sweep(5, 9)
    assert state.d_prime == 1
    assert set(attempts.values()) == {len(sweep_module._MARGINS)}
    assert state.lam_current == sweep_module._lambda_bound(5, 9)
    data = state_to_json(state)
    assert state_from_json(data).lam_current == state.lam_current
    data["lambda"] += 1
    with pytest.raises(CheckpointError, match="lambda"):
        state_from_json(data)


def test_checkpoint_lambda_bound_is_quick_for_a_far_row():
    # Row 999999999 of p = 5 is nonempty; scanning n one at a time up to its
    # bound, about 2.9e9, would not finish.
    assert sweep_module._lambda_bound(5, 999_999_999) == 2_909_090_918


def test_checkpoint_without_a_nonempty_row_needs_lambda_one():
    # Rows 1 and 2 of p = 5 have empty basis blocks: nothing was solved.
    data = state_to_json(run_sweep(5, 2))
    assert state_from_json(data).lam_current == 1
    data["lambda"] = 2
    with pytest.raises(CheckpointError, match="lambda"):
        state_from_json(data)


def test_checkpoint_accepts_a_shorter_row(checkpoint_p5_i9):
    # j = 0..J for a smaller J is what a lower d' would have solved.
    data = json.loads(checkpoint_p5_i9)
    data["entries"] = [e for e in data["entries"] if (e["i"], e["j"]) != (3, 3)]
    assert len(state_from_json(data).entries) == 9


def test_checkpoint_rejects_entries_in_an_empty_row(checkpoint_p5_i9):
    # For p = 5, rows 1 and 2 have no basis forms.
    data = json.loads(checkpoint_p5_i9)
    assert data["rows_done"] >= 1
    data["entries"].append({"i": 1, "j": 0, "value": None, "gamma": 1})
    with pytest.raises(CheckpointError, match="row 1 .*empty basis block"):
        state_from_json(data)


@pytest.mark.parametrize("p", [9, 1, 3, -5, 10000004400000259])
def test_checkpoint_rejects_p_not_a_prime_from_5(checkpoint_p5_i9, p):
    data = json.loads(checkpoint_p5_i9)
    data["p"] = p
    with pytest.raises(CheckpointError, match=f"prime >= 5, got {p}$"):
        state_from_json(data)


def test_checkpoint_rejects_p_at_the_primality_bound(checkpoint_p5_i9):
    data = json.loads(checkpoint_p5_i9)
    data["p"] = PRIME_BOUND
    with pytest.raises(CheckpointError, match=f"below {PRIME_BOUND}"):
        state_from_json(data)


def test_checkpoint_json_schema_fields(tmp_path):
    state = run_sweep(5, 6)
    data = state_to_json(state)
    assert data["version"] == 2
    assert set(data) == {"version", "p", "lambda", "rows_done", "entries"}
    for e in data["entries"]:
        assert set(e) == {"i", "j", "value", "gamma"}
    json.dumps(data)  # serializable


def test_theorem_b_audit_empty_state():
    assert theorem_b_audit(SweepState(p=5)) == ([], [])


def test_theorem_b_audit_lists_each_violation():
    # At p = 5, i = 30, j = 1: c_p i - j = 55/24 - 1 and d_p i - j = 3, so
    # the value 0 lies below both bounds, 2 below d_p i - j only, and 3 (on
    # d_p i - j) and an inconclusive entry below neither.  At i = 144, j = 1,
    # c_p i - j = 10 and d_p i - j = 91/5: the value 9 lies below both, and
    # 10, on the proven bound, below d_p i - j only.
    state = SweepState(p=5)
    state.entries = [
        SweepEntry(i=30, j=1, value=value, gamma=5) for value in (0, 2, 3, None)
    ] + [SweepEntry(i=144, j=1, value=value, gamma=20) for value in (9, 10)]
    assert theorem_b_audit(state) == (
        [(30, 1, 0), (144, 1, 9)],
        [(30, 1, 0), (30, 1, 2), (144, 1, 9), (144, 1, 10)],
    )
    assert summary(state)["audits"] == {
        "theorem_b_violations": 2,
        "conjecture_violations": 4,
    }


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
    state.entries.append(SweepEntry(i=9, j=3, value=None, gamma=2))
    state.entries.append(SweepEntry(i=9, j=0, value=None, gamma=2))
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


def _reproduce_table():
    spec = importlib.util.spec_from_file_location(
        "reproduce_table", ROOT / "scripts" / "reproduce_table.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_table_writes_the_sweep_csv(tmp_path, capsys, monkeypatch):
    script = _reproduce_table()
    assert script.main(["--rows", "17:20", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "p17.csv").read_bytes() == (DATA / "p17_i20.csv").read_bytes()
    header, _, line = (text.split() for text in capsys.readouterr().out.splitlines()[:3])
    column = header.index("unresolved")
    assert header[column:] == ["unresolved", "time", "peak_rss"]
    assert line[:2] == ["17", "20"] and line[column] == "0"  # no entry unresolved
    assert line[-1] == "MB" and float(line[-2]) > 0
    # A violation of either bound, or an unresolved entry, fails the run.
    real_audit, real_summary = script.theorem_b_audit, script.summary
    for audit in ([(12, 3, 0)], []), ([], [(12, 3, 0)]):
        monkeypatch.setattr(script, "theorem_b_audit", lambda state, a=audit: a)
        assert script.main(["--rows", "5:12", "17:20"]) == 1
        assert "audit violations" in capsys.readouterr().out
    monkeypatch.setattr(script, "theorem_b_audit", real_audit)
    monkeypatch.setattr(script, "summary", lambda state: {**real_summary(state), "unresolved": 2})
    assert script.main(["--rows", "17:20"]) == 1
    assert capsys.readouterr().out.splitlines()[2].split()[column] == "2"


@pytest.mark.parametrize(
    "row, reason",
    [
        ("4:10", "p must be a prime >= 5"),
        ("9:3", "p must be a prime >= 5"),
        ("5:0", "imax must be >= 1"),
        ("5:-3", "imax must be >= 1"),
        ("5:1_0", "expected p:imax"),
        ("5:+1٣", "expected p:imax"),
        ("5", "expected p:imax"),
    ],
)
def test_reproduce_table_refuses_a_bad_row_before_any_sweep(
    monkeypatch, capsys, row, reason
):
    # A bad --rows value exits 2 through argparse; exit 1 is reserved for a
    # row that fails its audit, and no row is swept, not even a good one.
    script = _reproduce_table()
    monkeypatch.setattr(script, "run_sweep", None)
    with pytest.raises(SystemExit) as exc:
        script.main(["--rows", "5:12", row])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "under-a-file"])
def test_reproduce_table_refuses_a_bad_out_dir_before_any_sweep(
    monkeypatch, capsys, tmp_path, sub
):
    # An --out-dir that names a file, or lies under one, cannot be made: it
    # exits 2 like a bad --rows, not 1 like a failed audit, and no row is
    # swept.
    script = _reproduce_table()
    monkeypatch.setattr(script, "run_sweep", None)
    path = tmp_path / "file"
    path.write_text("")
    with pytest.raises(SystemExit) as exc:
        script.main(["--rows", "5:12", "--out-dir", str(path / sub)])
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err


def test_reproduce_table_refuses_two_rows_for_one_csv(monkeypatch, capsys, tmp_path):
    # With --out-dir each prime's entries go to p<p>.csv, so a second row
    # for one prime would leave only its own there: the list is refused with
    # exit 2, naming the file, before any sweep or directory is made.
    script = _reproduce_table()
    monkeypatch.setattr(script, "run_sweep", None)
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        script.main(["--rows", "13:84", "5:12", "13:182", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "p13.csv" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_table_reads_rows_as_the_cli_reads_integers():
    script = _reproduce_table()
    assert script.parse_row("5:36") == (5, 36)
    assert script.parse_row("+7:056") == (7, 56)


def test_sweep_builds_basis_once_at_planned_precision(basis_builds):
    # p=5 to i=36 needs lam = 10, 12, 15, and plans 15 + 2; p=11 to i=132
    # needs lam up to 26 and plans 24 + 2.
    assert sweep_module.planned_precision(5, 36) == 17
    run_sweep(5, 36)
    assert basis_builds == [17]
    basis_builds.clear()
    assert sweep_module.planned_precision(11, 132) == 26
    run_sweep(11, 132)
    assert basis_builds == [26]


@pytest.mark.parametrize("p, i_max", [(5, 36), (7, 56)])
@pytest.mark.parametrize("shift", [-100, 20])
def test_wrong_plan_gives_the_same_csv(
    monkeypatch, basis_builds, system_builds, reductions, p, i_max, shift
):
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
        assert len(basis_builds) > 1 and basis_builds == sorted(set(basis_builds))
        assert state.lam_current <= basis_builds[-1] <= state.lam_current + PLAN_SLACK
    else:
        assert basis_builds == [real(p, i_max) + shift]
    # The Vandermonde system follows the same plan: every build after the
    # first is at the missed row's lam + PLAN_SLACK.
    assert system_builds == basis_builds
    for built, rebuilt in zip(system_builds, system_builds[1:]):
        assert rebuilt - PLAN_SLACK in reductions and rebuilt - PLAN_SLACK > built


def test_resumed_sweep_plans_at_least_the_checkpoint_lambda(basis_builds):
    # Row 15 is the first nonempty row past 12 for p = 5.
    state = run_sweep(5, 12)
    basis_builds.clear()
    state.lam_current = 40
    run_sweep(5, 15, resume=state)
    assert basis_builds == [40]


@pytest.mark.parametrize(
    "p, i_max, plan, lams",
    [(5, 36, 17, [10, 12, 15]), (5, 144, 60, None), (11, 132, 26, None)],
    ids=["5-36", "5-144", "11-132"],
)
def test_sweep_builds_one_system_and_reduces_it(
    monkeypatch, system_builds, reductions, p, i_max, plan, lams
):
    # One Vandermonde system, at the plan the KatzBasis builds at, serves
    # every row by reduction; lam never decreases along a sweep, so each
    # distinct lam is reduced to once.  Each reduction serves the t_k and the
    # thresholds gamma of a fresh build at its lam: a second route through
    # the sweep's values alone would not see a wrong gamma.
    served = []
    real = sweep_module.KatzBasis.solutions

    def recording(self, r, lam, count=None):
        system, solutions = real(self, r, lam, count)
        served.append(system)
        return system, solutions

    monkeypatch.setattr(sweep_module.KatzBasis, "solutions", recording)
    state = run_sweep(p, i_max)
    assert sweep_module.planned_precision(p, i_max) == plan
    assert system_builds == [plan]
    assert reductions == sorted(set(reductions))
    assert reductions[-1] == state.lam_current
    if lams is not None:
        assert reductions == lams
    by_lam = {system.lam: system for system in served}
    assert sorted(by_lam) == reductions
    for lam, system in by_lam.items():
        fresh = build_system(p, lam)
        assert (system._ts, system.gamma) == (fresh._ts, fresh.gamma)


@pytest.mark.parametrize(
    "workload, p, i_max", [("sweep-p5-deep", 5, 144), ("sweep-p11", 11, 132)]
)
def test_deep_sweep_matches_benchmark_digest(workload, p, i_max):
    # The per-entry CSV digests pinned by the benchmark, read from its file.
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())[workload]
    assert (expected["p"], expected["i_max"]) == (p, i_max)
    csv_bytes = _entries_csv(run_sweep(p, i_max)).encode()
    assert hashlib.sha256(csv_bytes).hexdigest() == expected["entries_sha256"]


@pytest.mark.parametrize(
    "p, i_max, digest",
    [
        pytest.param(
            5,
            600,
            "e55853dd8122a5166932b60020c9365c01959ca96bb85749b9e5cf88bb7b11cf",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            7,
            560,
            "dd69d94613c5ad298dc2155319680b4c24e03649cbbfd6e4571f08ce88967777",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            17,
            306,
            "0fb66a4f144cce103f6f27639a1fc4ef14466b362d06ae6017d45e54a1df2577",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            19,
            380,
            "9bef70d9a6e237e51ba5632c802efd18cbc4fd3bf1bfbffcbd8e80bd3ac7ed7d",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            29,
            870,
            "8b1494c9f238dcb5e109385e26888a47c4f9f5414fe22fde57cc9d212b6aada0",
            marks=pytest.mark.frontier,
        ),
        pytest.param(
            31,
            992,
            "95d085a6846aaa7206b85d112b00629e1af3d163683c32d35fbed38cedfdcda4",
            marks=pytest.mark.frontier,
        ),
    ],
)
def test_frontier_sweep_matches_pinned_digest(p, i_max, digest, tmp_path):
    # The conjecture frontier at i = p(p+1), and deep rows of p = 5 and 7,
    # where d' = (p-1)/(p(p+1)); the checkpoint a long sweep writes on its
    # interval ends at its final state.  29/870 and 31/992 (N = 2031 and
    # 2481 basis slots, minutes each) have a marker of their own, which
    # neither the default run nor `-m slow` selects.
    path = str(tmp_path / "ck.json")
    state = run_sweep(p, i_max, checkpoint_path=path)
    assert state.d_prime == d_p(p)
    assert summary(state)["unresolved"] == 0
    assert hashlib.sha256(_entries_csv(state).encode()).hexdigest() == digest
    saved = load_checkpoint(path, p)
    assert saved.rows_done == state.rows_done
    assert saved.entries == state.entries


@pytest.mark.parametrize(
    "p, i_max, checks",
    [
        (7, 56, 12),
        pytest.param(11, 132, 20, marks=pytest.mark.slow),
        pytest.param(13, 182, 24, marks=pytest.mark.slow),
    ],
)
def test_attaining_entries_hold_on_a_second_route(p, i_max, checks):
    # At i = p(p+1) every j = 1..p-1 attains d' = (p-1)/(p(p+1)); each is
    # re-derived on other weights, at lambda_max and lambda_max + 4.
    state = run_sweep(p, i_max)
    assert state.d_prime == d_p(p)
    assert state.attained == {(i_max, j) for j in range(1, p)}
    assert oracles.second_route(state) == checks
