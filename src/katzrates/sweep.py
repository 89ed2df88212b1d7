"""Sweep driver: runs the valuation solver across rows i <= i_max, prunes j
by the running upper bound d', adapts the number of weights from the kernel
bound, and maintains a checkpointable record of all (i, j, nu) results."""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import time
from fractions import Fraction

from .arithmetic import RingSpec, _is_int, _Record
from .basis import block
from .solver import KatzBasis, SweepEntry, build_system, f_bound, solve_row

CHECKPOINT_VERSION = 1
# A sweep rewrites its checkpoint after a row only when this many seconds
# have passed since its last write, and always once when it ends: a write
# re-encodes every entry, so a write per row would cost O(rows x entries).
CHECKPOINT_INTERVAL_S = 1.0

# Precision added to a missed lam before the sweep's KatzBasis is rebuilt at
# it.
PLAN_SLACK = 2

# Retry policy: the margins on the conclusiveness target a row is solved at,
# in turn, until no entry with j >= 1 is inconclusive or the list runs out.
_MARGINS = (2, 4, 8, 16)


class CheckpointError(ValueError):
    """Checkpoint file does not match the expected schema."""


def c_p(p: int) -> Fraction:
    """Proven lower-bound slope: (2/3)(1 - p/(p-1)^2)/(p+1)."""
    return Fraction(2, 3) * (1 - Fraction(p, (p - 1) ** 2)) / (p + 1)


def d_p(p: int) -> Fraction:
    """Conjectured optimal slope (p-1)/(p(p+1))."""
    return Fraction(p - 1, p * (p + 1))


def _empty_block(p: int, i: int) -> bool:
    """Row i has no basis forms: the dimension does not grow from weight
    (i-1)(p-1) to i(p-1)."""
    lo, hi = block(p, i)
    return lo == hi


def lambda_for(p: int, target_gamma: int, j_max: int) -> int:
    """Smallest number of canonical weights n (with n >= j_max + 1) whose
    kernel threshold on components 0..j_max is at least target_gamma, using
    the bound gamma >= n - j - f(n) for 0-based component j."""
    if target_gamma < 1:
        raise ValueError("target_gamma must be >= 1")
    n = max(j_max + 1, 1)
    # n - j_max - f(n) rises by at most 1 from n to n + 1 (f never
    # decreases), so n can step by its whole shortfall without passing the
    # least solution.
    while (short := target_gamma - (n - j_max - f_bound(p, n))) > 0:
        n += short
    return n


def _row_plan(p: int, i: int, d_prime: Fraction, margin: int) -> tuple[int, int]:
    """(j_max, lam) for row i at the running rate d_prime and a margin: the
    row reads j <= j_max = min(i, ceil(d' i)), and lam gives every component
    j <= j_max a kernel threshold of at least ceil(d' i) + margin."""
    target_j = math.ceil(d_prime * i)
    j_max = min(i, target_j)
    return j_max, lambda_for(p, target_j + margin, j_max)


def planned_precision(p: int, i_max: int) -> int:
    """The precision a sweep to i_max plans its one KatzBasis at, and with
    it the basis's Vandermonde system: the lam of the last row's first
    attempt if the observed rate is the conjectured d_p, plus PLAN_SLACK.
    A wrong plan only costs time: a row needing more rebuilds both at its
    own lam plus PLAN_SLACK."""
    return _row_plan(p, i_max, d_p(p), _MARGINS[0])[1] + PLAN_SLACK


def _basis_for(p: int, i_max: int, lam: int, basis: KatzBasis | None, plan: int):
    """The KatzBasis a sweep to i_max solves a row at lam on: `basis` if it
    reaches lam, else a new one on build_system(p, E), at E = max(lam, plan)
    for the first row solved and at lam + PLAN_SLACK after a miss."""
    if basis is not None and lam <= basis.E:
        return basis
    E = max(lam, plan) if basis is None else lam + PLAN_SLACK
    return KatzBasis(i_max, build_system(p, E))


class SweepState(_Record):
    """Persistent record of a d'_p sweep: mutable, compared by value and
    unhashable.

    d_prime is the running minimum of (nu(b_{i,j}) + j)/i over all exact
    entries, as an exact rational; attained is the set of (i, j) achieving it.
    """

    __slots__ = _fields = (
        "p", "lam_current", "i_max", "d_prime", "entries", "attained", "completed_rows"
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        p: int,
        lam_current: int = 1,
        i_max: int = 0,
        d_prime: Fraction = Fraction(1),
        entries: list[SweepEntry] | None = None,
        attained: set[tuple[int, int]] | None = None,
        completed_rows: set[int] | None = None,
    ):
        self.p, self.lam_current, self.i_max, self.d_prime = p, lam_current, i_max, d_prime
        self.entries = [] if entries is None else entries
        self.attained = set() if attained is None else attained
        self.completed_rows = set() if completed_rows is None else completed_rows


def _excess(e: SweepEntry, slope: tuple[int, int]) -> int:
    """(nu + j).den - num.i for an exact entry and a slope s = num/den,
    den > 0: nu + j - s.i in integers, scaled by den, so its sign says how
    the valuation compares with the line of slope s."""
    num, den = slope
    return (e.value + e.j) * den - num * e.i


def _fold_rate(entries, d_prime: Fraction, attained: set) -> tuple[Fraction, set]:
    """(d', attained) with the exact entries of i >= 1 folded into the running
    minimum d_prime of (nu(b_{i,j}) + j)/i, compared by `_excess`;
    `attained` itself is not changed."""
    slope, attained = (d_prime.numerator, d_prime.denominator), set(attained)
    for e in entries:
        if e.exact and e.i > 0:
            diff = _excess(e, slope)
            if diff < 0:
                slope, attained = (e.value + e.j, e.i), {(e.i, e.j)}
            elif diff == 0:
                attained.add((e.i, e.j))
    return Fraction(*slope), attained


def _record_row(state: SweepState, row) -> None:
    """Add a solved row to the state: its entries (in increasing j, as
    collect_statuses keys them), its lam and the d' update are computed
    first and then stored in three statements.  A checkpoint saved after an
    interrupt between those either holds the row whole or fails the
    load-time checks."""
    entries = list(row.entries.values())
    d_prime, attained = _fold_rate(entries, state.d_prime, state.attained)
    state.entries += entries
    state.completed_rows.add(row.r)
    state.d_prime, state.attained, state.lam_current = d_prime, attained, row.lam


def run_sweep(
    p: int,
    i_max: int,
    resume: SweepState | None = None,
    checkpoint_path: str | None = None,
    progress=None,
) -> SweepState:
    """Sweep rows 1..i_max, maintaining the running upper bound d' and pruning
    each row at j <= ceil(d' * i).  Rows with an empty basis block contribute
    nothing and are skipped.  With `checkpoint_path`, the state is saved
    after a solved row when CHECKPOINT_INTERVAL_S have passed since the last
    save (or the start), once after the loop, even if no row was left, and
    on KeyboardInterrupt, which is then raised again."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if resume is not None:
        if resume.p != p:
            raise ValueError(f"resume state is for p = {resume.p}, not {p}")
        state = resume
        state.i_max = max(state.i_max, i_max)
    else:
        state = SweepState(p=p, i_max=i_max)

    # One basis, with its Vandermonde system, serves every row's lam by
    # reduction; the first row solved builds it, so a sweep with no row left
    # builds nothing.
    plan = max(planned_precision(p, i_max), state.lam_current)
    basis = None

    written = time.monotonic()
    try:
        for i in range(1, i_max + 1):
            if i in state.completed_rows:
                continue
            if _empty_block(p, i):
                # Empty basis block: b_{i,j} = 0, nothing to solve.
                state.completed_rows.add(i)
                continue

            lam = state.lam_current
            for margin in _MARGINS:
                j_max, planned = _row_plan(p, i, state.d_prime, margin)
                lam = max(planned, lam)
                basis = _basis_for(p, i_max, lam, basis, plan)
                row = solve_row(p, i, lam, j_max=j_max, basis=basis)
                if all(e.exact for j, e in row.entries.items() if j):
                    break

            _record_row(state, row)
            if progress:
                progress(state, i)
            if checkpoint_path and time.monotonic() - written >= CHECKPOINT_INTERVAL_S:
                save_checkpoint(state, checkpoint_path)
                written = time.monotonic()
    except KeyboardInterrupt:
        # The rows solved so far are saved; the row in flight is lost.
        if checkpoint_path:
            save_checkpoint(state, checkpoint_path)
        raise

    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    return state


def write_entries_csv(entries, fh) -> None:
    """The per-entry CSV of `katzrates sweep --out` and `katzrates valuations`:
    a header, then one line per entry in (i, j) order, LF line ends."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["i", "j", "status", "value", "gamma"])
    for e in sorted(entries, key=lambda e: (e.i, e.j)):
        writer.writerow([e.i, e.j, e.status, "" if e.value is None else e.value, e.gamma])


def theorem_b_audit(state: SweepState):
    """Exact entries violating the proven bound v >= c_p i - j (must be empty)
    and the conjectured bound v >= d_p i - j (expected empty), compared by
    `_excess` as the rate is."""
    slopes = [(s.numerator, s.denominator) for s in (c_p(state.p), d_p(state.p))]
    c_viol, d_viol = [], []
    for entry in state.entries:
        if not entry.exact:
            continue
        for slope, violations in zip(slopes, (c_viol, d_viol)):
            if _excess(entry, slope) < 0:
                violations.append((entry.i, entry.j, entry.value))
    return c_viol, d_viol


def summary(state: SweepState) -> dict:
    """The observed rate and its audits, the largest lambda used, the number
    of nonempty rows solved, and the inconclusive entries with j >= 1 (left
    unresolved when a row is still stuck at the last margin)."""
    c_viol, d_viol = theorem_b_audit(state)
    return {
        "p": state.p,
        "d_prime": _frac_str(state.d_prime),
        "attained": sorted({i for i, _ in state.attained}),
        "c_p": _frac_str(c_p(state.p)),
        "d_p_conj": _frac_str(d_p(state.p)),
        "audits": {
            "theorem_b_violations": len(c_viol),
            "conjecture_violations": len(d_viol),
        },
        "lambda_max": state.lam_current,
        "rows_solved": sum(not _empty_block(state.p, i) for i in state.completed_rows),
        "unresolved": sum(1 for e in state.entries if e.j >= 1 and not e.exact),
    }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_parse(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def state_to_json(state: SweepState) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "p": state.p,
        "lambda": state.lam_current,
        "i_max": state.i_max,
        "d_prime": _frac_str(state.d_prime),
        "completed_rows": sorted(state.completed_rows),
        "entries": [
            {
                "i": e.i,
                "j": e.j,
                "status": e.status,
                "value": e.value,
                "gamma": e.gamma,
            }
            for e in state.entries
        ],
    }


def _entry_from_json(e: dict, completed_rows: set[int], lam: int) -> SweepEntry:
    """One checkpoint entry, after checking that a sweep could have made it:
    among other things, its gamma is capped at its row's lambda, which is at
    most the checkpoint's `lam`."""
    i, j, gamma = e["i"], e["j"], e["gamma"]
    status, value = e["status"], e["value"]
    if not (_is_int(i) and _is_int(j) and _is_int(gamma)):
        raise CheckpointError(f"entry {e}: i, j and gamma must be integers")
    if i < 1 or not 0 <= j <= i:
        raise CheckpointError(f"entry {e}: needs i >= 1, j >= 0 and j <= i")
    if not 0 <= gamma <= lam:
        raise CheckpointError(f"entry {e}: gamma must lie in 0..lambda = {lam}")
    if i not in completed_rows:
        raise CheckpointError(f"entry {e}: row {i} is not in completed_rows")
    if status == "exact":
        if not (_is_int(value) and 0 <= value < gamma):
            raise CheckpointError(f"entry {e}: an exact value must lie in [0, gamma)")
    elif status != "inconclusive" or value is not None:
        raise CheckpointError(
            f"entry {e}: needs status exact, or inconclusive and no value"
        )
    return SweepEntry(i=i, j=j, value=value, gamma=gamma)


def _lambda_bound(p: int, rows) -> int:
    """The largest lam a sweep can have used when `rows` are its completed
    rows: the last margin's plan at d' = 1 for the last nonempty row m,
    since d' <= 1; 1 if no row is nonempty."""
    m = max((i for i in rows if not _empty_block(p, i)), default=0)
    return _row_plan(p, m, Fraction(1), _MARGINS[-1])[1] if m else 1


def state_from_json(data: dict) -> SweepState:
    """The SweepState a checkpoint records, after checking every field, that
    p is a prime >= 5, that the completed rows are 1..m with m <= i_max, that
    lambda lies in the range a sweep through them can reach, that each holds
    the entries j = 0..J of one solve with J <= i (none if its basis block is
    empty) and gamma <= lambda, and that d_prime is the minimum over the
    exact entries."""
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {data.get('version') if isinstance(data, dict) else data!r}"
        )
    try:
        p, lam, i_max = data["p"], data["lambda"], data["i_max"]
        rows = data["completed_rows"]
        if not all(map(_is_int, [p, lam, i_max, *rows])):
            raise CheckpointError(
                "p, lambda, i_max and completed_rows must be integers"
            )
        try:
            RingSpec(p, 1)  # p must be a prime >= 5
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        outside = sorted(i for i in rows if not 1 <= i <= i_max)
        if outside:
            raise CheckpointError(f"completed_rows {outside} lie outside 1..{i_max}")
        if sorted(rows) != list(range(1, len(rows) + 1)):
            raise CheckpointError(
                "completed_rows are not 1..m for one m, as a sweep completes rows in order"
            )
        if not isinstance(data["d_prime"], str):
            raise CheckpointError("d_prime must be a string p/q")
        lam_bound = _lambda_bound(p, rows)
        if not 1 <= lam <= lam_bound:
            raise CheckpointError(
                f"lambda {lam} lies outside 1..{lam_bound}, the range a sweep "
                "through its completed rows can reach"
            )
        state = SweepState(
            p=p,
            lam_current=lam,
            i_max=i_max,
            d_prime=_frac_parse(data["d_prime"]),
            completed_rows=set(rows),
        )
        state.entries = [
            _entry_from_json(e, state.completed_rows, lam) for e in data["entries"]
        ]
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
    row_js: dict[int, list[int]] = {i: [] for i in state.completed_rows}
    for e in state.entries:
        row_js[e.i].append(e.j)
    for i, js in sorted(row_js.items()):
        js.sort()
        if _empty_block(p, i):
            if js:
                raise CheckpointError(
                    f"row {i} has an empty basis block but entries j = {js}"
                )
        elif js != list(range(max(len(js), 1))):
            raise CheckpointError(
                f"row {i} has entries j = {js}, not j = 0..J for one J >= 0"
            )
    d_prime, attained = _fold_rate(state.entries, Fraction(1), set())
    if state.d_prime != d_prime:
        raise CheckpointError(
            f"d_prime {_frac_str(state.d_prime)} is not the minimum "
            f"{_frac_str(d_prime)} over the exact entries"
        )
    state.attained = attained
    return state


def save_checkpoint(state: SweepState, path: str) -> None:
    """Durable atomic write: the JSON text goes to a temp file in the target
    directory, is flushed and fsynced, and then renamed over `path`; the
    directory is fsynced after the rename, where it can be opened
    (os.O_DIRECTORY), so that a crash cannot lose the rename."""
    text = json.dumps(state_to_json(state))
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_checkpoint(path: str, p: int) -> SweepState:
    """The checkpoint at `path` for a sweep over p.  One for another p is
    refused as such, before `state_from_json` checks its contents: the error
    names the p it was written for, whatever else in it is wrong."""
    with open(path) as fh:
        # ValueError covers the decode errors and an int past the digit limit.
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"checkpoint cannot be read as JSON: {exc}") from exc
    if isinstance(data, dict) and _is_int(data.get("p")) and data["p"] != p:
        raise CheckpointError(f"checkpoint is for p = {data['p']}, not {p}")
    return state_from_json(data)
