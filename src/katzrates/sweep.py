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

CHECKPOINT_VERSION = 2
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
    entries, as an exact rational, and rows 1..rows_done are done.  The
    (i, j) attaining d_prime are read off the entries (`attained`), and a
    checkpoint holds neither: a load folds d_prime from the entries.
    """

    __slots__ = _fields = ("p", "lam_current", "d_prime", "entries", "rows_done")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        p: int,
        lam_current: int = 1,
        d_prime: Fraction = Fraction(1),
        entries: list[SweepEntry] | None = None,
        rows_done: int = 0,
    ):
        self.p, self.lam_current, self.d_prime = p, lam_current, d_prime
        self.entries = [] if entries is None else entries
        self.rows_done = rows_done

    @property
    def attained(self) -> set[tuple[int, int]]:
        """The (i, j) of the exact entries with i >= 1 on the line of slope
        d_prime, compared by `_excess`."""
        slope = (self.d_prime.numerator, self.d_prime.denominator)
        return {
            (e.i, e.j)
            for e in self.entries
            if e.exact and e.i > 0 and not _excess(e, slope)
        }


def _excess(e: SweepEntry, slope: tuple[int, int]) -> int:
    """(nu + j).den - num.i for an exact entry and a slope s = num/den,
    den > 0: nu + j - s.i in integers, scaled by den, so its sign says how
    the valuation compares with the line of slope s."""
    num, den = slope
    return (e.value + e.j) * den - num * e.i


def _fold_rate(entries, d_prime: Fraction) -> Fraction:
    """The running minimum d_prime of (nu(b_{i,j}) + j)/i with the exact
    entries of i >= 1 folded in, compared by `_excess`."""
    slope = (d_prime.numerator, d_prime.denominator)
    for e in entries:
        if e.exact and e.i > 0 and _excess(e, slope) < 0:
            slope = (e.value + e.j, e.i)
    return Fraction(*slope)


def _record_row(state: SweepState, row) -> None:
    """Add solved row rows_done + 1 to the state: its entries (in increasing
    j, as collect_statuses keys them) and the d' update are computed first
    and then stored in two statements, the entries and then the row count,
    d' and lam.  A checkpoint saved after an interrupt between those either
    holds the row whole or fails the load-time checks."""
    entries = list(row.entries.values())
    d_prime = _fold_rate(entries, state.d_prime)
    state.entries += entries
    state.rows_done, state.d_prime, state.lam_current = row.r, d_prime, row.lam


def run_sweep(
    p: int,
    i_max: int,
    resume: SweepState | None = None,
    checkpoint_path: str | None = None,
    progress=None,
) -> SweepState:
    """Sweep rows rows_done + 1..i_max of `resume` (1..i_max without one),
    maintaining the running upper bound d' and pruning each row at
    j <= ceil(d' * i).  Rows with an empty basis block contribute nothing
    and only advance the count.  With `checkpoint_path`, the state is saved
    after a solved row when CHECKPOINT_INTERVAL_S have passed since the last
    save (or the start), once after the loop, even if no row was left, and
    on KeyboardInterrupt, which is then raised again."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if resume is not None:
        if resume.p != p:
            raise ValueError(f"resume state is for p = {resume.p}, not {p}")
        state = resume
    else:
        state = SweepState(p=p)

    # One basis, with its Vandermonde system, serves every row's lam by
    # reduction; the first row solved builds it, so a sweep with no row left
    # builds nothing.
    plan = max(planned_precision(p, i_max), state.lam_current)
    basis = None

    written = time.monotonic()
    try:
        for i in range(state.rows_done + 1, i_max + 1):
            if _empty_block(p, i):
                # Empty basis block: b_{i,j} = 0, nothing to solve.
                state.rows_done = i
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
        "rows_solved": sum(
            not _empty_block(state.p, i) for i in range(1, state.rows_done + 1)
        ),
        "unresolved": sum(1 for e in state.entries if e.j >= 1 and not e.exact),
    }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def state_to_json(state: SweepState) -> dict:
    """The checkpoint of `state`, format 2: only what a resumed sweep cannot
    derive.  d' is the fold of the exact entries, and an entry is exact
    when its value is not null."""
    return {
        "version": CHECKPOINT_VERSION,
        "p": state.p,
        "lambda": state.lam_current,
        "rows_done": state.rows_done,
        "entries": [
            {"i": e.i, "j": e.j, "value": e.value, "gamma": e.gamma} for e in state.entries
        ],
    }


def _entry_from_json(e: dict, rows_done: int, lam: int) -> SweepEntry:
    """One checkpoint entry, after checking that a sweep could have made it:
    among other things, its row is one of 1..rows_done, its gamma is at most
    the checkpoint's `lam`, and it is not an exact j = 0 entry, as b_{i,0} = 0
    (collect_statuses)."""
    i, j, value, gamma = e["i"], e["j"], e["value"], e["gamma"]
    if not (_is_int(i) and _is_int(j) and _is_int(gamma)):
        raise CheckpointError(f"entry {e}: i, j and gamma must be integers")
    if i < 1 or not 0 <= j <= i:
        raise CheckpointError(f"entry {e}: needs i >= 1, j >= 0 and j <= i")
    if not 0 <= gamma <= lam:
        raise CheckpointError(f"entry {e}: gamma must lie in 0..lambda = {lam}")
    if i > rows_done:
        raise CheckpointError(f"entry {e}: row {i} lies past rows_done = {rows_done}")
    if value is not None and not (_is_int(value) and 0 <= value < gamma):
        raise CheckpointError(f"entry {e}: an exact value must lie in [0, gamma)")
    if value is not None and j == 0:
        raise CheckpointError(f"entry {e}: b_{{{i},0}} = 0, so no j = 0 entry is exact")
    return SweepEntry(i=i, j=j, value=value, gamma=gamma)


def _lambda_bound(p: int, rows_done: int) -> int:
    """The largest lam a sweep can have used when rows 1..rows_done are
    done: the last margin's plan at d' = 1 for the last nonempty row m,
    since d' <= 1; 1 if no row is nonempty."""
    m = rows_done
    while m and _empty_block(p, m):
        m -= 1
    return _row_plan(p, m, Fraction(1), _MARGINS[-1])[1] if m else 1


def state_from_json(data: dict) -> SweepState:
    """The SweepState a format-2 checkpoint records, after checking every
    field: p is a prime >= 5, lambda lies in the range a sweep through rows
    1..rows_done can reach, and each of those rows holds the entries
    j = 0..J, J <= i, of one solve (none if its basis block is empty).
    d_prime is folded from the entries.  Any T = 12/gcd(12, p-1) rows in a
    row hold a nonempty block (basis.period), and with it a j = 0 entry, so
    rows_done > T (len(entries) + 1) is refused before anything is sized by
    it."""
    version = data.get("version") if isinstance(data, dict) else data
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {version!r}")
    try:
        p, lam, m, raw = data["p"], data["lambda"], data["rows_done"], data["entries"]
        if not all(map(_is_int, [p, lam, m])):
            raise CheckpointError("p, lambda and rows_done must be integers")
        try:
            RingSpec(p, 1)  # p must be a prime >= 5
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
        most = 12 // math.gcd(12, p - 1) * (len(raw) + 1)
        if not 0 <= m <= most:
            raise CheckpointError(
                f"rows_done {m} lies outside 0..{most}, the range {len(raw)} "
                "entries can cover"
            )
        lam_bound = _lambda_bound(p, m)
        if not 1 <= lam <= lam_bound:
            raise CheckpointError(
                f"lambda {lam} lies outside 1..{lam_bound}, the range a sweep "
                "through its completed rows can reach"
            )
        entries = [_entry_from_json(e, m, lam) for e in raw]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
    row_js: dict[int, list[int]] = {i: [] for i in range(1, m + 1)}
    for e in entries:
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
    return SweepState(p, lam, _fold_rate(entries, Fraction(1)), entries, m)


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
