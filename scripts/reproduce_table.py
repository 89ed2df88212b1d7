#!/usr/bin/env python3
"""Reproduce the observed-rate table by sweeping several primes.

For each prime the script runs the full sweep up to the given i_max, prints
one table row (p, i_max, observed rate d'_p, where equality was attained,
the proven lower-bound slope c_p, the entries left unresolved, wall time,
and the process's peak RSS so far), and optionally writes the per-(i, j)
valuation entries to CSV files.  The peak is ru_maxrss, read as KB as Linux
reports it; it never falls, so a row's figure is that of the largest row
swept up to it in this process.
It exits 1 if any row has a Theorem-B violation, a conjecture violation or
unresolved entries, and 0 otherwise, so it can gate a run.

By default it prints two sections: the paper's table, and the conjecture
frontier, rows swept to i = p(p+1), where the table's minimum sits for
p = 5, 7, 11.  A frontier d'_p is only what the sweep certifies up to i_max:
an upper bound on the rate, not its limit.  Its last rows, 29/870 and
31/992 (bases of 2031 and 2481 slots), took 78 s and 142 s at a peak RSS of
71 and 87 MB, each run alone with --rows on a shared 2-vCPU VM under
Python 3.11; earlier runs on such VMs read 85 s and 123-133 s at 86-89 and
102 MB.  --rows skips them.

Example:
    python3 scripts/reproduce_table.py --out-dir results/
    python3 scripts/reproduce_table.py --rows 5:36 7:56
"""

import argparse
import os
import resource
import sys
import time

from katzrates.arithmetic import RingSpec
from katzrates.cli import integer
from katzrates.sweep import (
    c_p,
    d_p,
    run_sweep,
    summary,
    theorem_b_audit,
    write_entries_csv,
)

DEFAULT_ROWS = [(5, 36), (7, 56), (11, 132), (13, 84), (17, 20)]
FRONTIER_ROWS = [(13, 182), (17, 306), (29, 870), (31, 992)]


def parse_row(text):
    """p:imax, p a prime >= 5 and imax >= 1, each integer read as the
    `katzrates` flags read theirs; anything else exits 2 before any sweep."""
    try:
        p_str, imax_str = text.split(":")
        p, i_max = integer(p_str), integer(imax_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected p:imax, got {text!r}")
    try:
        RingSpec(p, 1)  # p must be a prime >= 5
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")
    if i_max < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: imax must be >= 1")
    return p, i_max


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows",
        nargs="+",
        type=parse_row,
        metavar="p:imax",
        help="sweep only these ranges, e.g. 5:36 7:56 (default: the paper's "
        "table, then the frontier)",
    )
    parser.add_argument(
        "--out-dir",
        help="write per-prime valuation CSVs into this directory: p<p>.csv, "
        "and frontier_p<p>.csv for the frontier section; --rows may then name "
        "each prime once",
    )
    args = parser.parse_args(argv)

    if args.rows:
        sections = [(None, args.rows, "p{}.csv")]
    else:
        sections = [
            ("paper table", DEFAULT_ROWS, "p{}.csv"),
            ("frontier: i_max = p(p+1)", FRONTIER_ROWS, "frontier_p{}.csv"),
        ]
    if args.out_dir:
        # A second row for one prime would overwrite the first's CSV.
        names = [name.format(p) for _, rows, name in sections for p, _ in rows]
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            parser.error(f"--out-dir: more than one row writes {', '.join(twice)}")
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            # Exit 2, as a bad --rows does: 1 means a failed audit.
            parser.error(f"--out-dir {args.out_dir!r}: {exc.strerror or exc}")

    header = (
        f"{'p':>4} {'i_max':>6} {'d_p_prime':>10} {'attained':>20} {'c_p':>8} "
        f"{'unresolved':>10} {'time':>7} {'peak_rss':>9}"
    )
    failed = False
    for title, rows, csv_name in sections:
        if title:
            print(f"# {title}")
        print(header)
        print("-" * len(header))
        for p, i_max in rows:
            state, ok = _print_row(p, i_max)
            failed |= not ok
            if args.out_dir:
                path = os.path.join(args.out_dir, csv_name.format(p))
                with open(path, "w", newline="") as fh:
                    write_entries_csv(state.entries, fh)
    return 1 if failed else 0


def _print_row(p, i_max):
    """Sweep one row, print its table line and its comparison with d_p.
    Returns the sweep's state and whether it is free of audit violations and
    unresolved entries."""
    start = time.perf_counter()
    state = run_sweep(p, i_max)
    elapsed = time.perf_counter() - start
    c_viol, d_viol = theorem_b_audit(state)
    attained = sorted({i for i, _ in state.attained})
    unresolved = summary(state)["unresolved"]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{p:>4} {i_max:>6} {str(state.d_prime):>10} "
        f"{str(attained):>20} {str(c_p(p)):>8} {unresolved:>10} {elapsed:>6.1f}s "
        f"{peak_mb:>6.1f} MB"
    )
    if c_viol or d_viol:
        print(f"  !! audit violations: c_p={c_viol} d_p={d_viol}")
    if state.d_prime == d_p(p):
        note = "matches the conjectured rate (p-1)/(p(p+1))"
    elif state.d_prime > d_p(p):
        note = f"above the conjectured rate {d_p(p)}"
    else:
        note = f"BELOW the conjectured rate {d_p(p)}"
    print(f"      {note}")
    return state, not (c_viol or d_viol or unresolved)


if __name__ == "__main__":
    sys.exit(main())
