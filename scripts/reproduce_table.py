#!/usr/bin/env python3
"""Reproduce the observed-rate table by sweeping several primes.

For each prime the script runs the full sweep up to the given i_max, prints
one table row (p, i_max, observed rate d'_p, where equality was attained,
the proven lower-bound slope c_p, the entries left unresolved, and wall
time), and optionally writes the per-(i, j) valuation entries to CSV files.
It exits 1 if any row has a Theorem-B violation, a conjecture violation or
unresolved entries, and 0 otherwise, so it can gate a run.

By default it prints two sections: the paper's table, and the conjecture
frontier, rows swept to i = p(p+1), where the table's minimum sits for
p = 5, 7, 11.  A frontier d'_p is only what the sweep certifies up to i_max:
an upper bound on the rate, not its limit.  Its last row, 29/870 (a basis
of 2031 slots), takes minutes and a few hundred MB; --rows skips it.

Example:
    python3 scripts/reproduce_table.py --out-dir results/
    python3 scripts/reproduce_table.py --rows 5:36 7:56
"""

import argparse
import os
import sys
import time

from katzrates.sweep import (
    c_p,
    d_p,
    run_sweep,
    summary,
    theorem_b_audit,
    write_entries_csv,
)

DEFAULT_ROWS = [(5, 36), (7, 56), (11, 132), (13, 84), (17, 20)]
FRONTIER_ROWS = [(13, 182), (17, 306), (29, 870)]


def parse_row(text):
    try:
        p_str, imax_str = text.split(":")
        return int(p_str), int(imax_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected p:imax, got {text!r}")


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
        "and frontier_p<p>.csv for the frontier section",
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
        os.makedirs(args.out_dir, exist_ok=True)

    header = (
        f"{'p':>4} {'i_max':>6} {'d_p_prime':>10} {'attained':>20} {'c_p':>8} "
        f"{'unresolved':>10} {'time':>7}"
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
    print(
        f"{p:>4} {i_max:>6} {str(state.d_prime):>10} "
        f"{str(attained):>20} {str(c_p(p)):>8} {unresolved:>10} {elapsed:>6.1f}s"
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
