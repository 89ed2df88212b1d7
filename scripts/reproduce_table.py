#!/usr/bin/env python3
"""Reproduce the observed-rate table by sweeping several primes.

For each prime the script runs the full sweep up to the given i_max, prints
one table row (p, i_max, observed rate d'_p, where equality was attained,
the proven lower-bound slope c_p, and wall time), and optionally writes the
per-(i, j) valuation entries to CSV files.

Example:
    python3 scripts/reproduce_table.py --out-dir results/
    python3 scripts/reproduce_table.py --rows 5:36 7:56
"""

import argparse
import os
import sys
import time
from fractions import Fraction

from katzrates.sweep import c_p, d_p, run_sweep, theorem_b_audit, write_entries_csv

DEFAULT_ROWS = [(5, 36), (7, 56), (11, 132), (13, 84), (17, 20)]


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
        default=DEFAULT_ROWS,
        metavar="p:imax",
        help="sweep ranges, e.g. 5:36 7:56 (default: the full table)",
    )
    parser.add_argument(
        "--out-dir", help="write per-prime valuation CSVs into this directory"
    )
    args = parser.parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    header = f"{'p':>4} {'i_max':>6} {'d_p_prime':>10} {'attained':>20} {'c_p':>8} {'time':>7}"
    print(header)
    print("-" * len(header))
    for p, i_max in args.rows:
        start = time.perf_counter()
        state = run_sweep(p, i_max)
        elapsed = time.perf_counter() - start
        c_viol, d_viol = theorem_b_audit(state)
        attained = sorted({i for i, _ in state.attained})
        print(
            f"{p:>4} {i_max:>6} {str(state.d_prime):>10} "
            f"{str(attained):>20} {str(c_p(p)):>8} {elapsed:>6.1f}s"
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
        if args.out_dir:
            path = os.path.join(args.out_dir, f"p{p}.csv")
            with open(path, "w", newline="") as fh:
                write_entries_csv(state.entries, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
