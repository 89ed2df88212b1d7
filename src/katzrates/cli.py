"""Command-line surface: Katz expansion of a q-expansion file, valuation rows,
and the full d'_p sweep with checkpointing and CSV/JSON output."""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only what katz-expand needs is imported here; the solver and the sweep
# are imported by the commands that use them.
from .arithmetic import QSeries, RingSpec, _is_int
from .basis import dim_mk
from .classical import WeightSpec
from .expand import PrecisionMismatch, psi

EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_UNSOLVABLE = 4
EXIT_CHECKPOINT = 5
# A sweep that left entries unresolved still writes its checkpoint, CSV and
# summary, then exits with this code.
EXIT_UNRESOLVED = 6


def _read_coefficients(path: str) -> list[int]:
    """Coefficient file: JSON array if it starts with '[', else one integer
    per line (line n+1 = coefficient of q^n)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    stripped = text.lstrip()
    if stripped.startswith("["):
        data = json.loads(text)
        if not isinstance(data, list) or not all(map(_is_int, data)):
            raise ValueError("JSON input must be an array of integers")
        return data
    coeffs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            coeffs.append(int(line))
    return coeffs


def cmd_katz_expand(args) -> int:
    try:
        ring = RingSpec(args.p, args.prec)
        if args.n < 0:
            raise ValueError(f"--n must be >= 0, got {args.n}")
        coeffs = _read_coefficients(args.input)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    N = dim_mk(args.n * (args.p - 1))
    if len(coeffs) != N:
        print(
            f"error: input has {len(coeffs)} coefficients but (p={args.p}, "
            f"n={args.n}) requires N = d_{{n(p-1)}} = {N}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    f = QSeries.from_coeffs(ring, coeffs, N)
    try:
        t = psi(args.p, args.n, args.prec, f)
    except PrecisionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    out = {
        "p": args.p,
        "n": args.n,
        "C": args.prec,
        "N": N,
        "components": [
            {
                "i": comp.i,
                "coords": [
                    {"j": j, "value": v} for j, v in zip(comp.js, comp.coords)
                ],
            }
            for comp in t.components
        ],
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_valuations(args) -> int:
    from .solver import UnsolvableSystem, build_system, solve_row
    from .sweep import row_entries, write_entries_csv

    try:
        if args.r < 0:
            raise ValueError(f"--r must be >= 0, got {args.r}")
        if args.weights is not None:
            s_values = [int(s) for s in args.weights.split(",")]
            lam = len(s_values)
            ring = RingSpec(args.p, lam)
            weights = [WeightSpec(ring, s) for s in s_values]
        else:
            lam, weights = args.lam, None
        # RingSpec rejects a p that is not a prime >= 5: above for --weights,
        # in build_system for --lambda.
        system = build_system(args.p, lam, weights)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        row = solve_row(args.p, args.r, lam, system=system)
    except UnsolvableSystem as exc:
        print(f"error: linear system unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    write_entries_csv(row_entries(row), sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    from .solver import UnsolvableSystem
    from .sweep import (
        CheckpointError,
        load_checkpoint,
        run_sweep,
        summary,
        write_entries_csv,
    )

    try:
        RingSpec(args.p, 1)  # p must be a prime >= 5
        if args.imax < 1:
            raise ValueError("--imax must be >= 1")
        for path in (args.checkpoint, args.out):
            if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValueError(f"directory of {path} does not exist")
            if path and os.path.isdir(path):
                raise ValueError(f"{path} is a directory")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    resume = None
    if args.resume:
        if not args.checkpoint:
            print("error: --resume requires --checkpoint", file=sys.stderr)
            return EXIT_USAGE
        try:
            resume = load_checkpoint(args.checkpoint)
            if resume.p != args.p:
                raise CheckpointError(
                    f"checkpoint is for p = {resume.p}, not {args.p}"
                )
        except FileNotFoundError:
            resume = None
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECKPOINT
    try:
        state = run_sweep(
            args.p, args.imax, resume=resume, checkpoint_path=args.checkpoint
        )
    except UnsolvableSystem as exc:
        print(f"error: linear system unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_entries_csv(state.entries, fh)
    report = summary(state)
    json.dump(report, sys.stdout, indent=2)
    print()
    if report["unresolved"]:
        print(
            f"error: {report['unresolved']} entries with j >= 1 are still "
            "inconclusive after the last retry",
            file=sys.stderr,
        )
        return EXIT_UNRESOLVED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katzrates",
        description="Katz expansions and overconvergence-rate bounds for the "
        "p-adic Eisenstein family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("katz-expand", help="Katz expansion of a q-expansion file")
    pk.add_argument("--p", type=int, required=True)
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--prec", type=int, required=True, metavar="C")
    pk.add_argument("--input", required=True, metavar="FILE")
    pk.set_defaults(func=cmd_katz_expand)

    pv = sub.add_parser("valuations", help="valuations nu(b_{r,j}) for one row")
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--r", type=int, required=True)
    weights = pv.add_mutually_exclusive_group(required=True)
    weights.add_argument("--lambda", dest="lam", type=int)
    weights.add_argument("--weights", metavar="s1,s2,...")
    pv.set_defaults(func=cmd_valuations)

    ps = sub.add_parser("sweep", help="sweep rows and compute the d'_p upper bound")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--imax", type=int, required=True)
    ps.add_argument("--checkpoint", default=None, metavar="FILE")
    ps.add_argument("--resume", action="store_true")
    ps.add_argument("--out", default=None, metavar="CSV")
    ps.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
