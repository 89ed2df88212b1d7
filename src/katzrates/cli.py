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
from .basis import _blocks, block, dim_mk
from .expand import psi

EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_UNSOLVABLE = 4
EXIT_CHECKPOINT = 5
# A sweep that left entries unresolved still writes its checkpoint, CSV and
# summary, then exits with this code.
EXIT_UNRESOLVED = 6
# So does a sweep with an exact entry below the proven bound c_p i - j,
# which proves a fault; this code takes precedence over EXIT_UNRESOLVED.
EXIT_THEOREM_B = 7
# Ctrl-C, SIGTERM: a sweep saves its checkpoint, then exits 128 + the signal.
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143


class _Terminated(KeyboardInterrupt):
    """SIGTERM during a sweep, raised so that run_sweep saves as on Ctrl-C."""


def _terminate(signum, frame):
    raise _Terminated


def integer(text: str) -> int:
    """An integer written as an optional sign and ASCII digits; anything else
    `int` would take (an underscore, a digit of another script) is refused."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer: {text!r}")
    return int(text)


def _read_coefficients(path: str) -> list[int]:
    """Coefficient file, UTF-8 after an optional byte order mark: JSON array
    if it starts with '[', else one `integer` per line (line n+1 =
    coefficient of q^n)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8-sig")
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON input is nested too deeply") from exc
        if not isinstance(data, list) or not all(map(_is_int, data)):
            raise ValueError("JSON input must be an array of integers")
        return data
    coeffs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            coeffs.append(integer(line))
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
    t = psi(args.p, args.n, args.prec, QSeries.from_coeffs(ring, coeffs, N))
    out = {
        "p": args.p,
        "n": args.n,
        "C": args.prec,
        "N": N,
        "components": [
            {"i": i, "coords": [{"j": j, "value": t.x[j]} for j in range(lo, hi)]}
            for i, lo, hi in _blocks(args.p, args.n)
        ],
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_valuations(args) -> int:
    from .solver import KatzBasis, UnsolvableSystem, build_system, solve_row
    from .sweep import write_entries_csv

    try:
        if args.r < 0:
            raise ValueError(f"--r must be >= 0, got {args.r}")
        ss = None if args.weights is None else [integer(s) for s in args.weights.split(",")]
        system = build_system(args.p, args.lam if ss is None else len(ss), ss)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        lo, hi = block(args.p, args.r)
        # An empty block has no entries, and solve_row reads no basis for it.
        basis = KatzBasis(args.r, system) if lo < hi else None
        row = solve_row(args.p, args.r, system.lam, basis=basis)
    except UnsolvableSystem as exc:
        print(f"error: linear system unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    write_entries_csv(row.entries.values(), sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    import signal

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
        real = [os.path.realpath(path) for path in (args.checkpoint, args.out) if path]
        if len(real) == 2 and real[0] == real[1]:
            raise ValueError(f"--out and --checkpoint both name {args.out}")
        # Each output is opened for writing, appending so as to truncate
        # nothing, and a file the probe creates is removed.  An existing
        # checkpoint is left alone: a resume reads it, a save renames over it.
        for path in filter(None, (args.checkpoint, args.out)):
            created = not os.path.lexists(path)
            if created or path == args.out:
                open(path, "a").close()
            if created:
                os.unlink(path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    resume = None
    if args.resume:
        if not args.checkpoint:
            print("error: --resume requires --checkpoint", file=sys.stderr)
            return EXIT_USAGE
        try:
            resume = load_checkpoint(args.checkpoint, args.p)
        except FileNotFoundError:
            resume = None
        except (CheckpointError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECKPOINT
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        state = run_sweep(
            args.p, args.imax, resume=resume, checkpoint_path=args.checkpoint
        )
    except UnsolvableSystem as exc:
        print(f"error: linear system unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except OSError as exc:  # a checkpoint write, on Ctrl-C too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt as exc:
        term = isinstance(exc, _Terminated)
        saved = f"; solved rows saved in {args.checkpoint}" if args.checkpoint else ""
        print(f"error: {'terminated' if term else 'interrupted'}{saved}", file=sys.stderr)
        return EXIT_TERMINATED if term else EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, previous)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                write_entries_csv(state.entries, fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    report = summary(state)
    print(json.dumps(report, indent=2))
    code, violations = 0, report["audits"]["theorem_b_violations"]
    if report["unresolved"]:
        what = "entries with j >= 1 are still inconclusive after the last retry"
        print(f"error: {report['unresolved']} {what}", file=sys.stderr)
        code = EXIT_UNRESOLVED
    if violations:
        what = "exact entries lie below the proven bound c_p i - j (Theorem B)"
        print(f"error: {violations} {what}", file=sys.stderr)
        code = EXIT_THEOREM_B
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katzrates",
        description="Katz expansions and overconvergence-rate bounds for the "
        "p-adic Eisenstein family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("katz-expand", help="Katz expansion of a q-expansion file")
    pk.add_argument("--p", type=integer, required=True)
    pk.add_argument("--n", type=integer, required=True)
    pk.add_argument("--prec", type=integer, required=True, metavar="C")
    pk.add_argument("--input", required=True, metavar="FILE")
    pk.set_defaults(func=cmd_katz_expand)

    pv = sub.add_parser("valuations", help="valuations nu(b_{r,j}) for one row")
    pv.add_argument("--p", type=integer, required=True)
    pv.add_argument("--r", type=integer, required=True)
    weights = pv.add_mutually_exclusive_group(required=True)
    weights.add_argument("--lambda", dest="lam", type=integer)
    weights.add_argument("--weights", metavar="s1,s2,...")
    pv.set_defaults(func=cmd_valuations)

    ps = sub.add_parser("sweep", help="sweep rows and compute the d'_p upper bound")
    ps.add_argument("--p", type=integer, required=True)
    ps.add_argument("--imax", type=integer, required=True)
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
