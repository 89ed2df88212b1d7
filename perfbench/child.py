"""One workload process of the katzrates benchmark.

    python3 perfbench/child.py --result FILE [--trace SPANS] sweep P IMAX
    python3 perfbench/child.py --result FILE [--trace SPANS] cli ARGS...

`sweep` runs `run_sweep(P, IMAX)` and writes to FILE its wall and CPU time,
its summary and the sha256 of its sorted per-entry CSV.  `cli` imports
`katzrates.cli` and runs `main(ARGS)`, as the `katzrates` command does,
writes the wall and CPU time of both to FILE and exits with main's code.  Both write to FILE the CPU-speed samples of speed.py, taken from
start to end.  With `--trace`, the public functions of every layer are
wrapped before the work starts and the spans are written to SPANS when it
ends.  The package is imported from PYTHONPATH.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

from speed import SpeedSampler
from tracer import Tracer


def entries_csv(state) -> bytes:
    """The per-entry CSV in the format of `katzrates sweep --out`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "status", "value", "gamma"])
    for e in sorted(state.entries, key=lambda e: (e.i, e.j)):
        writer.writerow([e.i, e.j, e.status, "" if e.value is None else e.value, e.gamma])
    return buf.getvalue().encode()


def run_sweep_child(p: int, i_max: int) -> dict:
    from katzrates import sweep

    wall, cpu = time.perf_counter(), time.process_time()
    state = sweep.run_sweep(p, i_max)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    c_viol, d_viol = sweep.theorem_b_audit(state)
    graded = [e for e in state.entries if e.j >= 1]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "d_prime": f"{state.d_prime.numerator}/{state.d_prime.denominator}",
        "attained": sorted({i for i, _ in state.attained}),
        "theorem_b_violations": len(c_viol),
        "conjecture_violations": len(d_viol),
        "entries": len(state.entries),
        "graded_entries": len(graded),
        "inconclusive": sum(1 for e in graded if not e.exact),
        "entries_sha256": hashlib.sha256(entries_csv(state)).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("mode", choices=["sweep", "cli"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    wall, cpu = time.perf_counter(), time.process_time()
    tracer = None
    result = {}
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        if args.mode == "sweep":
            p, i_max = (int(x) for x in args.rest)
            result = run_sweep_child(p, i_max)
            return 0
        from katzrates import cli

        return cli.main(args.rest)
    finally:
        if args.mode == "cli":
            result["wall_s"] = time.perf_counter() - wall
            result["cpu_s"] = time.process_time() - cpu
        sampler.stop()
        if tracer is not None:
            tracer.dump(args.trace)
        result["speed_samples"] = sampler.samples
        with open(args.result, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
