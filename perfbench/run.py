"""Benchmark of the katzrates package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of a workload runs in
fresh Python processes that import the package from `src/`, so each starts
with cold caches.  Workloads (see BENCHMARK.json for why each was chosen):

  sweep-p11      run_sweep(11, 132), the paper's headline table row
  sweep-p5-deep  run_sweep(5, 144), a row beyond the table
  cli-session    five `katzrates` processes (perfbench/child.py calling
                 katzrates.cli.main, the command's entry point): katz-expand
                 on three random coefficient files made from --seed, then a
                 p=7 sweep to i=28 with a checkpoint, resumed to i=56 with
                 --out

With --trace 0 the run repeats the workload untraced for about S seconds and
reports the end-to-end metrics, each the median over repetitions or samples:

  wall_s       wall time of run_sweep, or the sum over the five processes of
               cli-session of importing katzrates.cli and running main
  cpu_s        user+sys CPU time of the same
  setup_s      a fresh interpreter importing katzrates.cli
  peak_rss_mb  the largest maximum RSS of the repetition's processes
  ok_frac      1 - failed/attempted operations: entries (i, j >= 1) of a
               sweep, invocations of cli-session

wall_s and cpu_s are divided by the slowdown that speed.py measured inside
each workload process, so they read as seconds at a fixed reference CPU
speed and do not move with the load other tenants put on a shared host.
The raw times are logged with each repetition.  KATZ_THREADS is removed
from the workload processes' environment, so the sweep's thread pool runs
at its default size.

With --trace 1 it repeats pairs of one untraced and one traced repetition and
reports the per-layer metrics of perfbench/tracer.py and the tracing
overhead, and fails if tracing changed any result.

Every repetition runs the correctness gate against the values pinned in
perfbench/expected.json, which also holds the operation counts of the seed
code.  The last line of standard output is the result object; the lines
before it record the environment and each repetition.  Exits 2 without a
result when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import slowdown
from tracer import aggregate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
PY = sys.executable or "python3"

# Precision (p, n, C) of each katz-expand call in cli-session: the deep p=5
# row, the headline p=11 row, and the largest truncation (N = 169).
KATZ_EXPAND = ((5, 144, 60), (11, 132, 40), (13, 168, 30))
CLI_SWEEP = (7, 28, 56)  # p, i_max before the interruption, i_max after
# Setup samples: some before the first repetition and some after each, so
# that they spread over the run instead of meeting one slow second.
SETUP_FIRST, SETUP_PER_REP = 3, 2
MAX_MEASURE_S = 120.0  # cap on --seconds, so that a run ends inside 180 s
HARD_LIMIT_S = 170.0  # children still running then are killed


class SetupError(RuntimeError):
    """The package cannot be imported from this checkout."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class Rep:
    wall_s: float = 0.0  # at the reference CPU speed
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0  # as measured
    raw_cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    signature: list = field(default_factory=list)  # results tracing must not change
    span_files: list = field(default_factory=list)  # (path, slowdown of its process)
    invocation_s: list = field(default_factory=list)  # cli-session only

    def add_time(self, wall: float, cpu: float, samples) -> float:
        slow = slowdown(samples) if samples else 1.0
        self.raw_wall_s += wall
        self.raw_cpu_s += cpu
        self.wall_s += wall / slow
        self.cpu_s += cpu / slow
        return slow


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KATZ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, stdout_path, deadline: float) -> Proc:
    """Run one process to completion; wall time from spawn to exit, peak RSS
    from its resource usage.  Killed at the run's hard deadline."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Proc(rc=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0)


def read_result(path: Path) -> dict:
    """The result file a child writes; empty when it died before writing."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def stderr_tail(stdout_path) -> str:
    text = Path(str(stdout_path) + ".err").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure_setup(work: Path, deadline: float, n: int) -> list[float]:
    """Wall time of n fresh interpreters importing katzrates.cli."""
    out = work / "setup.out"
    samples = []
    for _ in range(n):
        proc = spawn([PY, "-c", "import katzrates.cli"], out, deadline)
        if proc.rc != 0:
            raise SetupError(f"cannot import katzrates from {SRC}: {stderr_tail(out)}")
        samples.append(proc.wall_s)
    return samples


class SweepWorkload:
    """One run_sweep(p, i_max) per repetition, in a fresh child process.  An
    operation is an entry (i, j >= 1)."""

    def __init__(self, p: int, i_max: int, expected: dict, work: Path):
        self.p, self.i_max, self.expected, self.work = p, i_max, expected, work

    def rep(self, traced: bool, deadline: float) -> Rep:
        d = Path(tempfile.mkdtemp(dir=self.work))
        argv = [PY, BENCH / "child.py", "--result", d / "result.json"]
        if traced:
            argv += ["--trace", d / "spans.json"]
        argv += ["sweep", self.p, self.i_max]
        proc = spawn(argv, d / "stdout", deadline)
        rep = Rep(rss_mb=proc.rss_mb, attempted=self.expected["graded_entries"])
        got = read_result(d / "result.json")
        if proc.rc != 0 or "wall_s" not in got:
            rep.errors.append(f"child exited {proc.rc}: {stderr_tail(d / 'stdout')}")
            rep.failed = rep.attempted
            return rep
        slow = rep.add_time(got["wall_s"], got["cpu_s"], got["speed_samples"])
        rep.attempted = got["graded_entries"]
        rep.failed = got["inconclusive"]
        for key in ("d_prime", "attained", "entries", "graded_entries", "entries_sha256"):
            if got[key] != self.expected[key]:
                rep.errors.append(f"{key} = {got[key]!r}, expected {self.expected[key]!r}")
        for key in ("theorem_b_violations", "conjecture_violations"):
            if got[key]:
                rep.errors.append(f"{got[key]} {key}")
        if rep.errors:
            rep.failed = rep.attempted
        rep.signature = [got["d_prime"], got["attained"], got["entries_sha256"]]
        if traced:
            rep.span_files.append((d / "spans.json", slow))
        return rep


class CliSession:
    """A user's session of separate `katzrates` processes.  An operation is
    one invocation; it fails on a non-zero exit or a wrong output."""

    def __init__(self, seed: int, expected: dict, work: Path, deadline: float):
        from katzrates import QSeries, RingSpec, dim_mk, phi, psi

        self.expected, self.work = expected, work
        rng = random.Random(seed)
        inputs = work / "inputs"
        inputs.mkdir()
        self.expand = []  # (argv, expected coordinates or None)
        for k, (p, n, C) in enumerate(KATZ_EXPAND):
            N = dim_mk(n * (p - 1))
            coeffs = [rng.randrange(p**C) for _ in range(N)]
            path = inputs / f"f_{p}_{n}_{C}.txt"
            if k == 0:  # exercise both input formats
                path.write_text(json.dumps(coeffs))
            else:
                path.write_text("".join(f"{c}\n" for c in coeffs))
            f = QSeries.from_coeffs(RingSpec(p, C), coeffs, N)
            t = psi(p, n, C, f)
            coords = list(t.x) if phi(p, n, C, t) == f else None
            args = ["katz-expand", "--p", p, "--n", n, "--prec", C, "--input", path]
            self.expand.append((args, (p, n, C, N, coords)))

        # The uninterrupted sweep the resumed one must reproduce byte for byte.
        p, _, i_max = CLI_SWEEP
        ref = work / "uninterrupted.csv"
        proc = spawn(
            [PY, "-m", "katzrates.cli", "sweep", "--p", p, "--imax", i_max, "--out", ref],
            work / "uninterrupted.out",
            deadline,
        )
        self.reference_csv = ref.read_bytes() if proc.rc == 0 and ref.exists() else None
        self.reference_error = None
        if self.reference_csv is None:
            self.reference_error = f"uninterrupted sweep exited {proc.rc}"
        elif sha256(self.reference_csv) != expected["csv_sha256"]:
            self.reference_error = "uninterrupted sweep CSV differs from the pinned digest"

    def _check_expand(self, out: bytes, want) -> str | None:
        p, n, C, N, coords = want
        if coords is None:
            return f"phi(psi(f)) != f in process at (p, n, C) = {(p, n, C)}"
        data = json.loads(out)
        if [data["p"], data["n"], data["C"], data["N"]] != [p, n, C, N]:
            return f"katz-expand header {data['p'], data['n'], data['C'], data['N']}"
        got = [(c["j"], c["value"]) for comp in data["components"] for c in comp["coords"]]
        if got != list(enumerate(coords)):
            return f"katz-expand coordinates differ from psi at (p, n, C) = {(p, n, C)}"
        return None

    def _check_sweep(self, out: bytes, want: dict) -> str | None:
        data = json.loads(out)
        audits = data["audits"]
        if audits["theorem_b_violations"] or audits["conjecture_violations"]:
            return f"sweep audit violations {audits}"
        if data["d_prime"] != want["d_prime"] or data["attained"] != want["attained"]:
            return f"sweep d' = {data['d_prime']} at {data['attained']}, expected {want}"
        return None

    def rep(self, traced: bool, deadline: float) -> Rep:
        d = Path(tempfile.mkdtemp(dir=self.work))
        p, i_split, i_max = CLI_SWEEP
        ckpt, csv_out = d / "checkpoint.json", d / "resumed.csv"
        sweep = ["sweep", "--p", p, "--checkpoint", ckpt]
        calls = [(args, self._check_expand, want) for args, want in self.expand]
        calls.append(
            (sweep + ["--imax", i_split], self._check_sweep, self.expected["interrupted"])
        )
        calls.append(
            (
                sweep + ["--imax", i_max, "--resume", "--out", csv_out],
                self._check_sweep,
                self.expected["resumed"],
            )
        )
        rep = Rep()
        for k, (args, check, want) in enumerate(calls):
            out_path, result = d / f"stdout{k}", d / f"result{k}.json"
            spans = d / f"spans{k}.json"
            argv = [PY, BENCH / "child.py", "--result", result]
            if traced:
                argv += ["--trace", spans]
            proc = spawn(argv + ["cli"] + args, out_path, deadline)
            got = read_result(result)
            wall = got.get("wall_s", 0.0)
            slow = rep.add_time(wall, got.get("cpu_s", 0.0), got.get("speed_samples"))
            rep.invocation_s.append(wall / slow)
            rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
            rep.attempted += 1
            out = out_path.read_bytes()
            if proc.rc != 0:
                error = f"{args[0]} exited {proc.rc}: {stderr_tail(out_path)}"
            else:
                try:
                    error = check(out, want)
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"{args[0]} output unreadable: {exc!r}"
            if error is None and k == len(calls) - 1:
                resumed = csv_out.read_bytes() if csv_out.exists() else b""
                out += resumed
                if self.reference_error:
                    error = self.reference_error
                elif resumed != self.reference_csv:
                    error = "resumed --out CSV differs from the uninterrupted sweep"
            if error:
                rep.failed += 1
                rep.errors.append(error)
            rep.signature.append(sha256(out))
            if traced:
                rep.span_files.append((spans, slow))
        return rep


def environment(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "katzrates").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        # The children always run with KATZ_THREADS unset; this records
        # whether the caller had set it.
        "KATZ_THREADS": os.environ.get("KATZ_THREADS"),
    }


def repeat(fn, deadline: float) -> list:
    """Call fn at least once, then again while the median call still fits
    before the deadline."""
    out, took = [], []
    while True:
        start = time.perf_counter()
        out.append(fn())
        took.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(took) > deadline:
            return out


def log(obj) -> None:
    print(json.dumps(obj), flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    timed = [r for r in reps if not r.errors] or reps  # a crashed process has no time
    return {
        "wall_s": metric(statistics.median(r.wall_s for r in timed), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in timed), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in reps), "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
    }


def per_layer(pairs, units: dict, seed_counts: dict):
    """Per-layer metrics of (untraced, traced) pairs: counts from the first
    traced repetition, times as medians.  Tracing must not change results."""
    errors = []
    layers = []
    for plain, traced in pairs:
        if traced.signature != plain.signature:
            errors.append("tracing changed the results: traced and untraced outputs differ")
        if traced.span_files and all(Path(f).exists() for f, _ in traced.span_files):
            m, missing = aggregate(traced.span_files)
            if missing:
                log({"untraced_targets": missing})
        else:
            errors.append("traced repetition wrote no spans")
            m = {}
        m["cli.invocations"] = len(traced.invocation_s)
        m["cli.invocation_p50_s"] = (
            statistics.median(traced.invocation_s) if traced.invocation_s else 0.0
        )
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        m["trace.overhead_frac"] = m["trace.overhead_s"] / plain.wall_s if plain.wall_s else 0.0
        layers.append(m)
    counts = [name for name, unit in units.items() if unit in ("count", "ops", "bytes")]
    for m in layers[1:]:
        moved = [n for n in counts if m.get(n) != layers[0].get(n)]
        if moved:
            log({"warning": "counts differ between traced repetitions", "counts": moved})
    changed = {
        n: {"seed": seed_counts[n], "now": layers[0].get(n)}
        for n in seed_counts
        if layers[0].get(n) != seed_counts[n]
    }
    if changed:
        log({"counts_changed_since_seed": changed})
    metrics = {
        name: metric(
            layers[0].get(name, 0)
            if name in counts
            else statistics.median(m.get(name, 0) for m in layers),
            unit,
        )
        for name, unit in units.items()
    }
    return metrics, errors


def main(argv=None) -> int:
    expected_all = json.loads((BENCH / "expected.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(expected_all))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    deadline = start + min(args.seconds, MAX_MEASURE_S)
    hard_deadline = start + HARD_LIMIT_S
    if not (SRC / "katzrates" / "__init__.py").is_file():
        print(f"error: no katzrates package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    expected = expected_all[args.workload]

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        try:
            # The first import checks the package and writes its bytecode.
            measure_setup(work, hard_deadline, 1)
            setup = [] if args.trace else measure_setup(work, hard_deadline, SETUP_FIRST)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        log({"env": environment(args)})
        if args.workload == "cli-session":
            workload = CliSession(args.seed, expected, work, hard_deadline)
        else:
            workload = SweepWorkload(expected["p"], expected["i_max"], expected, work)

        if args.trace:
            pairs = repeat(
                lambda: (
                    workload.rep(False, hard_deadline),
                    workload.rep(True, hard_deadline),
                ),
                deadline,
            )
            reps = [r for pair in pairs for r in pair]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, errors = per_layer(pairs, units, expected.get("seed_counts", {}))
        else:

            def untraced() -> Rep:
                r = workload.rep(False, hard_deadline)
                setup.extend(measure_setup(work, hard_deadline, SETUP_PER_REP))
                return r

            reps = repeat(untraced, deadline)
            metrics, errors = end_to_end(reps, setup), []
        for k, r in enumerate(reps):
            log(
                {
                    "rep": k,
                    "traced": bool(args.trace and k % 2),
                    "wall_s": r.wall_s,
                    "cpu_s": r.cpu_s,
                    "raw_wall_s": r.raw_wall_s,
                    "raw_cpu_s": r.raw_cpu_s,
                    "peak_rss_mb": r.rss_mb,
                    "attempted": r.attempted,
                    "failed": r.failed,
                    "errors": r.errors,
                }
            )
        if not args.trace:
            log({"setup_s_samples": setup})
        errors += [e for r in reps for e in r.errors]
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
        log(
            {
                "correct": not errors and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
