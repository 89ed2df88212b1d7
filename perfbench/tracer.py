"""Span tracer for the katzrates benchmark.

The tracer wraps public functions of the katzrates modules from the outside:
each wrapped call records one span (id, parent id, name, start, end, extra)
in memory, and `dump` writes the spans to a JSON file when the traced process
is done.  `aggregate` turns the span files of one traced repetition into the
per-layer metrics: calls, inclusive time and self time per layer, and the
counts that say how much work each layer did.  Nothing in the package itself
is changed.  Spans on the sweep's worker threads overlap in time, and while
two threads wait for the GIL both spans run on, so per-layer times add up to
more than the wall time where the thread pool is active.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

LAYERS = ("arithmetic", "classical", "basis", "expand", "family", "solver", "sweep", "cli")


def _mul_extra(args, result):
    return len(args[0].coeffs)


def _g_form_extra(bound, result):
    a = bound.arguments
    return [a["p"], a["i"], a["j"], a["ring"].e, a["N"]]


def _solve_row_extra(bound, result):
    a = bound.arguments
    exact = sum(1 for j, st in result.entries.items() if j >= 1 and st.exact)
    inconclusive = sum(1 for j, st in result.entries.items() if j >= 1 and not st.exact)
    return [a["r"], a["lam"], exact, inconclusive]


def _checkpoint_extra(bound, result):
    return os.path.getsize(bound.arguments["path"])


# (span name, module, class or None, attribute, extra, bind).  `extra(call,
# result)` computes what a span keeps beyond its times; `call` is the
# positional argument tuple, or the bound arguments when `bind` is set.
TARGETS = (
    ("arithmetic.mul", "arithmetic", "QSeries", "__mul__", _mul_extra, False),
    ("arithmetic.inverse", "arithmetic", "QSeries", "inverse", None, False),
    ("classical.eisenstein_star", "classical", None, "eisenstein_star", None, False),
    ("basis.build_matrix", "basis", None, "build_matrix", None, False),
    ("basis.g_form", "basis", None, "g_form", _g_form_extra, True),
    ("expand.psi", "expand", None, "psi", None, False),
    ("family.eis_ratio", "family", None, "eis_ratio_by_s", None, False),
    ("solver.build_system", "solver", None, "build_system", None, False),
    ("solver.theta_solve", "solver", "VandermondeSystem", "solve", None, False),
    ("solver.katz_row_coeffs", "solver", None, "katz_row_coeffs", None, False),
    ("solver.solve_row", "solver", None, "solve_row", _solve_row_extra, True),
    ("sweep.weight_fill", "sweep", "WeightCoordCache", "ensure", None, False),
    ("sweep.checkpoint_write", "sweep", None, "save_checkpoint", _checkpoint_extra, True),
    ("sweep.checkpoint_load", "sweep", None, "load_checkpoint", None, False),
    ("cli.main", "cli", None, "main", None, False),
)


class Tracer:
    """In-memory span recorder.  Safe to use from the sweep's worker threads:
    a span opened on a thread with no open span of its own takes the main
    thread's innermost open span as its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extra=None, bind=False, before=None):
        sig = inspect.signature(fn) if (bind or before) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if before is not None:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None
                if ok and extra is not None:
                    info = extra(bound if bind else args, result)
                self.spans.append([sid, parent, name, start, end, info])

        return traced

    def install(self) -> None:
        """Wrap every target at each place that binds it: the class for
        methods, and every katzrates module holding the function object.  A
        target the package no longer has is listed as missing, and its
        metrics read 0."""
        modules = [importlib.import_module("katzrates")]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"katzrates.{layer}"))
            except ModuleNotFoundError:
                pass
        for name, mod_name, cls_name, attr, extra, bind in TARGETS:
            mod = sys.modules.get(f"katzrates.{mod_name}")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn, extra, bind)
            if cls_name:
                setattr(owner, attr, wrapped)
            else:
                _rebind(modules, attr, fn, wrapped)
        self._install_run_sweep(modules)

    def _install_run_sweep(self, modules) -> None:
        """Trace run_sweep and time each row through its public progress hook."""
        fn = getattr(sys.modules.get("katzrates.sweep"), "run_sweep", None)
        if fn is None:
            self.missing.append("sweep.run_sweep")
            return
        rows: list[list] = []

        def add_hook(bound):
            user_hook = bound.arguments.get("progress")

            def hook(state, i):
                rows.append([i, time.perf_counter()])
                if user_hook is not None:
                    user_hook(state, i)

            rows.clear()
            bound.arguments["progress"] = hook

        wrapped = self.wrap(
            "sweep.run_sweep",
            fn,
            extra=lambda bound, result: list(rows),
            bind=True,
            before=add_hook,
        )
        _rebind(modules, "run_sweep", fn, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def _rebind(modules, attr: str, fn, wrapped) -> None:
    for m in modules:
        if getattr(m, attr, None) is fn:
            setattr(m, attr, wrapped)


def _self_time(span, children) -> float:
    """The span's duration minus the part of it that child spans cover
    (children on the sweep's worker threads may overlap)."""
    start, end = span[3], span[4]
    covered, reach = 0.0, start
    for lo, hi in sorted((c[3], c[4]) for c in children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def tail(values):
    """(value, percentile) of the highest percentile with at least ten values
    beyond it; the maximum when there are ten values or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def aggregate(span_files) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition from its (path, slowdown)
    span files, one per process; times are divided by the slowdown."""
    count = {}
    total = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    coeff_ops = 0
    g_forms = set()
    lam_max = 0
    last_row = {}
    row_ms = []
    ckpt_bytes = 0
    n_spans = 0
    missing = set()
    for proc, (path, slow) in enumerate(span_files):
        with open(path) as fh:
            data = json.load(fh)
        missing.update(data["missing"])
        spans = data["spans"]
        n_spans += len(spans)
        children = {}
        for s in spans:
            children.setdefault(s[1], []).append(s)
        for s in spans:
            sid, _, name, start, end, info = s
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start) / slow
            self_by_layer[name.split(".", 1)[0]] += _self_time(s, children.get(sid, ())) / slow
            if name == "arithmetic.mul":
                coeff_ops += info * (info + 1) // 2
            elif name == "basis.g_form":
                g_forms.add(tuple(info))
            elif name == "solver.solve_row" and info is not None:
                r, lam, exact, inconclusive = info
                lam_max = max(lam_max, lam)
                key = (proc, r)
                if key not in last_row or last_row[key][0] < end:
                    last_row[key] = (end, exact, inconclusive)
            elif name == "sweep.checkpoint_write":
                ckpt_bytes += info
            elif name == "sweep.run_sweep" and info is not None:
                prev = start
                for _, t in info:
                    row_ms.append((t - prev) * 1e3 / slow)
                    prev = t

    def c(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    row_tail, row_tail_pct = tail(row_ms)
    metrics = {
        "arithmetic.mul_calls": c("arithmetic.mul"),
        "arithmetic.mul_s": t("arithmetic.mul"),
        "arithmetic.mul_coeff_ops": coeff_ops,
        "arithmetic.inverse_calls": c("arithmetic.inverse"),
        "arithmetic.inverse_s": t("arithmetic.inverse"),
        "classical.eisenstein_star_calls": c("classical.eisenstein_star"),
        "classical.eisenstein_star_s": t("classical.eisenstein_star"),
        "basis.build_matrix_calls": c("basis.build_matrix"),
        "basis.build_matrix_s": t("basis.build_matrix"),
        "basis.g_form_calls": c("basis.g_form"),
        "basis.g_form_s": t("basis.g_form"),
        "basis.g_form_distinct": len(g_forms),
        "expand.psi_calls": c("expand.psi"),
        "expand.psi_s": t("expand.psi"),
        "family.eis_ratio_calls": c("family.eis_ratio"),
        "family.eis_ratio_s": t("family.eis_ratio"),
        "solver.build_system_calls": c("solver.build_system"),
        "solver.build_system_s": t("solver.build_system"),
        "solver.theta_solves": c("solver.theta_solve"),
        "solver.theta_solve_s": t("solver.theta_solve"),
        "solver.katz_row_coeffs_s": t("solver.katz_row_coeffs"),
        "solver.solve_row_s": t("solver.solve_row"),
        "solver.lambda_max": lam_max,
        "solver.exact_entries": sum(v[1] for v in last_row.values()),
        "solver.inconclusive_entries": sum(v[2] for v in last_row.values()),
        "sweep.rows": len(row_ms),
        "sweep.attempts": c("solver.solve_row"),
        "sweep.weight_fill_s": t("sweep.weight_fill"),
        "sweep.row_p50_ms": statistics.median(row_ms) if row_ms else 0.0,
        "sweep.row_tail_ms": row_tail,
        "sweep.row_tail_pct": row_tail_pct,
        "sweep.checkpoint_writes": c("sweep.checkpoint_write"),
        "sweep.checkpoint_s": t("sweep.checkpoint_write"),
        "sweep.checkpoint_bytes": ckpt_bytes,
        "trace.spans": n_spans,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    return metrics, sorted(missing)
