"""Katz expansions of weight-0 overconvergent p-adic modular forms and
overconvergence-rate upper bounds for the Eisenstein family.

The names in `__all__` are imported from their submodules on first access,
so that `import katzrates` (and a command that needs one layer) does not
load the solver and the sweep."""

import importlib

# Each public name and the submodule that defines it.
_SUBMODULE = {
    "QSeries": "arithmetic",
    "RingSpec": "arithmetic",
    "columns": "basis",
    "dim_mk": "basis",
    "eis_ratio_by_s": "family",
    "phi": "expand",
    "psi": "expand",
    "run_sweep": "sweep",
    "solve_row": "solver",
    "summary": "sweep",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
