"""Katz expansions of weight-0 overconvergent p-adic modular forms and
overconvergence-rate upper bounds for the Eisenstein family."""

from .arithmetic import QSeries, RingSpec
from .basis import build_matrix, dim_mk
from .expand import phi, psi
from .family import eis_ratio_by_s
from .solver import solve_row
from .sweep import run_sweep, summary

__all__ = [
    "QSeries",
    "RingSpec",
    "build_matrix",
    "dim_mk",
    "eis_ratio_by_s",
    "phi",
    "psi",
    "run_sweep",
    "solve_row",
    "summary",
]
