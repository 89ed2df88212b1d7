"""The modular function E*_k / V(E*_k), the input series for the valuation
solver."""

from __future__ import annotations

from operator import mul

from .arithmetic import QSeries, RingSpec
from .classical import eisenstein_star


def eis_ratio_by_s(p: int, s: int, lam: int, N: int) -> QSeries:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1).

    V(f)(q) = f(q^p), so V(E*_k) has nonzero coefficients only at the
    multiples of p, and the constant term of E*_k is 1.  Comparing the
    coefficients of q^n in r.V(E*_k) = E*_k, with e the coefficients of E*_k,
    gives r[n] = e[n] - sum_{1 <= m <= n/p} e[m].r[n - mp]: each coefficient
    of the ratio from the earlier ones, exactly, in about N^2/(2p) products.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    ring = RingSpec(p, lam)
    mod = ring.modulus
    e = eisenstein_star(s * (p - 1), ring, N).coeffs
    r = list(e)
    for n in range(p, N):
        r[n] = (e[n] - sum(map(mul, e[1 : n // p + 1], r[n - p :: -p]))) % mod
    return QSeries(ring, tuple(r))
