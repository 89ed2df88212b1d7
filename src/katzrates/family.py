"""The modular function E*_k / V(E*_k), the input series for the valuation
solver."""

from __future__ import annotations

from operator import mul

from .arithmetic import QSeries, RingSpec
from .classical import _tangent, eisenstein_star


def eis_ratios(p: int, ss, lam: int, N: int) -> list[tuple[int, ...]]:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1), at every s in `ss`,
    as N rows, one per coefficient of q^n, each over the weights in order.

    V(f)(q) = f(q^p), so V(E*_k) has nonzero coefficients only at the
    multiples of p, and the constant term of E*_k is 1.  Comparing the
    coefficients of q^n in r.V(E*_k) = E*_k, with e the coefficients of E*_k,
    gives r[n] = e[n] - sum_{1 <= m <= n/p} e[m].r[n - mp]: each coefficient
    of the ratio from the earlier ones, exactly, in about N^2/(2p) products
    per weight, all weights in one pass over n.
    """
    if any(s < 1 for s in ss):
        raise ValueError("s must be a positive integer")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    ring = RingSpec(p, lam)
    mod = ring.modulus
    # T_m for the largest weight k = 2m sizes the tangent table once, where
    # the weights in turn would regrow it geometrically.
    _tangent(max(ss) * (p - 1) // 2)
    es = [eisenstein_star(s * (p - 1), ring, N).coeffs for s in ss]
    rs = [list(e) for e in es]
    for n in range(p, N):
        h = n // p + 1
        for e, r in zip(es, rs):
            r[n] = (e[n] - sum(map(mul, e[1:h], r[n - p :: -p]))) % mod
    return list(zip(*rs))


def eis_ratio_by_s(p: int, s: int, lam: int, N: int) -> QSeries:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1): eis_ratios at the one
    weight s."""
    return QSeries(RingSpec(p, lam), tuple(c for (c,) in eis_ratios(p, [s], lam, N)))
