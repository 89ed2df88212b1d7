"""The modular function E*_k / V(E*_k), the input series for the valuation
solver."""

from __future__ import annotations

from .arithmetic import QSeries, RingSpec
from .classical import sigma_star_rows, star_constants


def eis_ratios(p: int, ss, lam: int, N: int) -> list[list[int]]:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1), at every s in `ss`,
    as N rows, one per coefficient of q^n, each a list over the weights in
    order.

    V(f)(q) = f(q^p), so V(E*_k) has nonzero coefficients only at the
    multiples of p, and the constant term of E*_k is 1.  Comparing the
    coefficients of q^n in r.V(E*_k) = E*_k, with e the coefficients of E*_k,
    gives r[n] = e[n] - sum_{1 <= m <= n/p} e[m].r[n - mp]: each coefficient
    of the ratio from the earlier ones, exactly, in about N^2/(2p) products
    per weight.  As e[n] = c.sigma[n] for n >= 1, with c the constant of E*_k
    and sigma[n] = sigma*_{k-1}(n), this is r[n] = c.(sigma[n] - sum_m
    sigma[m].r[n - mp]), and c enters once per coefficient.  Every row keeps
    the weights inner: one divisor-sum sieve across the weights, one modular
    inversion for their constants (classical.star_constants), and one
    comprehension across the weights per (n, m).
    """
    if any(s < 1 for s in ss):
        raise ValueError("s must be a positive integer")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    ring = RingSpec(p, lam)
    mod = ring.modulus
    ks = [s * (p - 1) for s in ss]
    cs = star_constants(ks, ring)
    sig = sigma_star_rows(p, [k - 1 for k in ks], N, mod)
    rs = sig[:1] + [[c * x % mod for c, x in zip(cs, row)] for row in sig[1:p]]
    for n in range(p, N):
        acc = sig[n]
        for x, r in zip(sig[1 : n // p + 1], rs[n - p :: -p]):
            acc = [a - u * v for a, u, v in zip(acc, x, r)]
        rs.append([c * a % mod for c, a in zip(cs, acc)])
    return rs


def eis_ratio_by_s(p: int, s: int, lam: int, N: int) -> QSeries:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1): eis_ratios at the one
    weight s."""
    return QSeries(RingSpec(p, lam), tuple(c for (c,) in eis_ratios(p, [s], lam, N)))
