"""The modular function E*_k / V(E*_k), the input series for the valuation
solver."""

from __future__ import annotations

from .arithmetic import QSeries, RingSpec, v_operator
from .classical import eisenstein_star


def eis_ratio_by_s(p: int, s: int, lam: int, N: int) -> QSeries:
    """E*_k / V(E*_k) mod (q^N, p^lam) for k = s(p-1).

    Computed as a product with the inverse of V(E*_k).  V(f)(q) = f(q^p), so
    that inverse is V of the inverse of the first ceil(N/p) coefficients of
    E*_k, which is exact; the constant term of E*_k is 1, so the inverse
    always exists.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    ring = RingSpec(p, lam)
    estar = eisenstein_star(s * (p - 1), ring, N)
    head = -(-N // p)
    inv = estar.truncate(head).inverse().coeffs
    return estar * v_operator(QSeries(ring, inv + (0,) * (N - head)))


def eis_ratio(p: int, k: int, lam: int, N: int) -> QSeries:
    if k % (p - 1):
        raise ValueError(f"weight {k} is not divisible by p-1 = {p - 1}")
    return eis_ratio_by_s(p, k // (p - 1), lam, N)
