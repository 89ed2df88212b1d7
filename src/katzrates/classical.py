"""Level-1 classical forms: E_4, E_6 and E_{p-1} from one divisor-sum sieve,
and the constants of the p-deprived Eisenstein series E*_k for weights
divisible by p-1."""

from __future__ import annotations

import math
from functools import lru_cache
from operator import sub

from .arithmetic import RingSpec, unit_inverses


@lru_cache(maxsize=8)
def _prime_powers(N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For 2 <= n < N: the smallest prime factor q of n and the largest power
    of q dividing n (entries 0 and 1 unused).  Built once per truncation N,
    on first use, and shared by every weight."""
    spf = list(range(N))
    for q in range(2, math.isqrt(max(N - 1, 0)) + 1):
        if spf[q] == q:
            for n in range(q * q, N, q):
                if spf[n] == n:
                    spf[n] = q
    qpow = list(spf)
    for n in range(2, N):
        q = spf[n]
        if n // q % q == 0:
            qpow[n] = qpow[n // q] * q
    return tuple(spf), tuple(qpow)


def sigma_star_rows(p: int | None, ms, N: int, mod: int) -> list[list[int]]:
    """For 1 <= n < N, the row over the exponents m in `ms` of sigma*_m(n)
    mod `mod`: the sum of d^m over the divisors d of n prime to p, or over
    all of them when p is None; row 0 holds ones.  sigma*_m is
    multiplicative, and sigma*_m(q^a) = 1 + q^m sigma*_m(q^(a-1)) with
    q^m = sigma*_m(q) - 1 (0 for q = p), so each n takes one comprehension
    across the exponents.  At a prime q the powers q^m run up the distinct
    exponents in increasing order, one pow per distinct gap between them."""
    spf, qpow = _prime_powers(N)
    order = sorted(set(ms))
    gaps = list(map(sub, order, [0, *order]))
    slots = list(map(order.index, ms))
    ones = [1] * len(ms)
    f = [ones] * N
    for n in range(2, N):
        q, a = spf[n], qpow[n]
        if a < n:
            f[n] = [x * y % mod for x, y in zip(f[a], f[n // a])]
        elif q == p:
            f[n] = ones
        elif q == n:
            x, row, step = 1, [], {}
            for g in gaps:
                if g not in step:
                    step[g] = pow(q, g, mod)
                x = x * step[g] % mod
                row.append((1 + x) % mod)
            f[n] = list(map(row.__getitem__, slots))
        else:
            f[n] = [(1 + (x - 1) * y) % mod for x, y in zip(f[q], f[n // q])]
    return f


# Tangent numbers T_1, T_2, ... (tan x = sum T_k x^(2k-1)/(2k-1)!), the
# integers behind the Bernoulli numbers; regrown to max(n, 2 * old) on demand.
_TANGENT: list[int] = []


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n by the integer recurrence of Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers" (2011), Alg. 1."""
    T = [0] * (n + 1)
    T[1] = 1 if n else 0
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T[1:]


def _tangent(m: int) -> int:
    """T_m, m >= 1, from the table of tangent numbers."""
    global _TANGENT
    if len(_TANGENT) < m:
        _TANGENT = _tangent_numbers(max(m, 2 * len(_TANGENT)))
    return _TANGENT[m - 1]


def _scalars(ring: RingSpec, ks, units) -> list[int]:
    """-2k / (unit B_k) mod p^e for each even k >= 2 in `ks` and its p-unit
    in `units`, in integers: by B_k = (-1)^(m-1) k T_m / (4^m (4^m - 1)),
    k = 2m, it is 2 (-1)^m 4^m (4^m - 1) / (unit T_m), whose numerator and
    denominator first lose the power of p they share.  The tangent table is
    sized once, for the largest k, and the denominators of all the weights
    take one modular inversion (unit_inverses)."""
    p, mod = ring.p, ring.modulus
    _tangent(max(ks) // 2)
    nums, dens = [], []
    for k, unit in zip(ks, units):
        m = k // 2
        four_m = 4**m
        num, den = (-1) ** m * 2 * four_m * (four_m - 1), _tangent(m)
        while den % p == 0 and num % p == 0:
            num, den = num // p, den // p
        nums.append(num)
        dens.append(den * unit % mod)
    return [a * b % mod for a, b in zip(nums, unit_inverses(dens, mod))]


def level_one(ring: RingSpec, N: int) -> tuple[list[int], ...]:
    """E_4 = 1 + 240 sum sigma_3(n) q^n, E_6 = 1 - 504 sum sigma_5(n) q^n and
    E_{p-1} = 1 - (2(p-1)/B_{p-1}) sum sigma_{p-2}(n) q^n mod (q^N, p^e), as
    coefficient lists, from one sieve over the exponents [3, 5, p-2] (at
    p = 5 the third series is the first).

    The scalar -2(p-1)/B_{p-1} has valuation 1 (von Staudt-Clausen), so
    E_{p-1} lies in 1 + p Z/p^e [[q]].
    """
    p, mod = ring.p, ring.modulus
    sig = sigma_star_rows(None, [3, 5, p - 2], N, mod)
    cs = (240, -504, _scalars(ring, [p - 1], [1])[0])
    return tuple(
        [1, *[c * row[k] % mod for row in sig[1:N]]][:N] for k, c in enumerate(cs)
    )


def star_constants(ks, ring: RingSpec) -> list[int]:
    """The constants c = -2k/((1 - p^{k-1}) B_k) mod p^e of E*_k = 1 + c sum
    sigma*_{k-1}(n) q^n at the weights k in `ks`, with one modular inversion
    for all of them.

    Requires (p-1) | k.  c has valuation nu_p(k) + 1 >= 1, so E*_k - 1
    vanishes mod p^{min(e, nu_p(k)+1)}.
    """
    p, mod = ring.p, ring.modulus
    units = []
    for k in ks:
        if k < p - 1 or k % (p - 1):
            raise ValueError(f"weight {k} is not a positive multiple of {p - 1}")
        units.append((1 - pow(p, k - 1, mod)) % mod)
    cs = _scalars(ring, ks, units)
    for c in cs:
        if c % p:
            raise ArithmeticError("Eisenstein scalar is not divisible by p")
    return cs
