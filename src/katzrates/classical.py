"""Level-1 classical forms: E_4, E_6, Delta, E_{p-1}, and the p-deprived
Eisenstein series E*_k for weights divisible by p-1."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arithmetic import QSeries, Residue, RingSpec, padic_val


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(m: int, n: int) -> int:
    """Divisor sum: sum of d^m over d | n."""
    return sum(d**m for d in divisors(n))


def sigma_star(p: int, m: int, n: int, ring: RingSpec) -> Residue:
    """Sum of d^m over d | n with p not dividing d, reduced mod p^e."""
    return Residue(ring, _sigma_star_table(p, m, n + 1, ring.modulus)[n])


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


def _sigma_star_table(p: int, m: int, N: int, mod: int) -> list[int]:
    """sigma*_m(n) mod `mod` for 0 <= n < N (entry 0 unused).  sigma*_m is
    multiplicative, and sigma*_m(q^a) = 1 + q^m sigma*_m(q^(a-1)) with
    q^m = sigma*_m(q) - 1 (0 for q = p), so it takes one pow per prime."""
    spf, qpow = _prime_powers(N)
    f = [1] * N
    for n in range(2, N):
        q, a = spf[n], qpow[n]
        if a < n:
            f[n] = f[a] * f[n // a] % mod
        elif q == n:
            f[n] = 1 if q == p else (1 + pow(q, m, mod)) % mod
        else:
            f[n] = (1 + (f[q] - 1) * f[n // q]) % mod
    return f


def _sigma_mod(m: int, n: int, mod: int) -> int:
    return sum(pow(d, m, mod) for d in divisors(n)) % mod


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


def bernoulli(k: int) -> Fraction:
    """The Bernoulli number B_k as an exact rational (convention B_1 = -1/2):
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    global _TANGENT
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    m = k // 2
    if len(_TANGENT) < m:
        _TANGENT = _tangent_numbers(max(m, 2 * len(_TANGENT)))
    four_m = 4**m
    sign = 1 if m % 2 else -1
    return Fraction(sign * k * _TANGENT[m - 1], four_m * (four_m - 1))


def fraction_mod(x: Fraction, ring: RingSpec) -> int:
    """Reduce an exact rational with p-unit denominator mod p^e."""
    if x.denominator % ring.p == 0:
        raise ValueError(f"denominator {x.denominator} is not a unit mod {ring.p}")
    mod = ring.modulus
    return x.numerator * pow(x.denominator, -1, mod) % mod


def _conv(a, b, N):
    out = [0] * N
    for i in range(N):
        if a[i]:
            for k in range(N - i):
                if b[k]:
                    out[i + k] += a[i] * b[k]
    return tuple(out)


@lru_cache(maxsize=None)
def _e4_int(N: int) -> tuple[int, ...]:
    return tuple([1] + [240 * sigma(3, n) for n in range(1, N)])


@lru_cache(maxsize=None)
def _e6_int(N: int) -> tuple[int, ...]:
    return tuple([1] + [-504 * sigma(5, n) for n in range(1, N)])


@lru_cache(maxsize=None)
def _delta_int(N: int) -> tuple[int, ...]:
    e4, e6 = _e4_int(N), _e6_int(N)
    diff = [a - b for a, b in zip(_conv(_conv(e4, e4, N), e4, N), _conv(e6, e6, N))]
    out = []
    for c in diff:
        if c % 1728:
            raise ArithmeticError("E_4^3 - E_6^2 not divisible by 1728")
        out.append(c // 1728)
    return tuple(out)


def e4(ring: RingSpec, N: int) -> QSeries:
    return QSeries.from_coeffs(ring, _e4_int(N), N)


def e6(ring: RingSpec, N: int) -> QSeries:
    return QSeries.from_coeffs(ring, _e6_int(N), N)


def delta(ring: RingSpec, N: int) -> QSeries:
    return QSeries.from_coeffs(ring, _delta_int(N), N)


def e_p_minus_1(ring: RingSpec, N: int) -> QSeries:
    """E_{p-1} = 1 - (2(p-1)/B_{p-1}) sum sigma_{p-2}(n) q^n, exact mod p^e.

    The leading coefficient has valuation 1 (von Staudt-Clausen), so the
    series lies in 1 + p Z/p^e [[q]].
    """
    p = ring.p
    c = fraction_mod(Fraction(-2 * (p - 1)) / bernoulli(p - 1), ring)
    mod = ring.modulus
    coeffs = [1] + [c * _sigma_mod(p - 2, n, mod) % mod for n in range(1, N)]
    return QSeries(ring, tuple(coeffs))


def eisenstein_star(k: int, ring: RingSpec, N: int) -> QSeries:
    """E*_k = 1 + c sum sigma*_{k-1}(n) q^n with c = -2k/((1 - p^{k-1}) B_k).

    Requires (p-1) | k.  The scalar c has valuation nu_p(k) + 1 >= 1, so
    E*_k - 1 vanishes mod p^{min(e, nu_p(k)+1)}.
    """
    p = ring.p
    if k < p - 1 or k % (p - 1):
        raise ValueError(f"weight {k} is not a positive multiple of {p - 1}")
    c_frac = Fraction(-2 * k) / ((1 - Fraction(p) ** (k - 1)) * bernoulli(k))
    c = fraction_mod(c_frac, ring)
    if c % p:
        raise ArithmeticError("Eisenstein scalar is not divisible by p")
    mod = ring.modulus
    sig = _sigma_star_table(p, k - 1, N, mod)
    return QSeries(ring, (1, *[c * x % mod for x in sig[1:N]]))


@dataclass(frozen=True)
class WeightSpec:
    """An integral weight k = s(p-1) with gcd(s, p) = 1, together with its
    weight-disk coordinate w = (p+1)^k - 1 mod p^e."""

    ring: RingSpec
    s: int
    k: int = field(init=False)
    w: int = field(init=False)

    def __post_init__(self):
        if self.s < 1 or self.s % self.ring.p == 0:
            raise ValueError(f"s must be a positive integer prime to p, got {self.s}")
        k = self.s * (self.ring.p - 1)
        object.__setattr__(self, "k", k)
        w = (pow(self.ring.p + 1, k, self.ring.modulus) - 1) % self.ring.modulus
        object.__setattr__(self, "w", w)

    def w_val(self):
        return padic_val(self.w, self.ring.p, self.ring.e)
