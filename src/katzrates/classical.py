"""Level-1 classical forms: E_4, E_6 and E_{p-1} from one divisor-sum sieve,
and the constants of the p-deprived Eisenstein series E*_k for weights
divisible by p-1, on Bernoulli numbers taken from zeta(k)."""

from __future__ import annotations

import math
from functools import lru_cache
from operator import sub

from .arithmetic import RingSpec, unit_inverses


@lru_cache(maxsize=8)
def _prime_powers(N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For 2 <= n < N: the smallest prime factor q of n and the largest power
    of q dividing n (entries 0 and 1 unused).  Built once per truncation N,
    on first use, and shared by every weight; _bernoulli reads its primes."""
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


def _pi(bits: int) -> int:
    """pi 2^bits by Machin's formula, pi = 16 arccot 5 - 4 arccot 239, less
    than 8 bits units off for bits >= 8.  Each arccot(x) 2^bits loses under
    one unit per term it keeps and one for the terms it drops, under
    bits / (2 log2 x) + 1.5 in all, so pi 2^bits loses under 16 (0.22 bits
    + 1.5) + 4 (0.07 bits + 1.5)."""

    def arccot(x):
        total = term = (1 << bits) // x
        n = 1
        while term:
            term //= x * x
            n += 2
            total += (-1) ** (n // 2) * (term // n)
        return total

    return 16 * arccot(5) - 4 * arccot(239)


def _bernoulli(ks) -> list[tuple[int, int]]:
    """(N_k, D_k) with B_k = N_k / D_k, for each even k >= 2 in `ks`.

    D_k is the product of the primes q with (q-1) | k (von Staudt-Clausen),
    and N_k = (-1)^(k/2+1) X_k, X_k = 2 k! D_k zeta(k) / (2 pi)^k, is the
    integer nearest a fixed-point value within 1/4 of X_k.  The bound: X_k
    < 2^b, b = bit_length(2 k! D_k) + 1 - floor(2.6514 k), as zeta(k) < 2
    and log2(2 pi) > 2.6514.
      - zeta(k), summed to W = b + 5 + ceil((b+5)/(k-1)) bits until its
        terms vanish at some n <= 2^(W/k), is low by less than 2^(W/k+2)
        units, a relative error below 2^(-b-3).
      - pi is taken once per call (_pi) to Q = P + bit_length(P) + 4 bits,
        P the largest b + bit_length(k) + 5, a relative error below
        2^(-P-1).  (2 pi)^k is stepped from the previous k by (2 pi)^gap,
        each a mantissa cut to P + 4 bits and an exponent.  Its k factors
        2 pi and at most 3k cuts, each losing under 2^(-P-3), leave a
        relative error below 2k 2^-P <= 2^(-b-4).
    So the value is off by less than X_k (2^(-b-3) + 2^(-b-4)) / (1 - 2^-4)
    < 1/4.  Each N_k is certified at run time as well, by von Staudt-Clausen:
    N_k + sum_q D_k/q = 0 mod D_k, else ArithmeticError names k."""
    if not ks or any(k < 2 or k % 2 for k in ks):
        raise ValueError(f"B_k is computed for even k >= 2 only, not {list(ks)}")
    order = sorted(set(ks))
    spf = _prime_powers(order[-1] + 2)[0]
    primes = [q for q in range(2, len(spf)) if spf[q] == q]
    rows, fact, prev = [], 1, 0
    for k in order:
        fact *= math.prod(range(prev + 1, k + 1))
        qs = [q for q in primes if k % (q - 1) == 0]
        t = 2 * fact * math.prod(qs)
        rows.append((k, qs, t, t.bit_length() + 1 - int(2.6514 * k)))
        prev = k
    P = max(b + k.bit_length() + 5 for k, _, _, b in rows)
    Q, L = P + P.bit_length() + 4, P + 4

    def mul(x, y):  # (m, e) stands for m 2^e; the product is cut to L bits
        m, e = x[0] * y[0], x[1] + y[1]
        cut = max(m.bit_length() - L, 0)
        return m >> cut, e + cut

    two_pi = _pi(Q), 1 - Q
    power, steps, out, prev = (1, 0), {}, {}, 0
    for k, qs, t, b in rows:
        gap = k - prev
        if gap not in steps:
            step = (1, 0)
            for bit in bin(gap)[2:]:
                step = mul(step, step)
                if bit == "1":
                    step = mul(step, two_pi)
            steps[gap] = step
        power, prev = mul(power, steps[gap]), k
        W = b + 5 - (-(b + 5) // (k - 1))
        zeta = one = 1 << W
        n = 2
        while term := one // n**k:
            zeta, n = zeta + term, n + 1
        shift = power[1] + W
        num, den = t * zeta << max(-shift, 0), power[0] << max(shift, 0)
        N, D = (-1) ** (k // 2 + 1) * ((2 * num + den) // (2 * den)), math.prod(qs)
        if (N + sum(D // q for q in qs)) % D:
            raise ArithmeticError(f"B_{k}: numerator {N} fails von Staudt-Clausen")
        out[k] = N, D
    return [out[k] for k in ks]


def _scalars(ring: RingSpec, ks, units) -> list[int]:
    """-2k / (unit B_k) = -2k D_k / (unit N_k) mod p^e for each even k >= 2
    in `ks` and its p-unit in `units`, with B_k = N_k / D_k from _bernoulli.
    Where (p-1) | k, p divides D_k and the certified N_k = -D_k/p mod p is a
    p-unit, so the denominators of all the weights take one modular
    inversion (unit_inverses)."""
    mod = ring.modulus
    bs = _bernoulli(ks)
    dens = [unit * n % mod for unit, (n, _) in zip(units, bs)]
    inverses = unit_inverses(dens, mod)
    return [-2 * k * d * inv % mod for k, (_, d), inv in zip(ks, bs, inverses)]


def level_one(ring: RingSpec, N: int) -> tuple[list[int], ...]:
    """E_4 = 1 + 240 sum sigma_3(n) q^n, E_6 = 1 - 504 sum sigma_5(n) q^n and
    E_{p-1} = 1 - (2(p-1)/B_{p-1}) sum sigma_{p-2}(n) q^n mod (q^N, p^e), as
    coefficient lists, from one sieve over the exponents [3, 5, p-2] (at
    p = 5 the third series is the first).

    The scalar is -2(p-1) D_{p-1} / N_{p-1} (_scalars), on the B_{p-1} =
    N_{p-1} / D_{p-1} that _bernoulli takes from zeta(p-1) and certifies.
    p divides D_{p-1} once and N_{p-1} not at all (von Staudt-Clausen), so
    the scalar has valuation 1 and E_{p-1} lies in 1 + p Z/p^e [[q]].
    """
    p, mod = ring.p, ring.modulus
    sig = sigma_star_rows(None, [3, 5, p - 2], N, mod)
    cs = (240, -504, _scalars(ring, [p - 1], [1])[0])
    return tuple(
        [1, *[c * row[k] % mod for row in sig[1:N]]][:N] for k, c in enumerate(cs)
    )


def star_constants(ks, ring: RingSpec) -> list[int]:
    """The constants c = -2k/((1 - p^{k-1}) B_k) mod p^e of E*_k = 1 + c sum
    sigma*_{k-1}(n) q^n at the weights k in `ks`: c = -2k D_k / ((1 -
    p^{k-1}) N_k) (_scalars) on the B_k = N_k / D_k that _bernoulli takes
    from zeta(k) at these weights alone and certifies, with one modular
    inversion for all of them.

    Requires (p-1) | k, so that p divides D_k once and N_k not at all (von
    Staudt-Clausen).  c has valuation nu_p(k) + 1 >= 1, so E*_k - 1
    vanishes mod p^{min(e, nu_p(k)+1)}; a c prime to p is refused
    (ArithmeticError).
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
