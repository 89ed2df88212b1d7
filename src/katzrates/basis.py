"""The explicit splitting of weight-i(p-1) forms: dimensions, the blocks of
basis forms g_{i,j} = Delta^j E_4^a E_6^eps, and the columns of the
unit-lower-triangular coefficient matrix of the modular functions
g_j / E_{p-1}^{i_j}, one at a time from one chain of products."""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .arithmetic import RingSpec, inverse, mul_low, power, prepare
from .classical import delta, e4, e6, e_p_minus_1


def dim_mk(n: int) -> int:
    """Dimension of the space of level-1 modular forms of weight n (0 for n < 0)."""
    if n < 0:
        return 0
    return n // 12 + (0 if n % 12 == 2 else 1)


def eps(k: int) -> int:
    if k % 2:
        raise ValueError(f"eps is only defined for even weights, got {k}")
    return 0 if k % 4 == 0 else 1


def block(p: int, i: int) -> tuple[int, int]:
    """The half-open column range [lo, hi) of the basis forms g_{i,j}:
    lo = d_{(i-1)(p-1)}, hi = d_{i(p-1)}; empty when the dimension does not
    grow from weight (i-1)(p-1) to i(p-1)."""
    return dim_mk((i - 1) * (p - 1)), dim_mk(i * (p - 1))


def _exponents(p: int, i: int, j: int) -> tuple[int, int]:
    weight = i * (p - 1)
    ep = eps(weight)
    num = weight - 12 * j - 6 * ep
    if num < 0 or num % 4:
        raise ValueError(f"no basis form at p={p}, i={i}, j={j}")
    return num // 4, ep


def period(p: int) -> int:
    """The period P = (p-1)/gcd(12, p-1) of the column chain: column j + P is
    column j times column P, so with K a multiple of P, column cK + t is
    column K^c times column t.

    With T = 12/gcd(12, p-1), T(p-1) = 12P: the weight of block i + T is that
    of block i plus 12P, and dim_mk(w + 12P) = dim_mk(w) + P for w >= 0.  So
    for i >= 1, block i + T is block i shifted by P, and column P lies in
    block T (block T - 1 ends at dim_mk(12P - (p-1)) <= P).  Moving (i, j)
    to (i + T, j + P) leaves eps of the weight and a = (w - 12j - 6 eps)/4
    as they are, so the exponents (a, eps, -i) of column j + P are those of
    column j plus (0, 0, -T), the exponents of column P:
    column j + P = Delta^P E_{p-1}^-T column j.
    """
    return (p - 1) // gcd(12, p - 1)


def _blocks(p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((i, *block(p, i)) for i in range(n + 1))


def column_exponents(p: int, n: int) -> list[tuple[int, int, int]]:
    """(a, eps, -i) for each column j of the basis matrix for (p, n): column j
    is g_j / E_{p-1}^i = Delta^j E_4^a E_6^eps E_{p-1}^-i."""
    return [
        (*_exponents(p, i, j), -i) for i, lo, hi in _blocks(p, n) for j in range(lo, hi)
    ]


def columns(p: int, n: int, ring: RingSpec) -> Iterator[tuple[int, ...]]:
    """The columns of the basis matrix for (p, n) over `ring`, in order, each
    as its N q-coefficients, N = d_{n(p-1)}; one packed product per column
    after the first, made only when the column is asked for.

    g_j / E_{p-1}^{i_j} = Delta^j E_4^a E_6^eps E_{p-1}^-i, so column j is
    column j-1 times Delta E_4^da E_6^de E_{p-1}^-di, where (da, de, di) is
    the change in (a, eps, i) from column j-1.  Since 12 + 4 da + 6 de =
    di (p-1), there are only a few distinct steps (one inside every block,
    and they repeat with `period(p)`), and each multiplier is built once.
    E_4, E_6 and E_{p-1} have constant term 1, so their negative powers exist
    over Z/p^e.

    Column j is q^j times a series with constant term 1, and every step is q
    times one, so column j needs only the N - j slots of column j-1 from
    q^(j-1) on and of the step from q^1 on: each distinct step is made from
    Delta / q, N - 1 slots, and prepared once, and each column is one
    `mul_low` over its N - j live slots.  Delta is checked to have no
    constant term, and each column to be unit-lower-triangular, which a
    step whose constant term is not 1 fails.
    """
    if ring.p != p:
        raise ValueError("ring prime does not match p")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _chain(p, n, ring)


def _chain(p: int, n: int, ring: RingSpec) -> Iterator[tuple[int, ...]]:
    exponents = column_exponents(p, n)
    N = len(exponents)
    mod = ring.modulus
    ds = delta(ring, N).coeffs
    if ds[0]:
        raise AssertionError("Delta has a nonzero constant term")
    # A column reads only the first N - 1 slots of a step / q, so each step
    # is made from Delta / q and the bases cut to N - 1 slots.
    bases = [f(ring, N).coeffs[: N - 1] for f in (e4, e6, e_p_minus_1)]
    inverses: list[list[int] | None] = [None] * 3
    steps: dict[tuple[int, ...], tuple[int, int]] = {}
    cs, prev = (1,) + (0,) * (N - 1), exponents[0]
    for j, cur in enumerate(exponents):
        if j:
            key = tuple(c - b for c, b in zip(cur, prev))
            if key not in steps:
                step = ds[1:]
                for b, k in enumerate(key):
                    if k < 0 and inverses[b] is None:
                        inverses[b] = inverse(bases[b], mod)
                    if k:
                        factor = power(bases[b] if k > 0 else inverses[b], abs(k), mod)
                        step = mul_low(step, prepare(factor, mod), mod)
                steps[key] = prepare(step, mod)
            cs, prev = (0,) * j + tuple(mul_low(cs[j - 1 : N - 1], steps[key], mod)), cur
        if any(cs[:j]) or cs[j] != 1:
            raise AssertionError(f"column {j} is not unit-lower-triangular")
        yield cs
