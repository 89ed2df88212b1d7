"""The explicit splitting of weight-i(p-1) forms: dimensions, the blocks of
basis forms g_{i,j} = Delta^j E_4^a E_6^eps, and the columns of the
unit-lower-triangular coefficient matrix of the modular functions
g_j / E_{p-1}^{i_j}, one at a time from one chain of products."""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from math import gcd
from operator import add

from .arithmetic import RingSpec, inverse, mul_low, prepare
from .classical import level_one


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
    as its N q-coefficients, N = d_{n(p-1)}; made only when the column is
    asked for.

    g_j / E_{p-1}^{i_j} = Delta^j E_4^a E_6^eps E_{p-1}^-i, and column j + P
    is column j times column P, P = `period(p)`.  So only columns 1..P are
    made from the Eisenstein series, each as q^j R_j E_4^a E_6^eps with
    R_j = (Delta / q)^j E_{p-1}^-i_j: R_j is R_{j-1} times the step
    (Delta / q) E_{p-1}^-di, di = i_j - i_{j-1} >= 0, each distinct step made
    once, and the powers of E_4 (Delta's cube among them) and of E_{p-1}^-1
    are each made once and shared.  E_{p-1} has constant term 1, so its
    inverse exists over Z/p^e; it is the one series inverted.  Each column
    j > P is then one `mul_low` of the N - j slots of column j - P from
    q^(j-P) on with column P from q^P on, prepared once.

    Column j is q^j times a series with constant term 1, so a column reads
    only the first N - 1 slots of every factor / q: the steps and R_j are
    made at N - 1 slots, from Delta / q, and each column's last product
    spans only its N - j live slots.  E_4^3 and E_6^2 are made at N slots,
    so that Delta can be cut to Delta / q, and with them every power of E_4.
    The exponents are checked here, before any product: those of column 0
    are (0, 0, 0), and those of each column j > P are those of columns
    j - P and P added.  The chain checks that Delta has no constant term
    and that each column is unit-lower-triangular.
    """
    if ring.p != p:
        raise ValueError("ring prime does not match p")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    exponents, P = column_exponents(p, n), period(p)
    if exponents[0] != (0, 0, 0):
        raise AssertionError("column 0 is not 1")
    for j in range(P + 1, len(exponents)):
        if exponents[j] != tuple(map(add, exponents[j - P], exponents[P])):
            raise AssertionError(f"column {j} is not column {j - P} times column {P}")
    return _chain(p, exponents, ring)


def _powers(base, mod: int) -> Callable[[int], list[int]]:
    """k -> base^k, cut to len(base) slots, each power made once by one
    product from those made before it: a square, or base times the power
    below."""
    made = {1: base}

    def power_of(k: int) -> list[int]:
        if k not in made:
            if k % 2:
                made[k] = mul_low(power_of(k - 1), prepare(base, mod), mod)
            else:
                made[k] = mul_low(power_of(k // 2), None, mod)
        return made[k]

    return power_of


def _first_columns(exponents, N: int, ring: RingSpec) -> Iterator[list[int]]:
    """The live N - j slots of each column j = 1, 2, ... with `exponents`
    (column 0's first), from the Eisenstein series: q^j R_j E_4^a E_6^eps,
    R_j = (Delta / q)^j E_{p-1}^-i_j.  E_4, E_6 and E_{p-1} come from one
    sieve (classical.level_one), and Delta = (E_4^3 - E_6^2) / 1728 is made
    once, at N slots, its E_4^3 from the same powers of E_4 as the columns'.
    `_chain` drops it, and with it its powers, steps and R_j, once it has
    made column P."""
    mod = ring.modulus
    e4s, e6s, ep1 = level_one(ring, N)
    e4_power = _powers(e4s, mod)
    c = pow(1728, -1, mod)  # 1728 = 2^6 3^3 is a unit mod p^e
    ds = [(a - b) * c % mod for a, b in zip(e4_power(3), mul_low(e6s, None, mod))]
    if ds[0]:
        raise AssertionError("Delta has a nonzero constant term")
    delta_q = ds[1:]
    einv_power = _powers(inverse(ep1[: N - 1], mod), mod)
    steps, run = {}, None
    for j, (a, ep, minus_i) in enumerate(exponents[1:], 1):
        di = exponents[j - 1][2] - minus_i
        if di not in steps:
            steps[di] = mul_low(delta_q, prepare(einv_power(di), mod), mod) if di else delta_q
        # Only column P has neither E_4 nor E_6, and no later column reads R_P.
        factors = ([e4_power(a)] if a else []) + ([e6s] if ep else [])
        if run is None:
            run = steps[di]
        else:
            run = mul_low(run[: N - 1 if factors else N - j], prepare(steps[di], mod), mod)
        col = run
        for k, factor in enumerate(factors, 1):
            slots = N - j if k == len(factors) else N - 1
            col = mul_low(col[:slots], prepare(factor, mod), mod)
        yield col[: N - j]


def _chain(p: int, exponents, ring: RingSpec) -> Iterator[tuple[int, ...]]:
    N, P, mod = len(exponents), period(p), ring.modulus
    window = deque(maxlen=P)  # columns j - P .. j - 1
    first = _first_columns(exponents[: P + 1], N, ring)
    for j in range(N):
        if j == 0:
            cs = (1,) + (0,) * (N - 1)
        elif j <= P:
            cs = (0,) * j + tuple(next(first))
        else:
            if j == P + 1:
                del first  # frees the powers of the first columns
                period_factor = prepare(window[-1][P:], mod)
            cs = (0,) * j + tuple(mul_low(window[0][j - P : N - P], period_factor, mod))
        if any(cs[:j]) or cs[j] != 1:
            raise AssertionError(f"column {j} is not unit-lower-triangular")
        window.append(cs)
        yield cs
