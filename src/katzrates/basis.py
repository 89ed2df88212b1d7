"""The explicit splitting of weight-i(p-1) forms: dimensions, the blocks of
basis forms g_{i,j} = Delta^j E_4^a E_6^eps, and the unit-lower-triangular
coefficient matrix of the modular functions g_j / E_{p-1}^{i_j}."""

from __future__ import annotations

from dataclasses import dataclass

from .arithmetic import (
    QSeries,
    RingSpec,
    _canonical,
    ks2_mul,
    slot_bytes,
    split_low,
    split_pack,
)
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


@dataclass(frozen=True)
class BasisMatrix:
    """The N x N unit-lower-triangular matrix whose column j holds the first N
    q-coefficients of g_j / E_{p-1}^{i_j}, N = d_{n(p-1)}.

    Row index = q-exponent, column index = j.  `blocks` lists, per row index
    i = 0..n, the half-open j-range of its basis forms.
    """

    p: int
    n: int
    ring: RingSpec
    N: int
    col_to_i: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, int, int], ...]


def build_matrix(p: int, n: int, ring: RingSpec) -> BasisMatrix:
    """The basis matrix for (p, n) over `ring`, one packed product per column.

    g_j / E_{p-1}^{i_j} = Delta^j E_4^a E_6^eps E_{p-1}^-i, so column j is
    column j-1 times Delta E_4^da E_6^de E_{p-1}^-di, where (da, de, di) is
    the change in (a, eps, i) from column j-1.  Since 12 + 4 da + 6 de =
    di (p-1), there are only a few distinct steps (one inside every block),
    and each multiplier is built once.  E_4, E_6 and E_{p-1} have constant
    term 1, so their negative powers exist over Z/p^e.

    Column j is q^j times a series with constant term 1, and every step is q
    times one, so column j needs only the N - j slots of column j-1 from
    q^(j-1) on and of the step from q^1 on: each step is split and packed
    once without its zero constant slot, its halves are masked to the live
    slots of each column, and each product (`ks2_mul`) spans N - j slots.
    """
    if ring.p != p:
        raise ValueError("ring prime does not match p")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    N = dim_mk(n * (p - 1))
    blocks = tuple((i, *block(p, i)) for i in range(n + 1))
    col_to_i = tuple(i for i, lo, hi in blocks for _ in range(lo, hi))
    mod = ring.modulus
    width = slot_bytes(mod, N)
    ds = delta(ring, N)
    bases = (e4(ring, N), e6(ring, N), e_p_minus_1(ring, N))
    inverses: list[QSeries | None] = [None] * 3
    steps: dict[tuple[int, ...], tuple[int, int]] = {}
    columns = []
    cs, prev = (1,) + (0,) * (N - 1), (0, 0, 0)
    for j, i in enumerate(col_to_i):
        if j:
            # Exponents of E_4, E_6 and E_{p-1} in column j.
            cur = (*_exponents(p, i, j), -i) if i else (0, 0, 0)
            key = tuple(c - b for c, b in zip(cur, prev))
            if key not in steps:
                step = ds
                for b, k in enumerate(key):
                    if k < 0 and inverses[b] is None:
                        inverses[b] = bases[b].inverse()
                    if k:
                        step = step * (bases[b] if k > 0 else inverses[b]) ** abs(k)
                if step.coeffs[0]:
                    raise AssertionError(f"step {key} has a nonzero constant term")
                steps[key] = split_pack(_canonical(step.coeffs[1:], mod), width)
            live = N - j
            y = split_low(steps[key], width, live)
            x = split_pack(cs[j - 1 : N - 1], width)
            cs, prev = (0,) * j + tuple(ks2_mul(x, y, width, live, mod)), cur
        if any(cs[:j]) or cs[j] != 1:
            raise AssertionError(f"column {j} is not unit-lower-triangular")
        columns.append(cs)
    return BasisMatrix(p, n, ring, N, col_to_i, tuple(columns), blocks)
