"""The explicit splitting of weight-i(p-1) forms: dimensions, the basis forms
g_{i,j} = Delta^j E_4^a E_6^eps, and the unit-lower-triangular coefficient
matrix of the modular functions g_j / E_{p-1}^{i_j}."""

from __future__ import annotations

from dataclasses import dataclass

from .arithmetic import QSeries, RingSpec
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


def i_of_j(p: int, j: int) -> int:
    """The unique i >= 0 whose basis range d_{(i-1)(p-1)} <= j <= d_{i(p-1)} - 1
    contains j."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    i = 0
    while not dim_mk((i - 1) * (p - 1)) <= j <= dim_mk(i * (p - 1)) - 1:
        i += 1
    return i


@dataclass(frozen=True)
class BasisElement:
    """The form g_{i,j} = Delta^j E_4^a E_6^eps of weight i(p-1), whose
    q-expansion starts with q^j."""

    i: int
    j: int
    a: int
    eps: int
    series: QSeries


def _exponents(p: int, i: int, j: int) -> tuple[int, int]:
    weight = i * (p - 1)
    ep = eps(weight)
    num = weight - 12 * j - 6 * ep
    if num < 0 or num % 4:
        raise ValueError(f"no basis form at p={p}, i={i}, j={j}")
    return num // 4, ep


def g_form(p: int, i: int, j: int, ring: RingSpec, N: int) -> BasisElement:
    if i == 0:
        if j != 0:
            raise ValueError("the i=0 block only contains the constant 1")
        return BasisElement(0, 0, 0, 0, QSeries.one(ring, N))
    a, ep = _exponents(p, i, j)
    series = delta(ring, N) ** j * e4(ring, N) ** a
    if ep:
        series = series * e6(ring, N)
    return BasisElement(i, j, a, ep, series)


def basis_set(p: int, i: int, ring: RingSpec, N: int) -> list[BasisElement]:
    """The basis forms spanning the i-th complement block, in increasing j."""
    if i == 0:
        return [g_form(p, 0, 0, ring, N)]
    lo = dim_mk((i - 1) * (p - 1))
    hi = dim_mk(i * (p - 1))
    return [g_form(p, i, j, ring, N) for j in range(lo, hi)]


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
    """The basis matrix for (p, n) over `ring`, one series product per column.

    g_j / E_{p-1}^{i_j} = Delta^j E_4^a E_6^eps E_{p-1}^-i, so column j is
    column j-1 times Delta E_4^da E_6^de E_{p-1}^-di, where (da, de, di) is
    the change in (a, eps, i) from column j-1.  Since 12 + 4 da + 6 de =
    di (p-1), there are only a few distinct steps (one inside every block),
    and each multiplier is built once.  E_4, E_6 and E_{p-1} have constant
    term 1, so their negative powers exist over Z/p^e.
    """
    if ring.p != p:
        raise ValueError("ring prime does not match p")
    N = dim_mk(n * (p - 1))
    blocks = tuple(
        (i, dim_mk((i - 1) * (p - 1)), dim_mk(i * (p - 1))) for i in range(n + 1)
    )
    col_to_i = tuple(i for i, lo, hi in blocks for _ in range(lo, hi))
    ds = delta(ring, N)
    bases = (e4(ring, N), e6(ring, N), e_p_minus_1(ring, N))
    inverses: list[QSeries | None] = [None] * 3
    steps: dict[tuple[int, ...], QSeries] = {}
    columns = []
    col, prev = QSeries.one(ring, N), (0, 0, 0)
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
                steps[key] = step
            col, prev = col * steps[key], cur
        cs = col.coeffs
        if any(cs[:j]) or cs[j] != 1:
            raise AssertionError(f"column {j} is not unit-lower-triangular")
        columns.append(cs)
    return BasisMatrix(p, n, ring, N, col_to_i, tuple(columns), blocks)


_CACHE: dict[tuple[int, int, int], BasisMatrix] = {}


def basis_matrix(p: int, n: int, e: int) -> BasisMatrix:
    """Cached build of the coefficient matrix for (p, n) over Z/p^e."""
    key = (p, n, e)
    got = _CACHE.get(key)
    if got is None:
        got = _CACHE[key] = build_matrix(p, n, RingSpec(p, e))
    return got
