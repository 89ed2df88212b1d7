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
    forms: tuple[BasisElement, ...]
    einv_pows: tuple[QSeries, ...]
    blocks: tuple[tuple[int, int, int], ...]


def build_matrix(
    p: int, n: int, ring: RingSpec, form_len: int | None = None
) -> BasisMatrix:
    """The basis matrix for (p, n) over `ring`.  The basis forms are expanded
    to `form_len >= N` q-coefficients (default N); the columns always hold N."""
    if ring.p != p:
        raise ValueError("ring prime does not match p")
    N = dim_mk(n * (p - 1))
    M = N if form_len is None else form_len
    if M < N:
        raise ValueError(f"form_len = {M} is below N = {N}")
    col_to_i = tuple(i_of_j(p, j) for j in range(N))

    e4s, e6s, ds = e4(ring, M), e6(ring, M), delta(ring, M)
    one = QSeries.one(ring, M)

    # Delta^j incrementally; E_4 powers incrementally over the sorted set of
    # needed exponents (cheaper than pow-by-squaring per column).
    needed_a = set()
    params = []
    for j in range(N):
        i = col_to_i[j]
        if i == 0:
            params.append((0, 0))
        else:
            a, ep = _exponents(p, i, j)
            params.append((a, ep))
            needed_a.add(a)
    e4_pows: dict[int, QSeries] = {0: one}
    cur, cur_a = one, 0
    for a in sorted(needed_a):
        while cur_a < a:
            cur = cur * e4s
            cur_a += 1
        e4_pows[a] = cur

    einv = e_p_minus_1(ring, N).inverse()
    einv_pows = [QSeries.one(ring, N)]
    for _ in range(n):
        einv_pows.append(einv_pows[-1] * einv)

    forms = []
    columns = []
    dpow = one
    for j in range(N):
        i = col_to_i[j]
        if j > 0:
            dpow = dpow * ds
        if i == 0:
            g = one
            forms.append(BasisElement(0, 0, 0, 0, g))
        else:
            a, ep = params[j]
            g = dpow * e4_pows[a]
            if ep:
                g = g * e6s
            forms.append(BasisElement(i, j, a, ep, g))
        col = (g.truncate(N) * einv_pows[i]).coeffs
        if any(col[r] for r in range(j)) or col[j] != 1:
            raise AssertionError(f"column {j} is not unit-lower-triangular")
        columns.append(col)

    blocks = []
    for i in range(n + 1):
        lo = 0 if i == 0 else dim_mk((i - 1) * (p - 1))
        hi = min(dim_mk(i * (p - 1)), N)
        blocks.append((i, lo, hi))

    return BasisMatrix(
        p=p,
        n=n,
        ring=ring,
        N=N,
        col_to_i=col_to_i,
        columns=tuple(columns),
        forms=tuple(forms),
        einv_pows=tuple(einv_pows),
        blocks=tuple(blocks),
    )


_CACHE: dict[tuple[int, int, int], BasisMatrix] = {}


def basis_matrix(p: int, n: int, e: int) -> BasisMatrix:
    """Cached build of the coefficient matrix for (p, n) over Z/p^e."""
    key = (p, n, e)
    got = _CACHE.get(key)
    if got is None:
        got = _CACHE[key] = build_matrix(p, n, RingSpec(p, e))
    return got
