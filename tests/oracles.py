"""Slow reference implementations of the package's fast kernels, and the
small helpers only the tests use.

Each kernel oracle is the plain loop a kernel replaced, or, for the Smith form
and the basis forms g_{i,j}, a general algorithm that the specialised kernel
must agree with; tests/test_kernels.py checks the kernels against them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from katzrates.arithmetic import QSeries, RingSpec, unpack
from katzrates.basis import BasisMatrix, block, dim_mk, eps
from katzrates.classical import delta, e4, e6, e_p_minus_1, eisenstein_star
from katzrates.solver import (
    KatzBasis,
    UnsolvableSystem,
    build_system,
    f_bound,
    solve_row,
    weight_list,
)


def padic_val(x: int, p: int, cap: int) -> int:
    """Valuation of the residue x mod p^cap, capped at cap: a residue
    divisible by p^cap is indistinguishable from 0, so it reads as cap,
    "at least cap"."""
    x %= p**cap
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def coordinate(p: int, s: int, lam: int) -> int:
    """The weight-disk coordinate w = (1+p)^k - 1 mod p^lam of k = s(p-1),
    by repeated multiplication."""
    mod = p**lam
    acc = 1
    for _ in range(s * (p - 1)):
        acc = acc * (p + 1) % mod
    return (acc - 1) % mod


def weights(system) -> tuple[int, ...]:
    """The coordinates mod p^lam of the weights k = s(p-1) of a system."""
    return tuple(coordinate(system.p, s, system.lam) for s in system.ss)


def val(f: QSeries) -> int:
    """min_n nu_p(a_n) of a series, capped at e."""
    return min([f.ring.e, *(padic_val(c, f.ring.p, f.ring.e) for c in f.coeffs)])


def reduce(f: QSeries, e2: int) -> QSeries:
    """The same series viewed mod p^e2 for e2 <= e."""
    if e2 > f.ring.e:
        raise ValueError("cannot raise precision")
    ring2 = RingSpec(f.ring.p, e2)
    return QSeries(ring2, tuple(c % ring2.modulus for c in f.coeffs))


def sturm_count(p: int, r: int) -> int:
    """S = ceil(r(p-1)/12): coefficients a_0..a_S pin down the valuation of a
    weight-r(p-1) form."""
    return -(-(r * (p - 1)) // 12)


def sigma(m: int, n: int) -> int:
    """Divisor sum: sum of d^m over the divisors d of n, by trial division."""
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


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


def g_form(p: int, i: int, j: int, ring: RingSpec, N: int) -> BasisElement:
    """The basis form g_{i,j} by its own products, one form at a time: the
    reference for the columns of the basis matrix."""
    if i == 0:
        if j != 0:
            raise ValueError("the i=0 block only contains the constant 1")
        return BasisElement(0, 0, 0, 0, QSeries.one(ring, N))
    weight = i * (p - 1)
    ep = eps(weight)
    num = weight - 12 * j - 6 * ep
    if num < 0 or num % 4:
        raise ValueError(f"no basis form at p={p}, i={i}, j={j}")
    a = num // 4
    series = delta(ring, N) ** j * e4(ring, N) ** a
    if ep:
        series = series * e6(ring, N)
    return BasisElement(i, j, a, ep, series)


def basis_set(p: int, i: int, ring: RingSpec, N: int) -> list[BasisElement]:
    """The basis forms spanning the i-th complement block, in increasing j."""
    return [g_form(p, i, j, ring, N) for j in range(*block(p, i))]


def schoolbook_mul(f: QSeries, g: QSeries) -> QSeries:
    """f * g mod (q^N, p^e) by the quadratic convolution."""
    mod = f.ring.modulus
    n = len(f.coeffs)
    a, b = f.coeffs, g.coeffs
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for k in range(n - i):
                bk = b[k]
                if bk:
                    out[i + k] += ai * bk
    return QSeries(f.ring, tuple(c % mod for c in out))


def matrices(system) -> tuple[list[list[int]], list[list[int]]]:
    """The factorization matrices A and B of a system, as lam x lam lists of
    rows mod p^lam: the first lam slots of its first lam packed columns."""
    lam, mod, width = system.lam, system.modulus, system._width

    def rows(cols):
        return [list(r) for r in zip(*(unpack(c, width, lam, mod) for c in cols[:lam]))]

    return rows(system._acols), rows(system._bcols)


def solve_one(system, theta) -> tuple[int, ...]:
    """One particular solution of Vx = theta mod p^lam, one mat-vec at a time."""
    mod = system.modulus
    n = system.lam
    A, B = matrices(system)
    c = [sum(a * t for a, t in zip(row, theta)) % mod for row in A]
    y = [0] * n
    for k in range(n):
        pt = system.p ** system._ts[k]
        if c[k] % pt:
            raise UnsolvableSystem(
                f"component {k} needs valuation >= {system._ts[k]}, got residue {c[k]}"
            )
        y[k] = c[k] // pt
    return tuple(sum(B[i][k] * y[k] for k in range(n)) % mod for i in range(n))


def vandermonde(system) -> list[list[int]]:
    """V[i][j] = w_i^j mod p^lam on the weights of a system, one pow each."""
    mod = system.modulus
    return [[pow(w, j, mod) for j in range(system.lam)] for w in weights(system)]


def apply(system, x) -> list[int]:
    """V.x mod p^lam, one dot product per row."""
    mod = system.modulus
    return [sum(v * c for v, c in zip(row, x)) % mod for row in vandermonde(system)]


def kernel_gens(system) -> list[list[int]]:
    """The generators p^(lam - t_k).B[:,k], t_k > 0, of the right kernel of V
    over Z/p^lam, from the system's factorization."""
    p, lam, mod = system.p, system.lam, system.modulus
    B = matrices(system)[1]
    return [
        [row[k] * p ** (lam - t) % mod for row in B]
        for k, t in enumerate(system._ts)
        if t
    ]


def kernel_annihilates(V, B, ts, p: int, lam: int) -> bool:
    """Whether every kernel generator g = p^(lam - t_k).B[:,k], t_k > 0,
    has V.g = 0 mod p^lam, one dot product at a time."""
    mod = p**lam
    for k, t in enumerate(ts):
        if t == 0:
            continue
        g = [row[k] * p ** (lam - t) % mod for row in B]
        if any(sum(v * x for v, x in zip(row, g)) % mod for row in V):
            return False
    return True


def lambda_for(p: int, target_gamma: int, j_max: int) -> int:
    """The least n >= j_max + 1 with n - j_max - f(n) >= target_gamma, by
    trying each n in turn."""
    n = max(j_max + 1, 1)
    while n - j_max - f_bound(p, n) < target_gamma:
        n += 1
    return n


def smith_diagonalize(V, p: int, lam: int):
    """A.V.B = diag(p^t_k) over Z/p^lam by Smith elimination, scanning every
    entry's valuation for the pivot and applying each column operation to all
    rows; t_0 <= t_1 <= ... are the Smith invariants of V.  The reference for
    the Newton factorization of the Vandermonde systems."""
    mod = p**lam
    n = len(V)
    M = [[x % mod for x in row] for row in V]
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ts = [lam] * n
    for k in range(n):
        best = None
        for i in range(k, n):
            for j in range(k, n):
                if M[i][j]:
                    v = padic_val(M[i][j], p, lam)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        t, pi, pj = best
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            A[k], A[pi] = A[pi], A[k]
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            for row in B:
                row[k], row[pj] = row[pj], row[k]
        pt = p**t
        u = M[k][k] // pt
        uinv = pow(u, -1, mod)
        M[k] = [x * uinv % mod for x in M[k]]
        A[k] = [x * uinv % mod for x in A[k]]
        for i in range(k + 1, n):
            if M[i][k]:
                c = M[i][k] // pt
                M[i] = [(a - c * b) % mod for a, b in zip(M[i], M[k])]
                A[i] = [(a - c * b) % mod for a, b in zip(A[i], A[k])]
        for j in range(k + 1, n):
            if M[k][j]:
                c = M[k][j] // pt
                for row in M:
                    row[j] = (row[j] - c * row[k]) % mod
                for row in B:
                    row[j] = (row[j] - c * row[k]) % mod
        ts[k] = t
    return A, ts, B


def min_val(values, p: int, lam: int) -> int:
    """Minimum of the capped valuations mod p^lam, one padic_val at a time."""
    return min([lam, *(padic_val(x, p, lam) for x in values)])


def bernoulli_table(k_max: int) -> list[Fraction]:
    """B_0..B_{k_max} by B_m = -1/(m+1) sum_{j<m} C(m+1, j) B_j."""
    bern = [Fraction(1)]
    for m in range(1, k_max + 1):
        acc = Fraction(0)
        for j in range(m):
            if bern[j]:
                acc += math.comb(m + 1, j) * bern[j]
        bern.append(-acc / (m + 1))
    return bern


def direct_columns(p: int, n: int, ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    """The columns of the basis matrix one at a time: the first N
    q-coefficients of g_{i_j, j} (from g_form) times E_{p-1}^{-i_j}."""
    N = dim_mk(n * (p - 1))
    einv = e_p_minus_1(ring, N).inverse()
    columns = []
    for j in range(N):
        i = i_of_j(p, j)
        columns.append((g_form(p, i, j, ring, N).series * einv**i).coeffs)
    return tuple(columns)


def q_coefficient_solutions(system, r: int, count: int) -> list[tuple[int, ...]]:
    """Particular solutions of V x_mu = theta_mu for mu < count, where
    theta_mu collects the mu-th q-coefficient of the r-th Katz component
    across the weights: the component is summed from its coordinates and the
    g_form forms, one coefficient at a time."""
    p, lam = system.p, system.lam
    mod = p**lam
    ring = RingSpec(p, lam)
    basis = KatzBasis(p, r)
    forms = [g_form(p, r, j, ring, count).series.coeffs for j in range(*block(p, r))]
    betas = []
    for s in system.ss:
        acc = [0] * count
        for x, g in zip(basis.row_coords(s, r, lam), forms):
            if x:
                for mu in range(count):
                    acc[mu] += x * g[mu]
        betas.append([c % mod for c in acc])
    return system.solve_many(list(zip(*betas)))


def forward_substitute(lower, rhs, mod: int) -> list[int]:
    """Solve Lx = rhs mod `mod` for the unit-lower-triangular L whose
    strictly lower rows are `lower`, one entry at a time."""
    x = []
    for row, b in zip(lower, rhs):
        acc = b
        for c, xc in zip(row, x):
            acc -= c * xc
        x.append(acc % mod)
    return x


def strictly_lower_rows(matrix: BasisMatrix) -> list[list[int]]:
    """The strictly lower part of each row of a basis matrix."""
    return [[col[r] for col in matrix.columns[:r]] for r in range(matrix.N)]


def is_p_ordered(p: int, lam: int, ws) -> bool:
    """Whether the coordinates `ws` are in p-order over Z/p^lam (Bhargava):
    each w_k has the least valuation of prod_{m<k} (w - w_m), capped at lam,
    among w_k and the coordinates after it."""
    mod = p**lam

    def running(k, w):
        prod = 1
        for m in range(k):
            prod = prod * (w - ws[m]) % mod
        return padic_val(prod, p, lam)

    return all(
        running(k, ws[k]) <= min(running(k, w) for w in ws[k:]) for k in range(len(ws))
    )


def sigma_star_trial(p: int, m: int, n: int, mod: int) -> int:
    """Sum of d^m mod `mod` over the divisors d of n prime to p, found by
    trial division."""
    return sum(pow(d, m, mod) for d in range(1, n + 1) if n % d == 0 and d % p) % mod


def eisenstein_star_trial(k: int, ring: RingSpec, N: int) -> QSeries:
    """E*_k mod (q^N, p^e), each sigma*_{k-1}(n) by trial division.  The
    scalar c is the q-coefficient of the package's E*_k, since
    sigma*_{k-1}(1) = 1."""
    mod = ring.modulus
    c = eisenstein_star(k, ring, 2).coeffs[1]
    coeffs = [1] + [c * sigma_star_trial(ring.p, k - 1, n, mod) % mod for n in range(1, N)]
    return QSeries(ring, tuple(coeffs[:N]))


def v_operator(f: QSeries) -> QSeries:
    """The Frobenius V on q-expansions: q -> q^p, truncated at the input's q^N."""
    p = f.ring.p
    n = len(f.coeffs)
    out = [0] * n
    for k in range(0, n, p):
        out[k] = f.coeffs[k // p]
    return QSeries(f.ring, tuple(out))


def eis_ratio_full_inverse(p: int, s: int, lam: int, N: int) -> QSeries:
    """E*_k / V(E*_k), k = s(p-1), with V(E*_k) inverted at full length N."""
    estar = eisenstein_star_trial(s * (p - 1), RingSpec(p, lam), N)
    return estar * v_operator(estar).inverse()


def second_route(state) -> int:
    """Re-derive each attaining entry (i, j) of a sweep off the sweep's own
    path, and return the number of entries checked.  At lam = lambda_max and
    at lam + 4, the system is a fresh build_system on the lam naturals prime
    to p that follow weight_list(p, lam)[-1], so neither the plan nor a
    reduction serves it, and the coordinates come from one fresh KatzBasis(p,
    i) per row, one weight at a time, which rebuilds for lam + 4.  Raises
    AssertionError unless each entry is exact there with the sweep's value."""
    p, lam_max = state.p, state.lam_current
    values = {(e.i, e.j): e.value for e in state.entries}
    systems = {}
    for lam in (lam_max, lam_max + 4):
        first = weight_list(p, lam)[-1] + 1
        ss = [s for s in range(first, first + 2 * lam) if s % p][:lam]
        systems[lam] = build_system(p, lam, ss)
    checks = 0
    for i in sorted({i for i, _ in state.attained}):
        basis = KatzBasis(p, i)
        for lam, system in systems.items():
            row = solve_row(p, i, lam, system=system, basis=basis)
            for j in sorted(j for ii, j in state.attained if ii == i):
                entry = row.entries[j]
                assert entry.exact and entry.value == values[i, j], (lam, entry)
                checks += 1
    return checks
