"""Slow reference implementations of the package's fast kernels, and the
small helpers only the tests use.

Each kernel oracle is the plain loop a kernel replaced, or, for the Smith form
and the basis forms g_{i,j}, a general algorithm that the specialised kernel
must agree with; tests/test_kernels.py checks the kernels against them.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from katzrates.arithmetic import QSeries, RingSpec, inverse, mul_low, prepare, unpack
from katzrates.basis import block, dim_mk, eps
from katzrates.classical import star_constants
from katzrates.expand import psi
from katzrates.family import eis_ratio_by_s
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
        return BasisElement(0, 0, 0, 0, QSeries.from_coeffs(ring, [1], N))
    weight = i * (p - 1)
    ep = eps(weight)
    num = weight - 12 * j - 6 * ep
    if num < 0 or num % 4:
        raise ValueError(f"no basis form at p={p}, i={i}, j={j}")
    a = num // 4
    e4, e6, _ = level_one_trial(ring, N)
    series, mod = [1] + [0] * (N - 1), ring.modulus
    for form, k in ((delta_trial(ring, N), j), (e4, a), (e6, ep)):
        if k:
            series = times(series, power(form, k, mod), mod)
    return BasisElement(i, j, a, ep, QSeries(ring, tuple(series)))


def basis_set(p: int, i: int, ring: RingSpec, N: int) -> list[BasisElement]:
    """The basis forms spanning the i-th complement block, in increasing j."""
    return [g_form(p, i, j, ring, N) for j in range(*block(p, i))]


def times(a, b, mod: int) -> list[int]:
    """The first len(a) coefficients of the product of the series a and b
    (residues mod `mod`), by the package's `mul_low`."""
    return mul_low(a, prepare(b, mod), mod)


def power(a, k: int, mod: int) -> list[int]:
    """The first len(a) coefficients of the series a to the power k >= 1,
    one `times` after another."""
    out = a
    for _ in range(k - 1):
        out = times(out, a, mod)
    return list(out)


def rational_mod(x: Fraction, mod: int) -> int:
    """The residue mod `mod` of a rational whose denominator is a unit."""
    return x.numerator * pow(x.denominator, -1, mod) % mod


@lru_cache(maxsize=None)
def level_one_trial(ring: RingSpec, N: int) -> tuple[tuple[int, ...], ...]:
    """E_4, E_6 and E_{p-1} mod (q^N, p^e): 1 + c sum sigma_m(n) q^n with
    (c, m) = (240, 3), (-504, 5) and (-2(p-1)/B_{p-1}, p-2), each sigma_m(n)
    by trial division and B_{p-1} from sympy."""
    p, mod = ring.p, ring.modulus
    c = rational_mod(Fraction(-2 * (p - 1)) / bernoulli(p - 1), mod)
    return tuple(
        tuple([1, *[a * sigma_star_trial(None, m, n, mod) % mod for n in range(1, N)]][:N])
        for a, m in ((240, 3), (-504, 5), (c, p - 2))
    )


def delta_trial(ring: RingSpec, N: int) -> list[int]:
    """Delta = (E_4^3 - E_6^2) / 1728 mod (q^N, p^e), from level_one_trial by
    `times`."""
    mod = ring.modulus
    e4, e6, _ = level_one_trial(ring, N)
    c = pow(1728, -1, mod)
    return [(a - b) * c % mod for a, b in zip(power(e4, 3, mod), power(e6, 2, mod))]


def minus_one(f: QSeries) -> QSeries:
    """The series f - 1."""
    mod = f.ring.modulus
    return QSeries(f.ring, ((f.coeffs[0] - 1) % mod, *f.coeffs[1:]))


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


def lower_inverse(L, mod: int) -> list[list[int]]:
    """The inverse mod `mod` of a lower-triangular matrix L with unit
    diagonal entries, one entry at a time: column m solves L.a = e_m."""
    n = len(L)
    A = [[0] * n for _ in range(n)]
    for m in range(n):
        for k in range(m, n):
            acc = (k == m) - sum(L[k][i] * A[i][m] for i in range(m, k))
            A[k][m] = acc * pow(L[k][k], -1, mod) % mod
    return A


def dense_l(system) -> list[list[int]]:
    """The leading lam x lam block of the factor L a system keeps, as lists
    of rows mod p^lam: L[k][m] = u_k.lower[k][m] below the diagonal and
    L[k][k] = u_k."""
    lam, mod = system.lam, system.modulus
    L = [[0] * lam for _ in range(lam)]
    for k, (row, uinv) in enumerate(zip(system._lower[:lam], system._uinvs)):
        u = pow(uinv, -1, mod)
        L[k][: len(row)] = [u * c % mod for c in row]
        L[k][k] = u
    return L


def matrices(system) -> tuple[list[list[int]], list[list[int]]]:
    """The factorization matrices A and B of a system, as lam x lam lists of
    rows mod p^lam.  A is the dense inverse of dense_l(system); B is the
    first lam slots of the first lam columns it prepared (`prepare_rows`)."""
    lam, mod = system.lam, system.modulus
    width, packs = system._bcols
    B = [list(r) for r in zip(*(unpack(c, width, lam, mod) for c in packs[:lam]))]
    return lower_inverse(dense_l(system), mod), B


def basis_coords(basis, s: int, r: int, lam: int) -> tuple[int, ...]:
    """Coordinates over the g_{r,j} of E*_k / V(E*_k), k = s(p-1), mod p^lam,
    for a weight s of the basis's system, read off its coordinates X, one
    list over the system's weights per coordinate."""
    k = basis._system.ss.index(s)
    return tuple(x[k] % basis.p**lam for x in basis._coords[slice(*block(basis.p, r))])


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


def bernoulli(k: int) -> Fraction:
    """B_k from sympy, which is exact and shares nothing with the package's
    route through zeta(k) (classical._bernoulli), in the convention
    B_1 = -1/2 (sympy >= 1.12 returns +1/2).  One value at a time: a check
    reads only the B_k it needs, and sympy's B_k past k = 500 each cost
    milliseconds."""
    if k == 1:
        return Fraction(-1, 2)
    b = sympy.bernoulli(k)
    return Fraction(int(b.p), int(b.q))


def direct_columns(p: int, n: int, ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    """The columns of the basis matrix one at a time: the first N
    q-coefficients of g_{i_j, j} (from g_form) times E_{p-1}^{-i_j}."""
    N, mod = dim_mk(n * (p - 1)), ring.modulus
    einv = inverse(level_one_trial(ring, N)[2], mod)
    columns = []
    for j in range(N):
        i = i_of_j(p, j)
        g = g_form(p, i, j, ring, N).series.coeffs
        columns.append(tuple(times(g, power(einv, i, mod), mod)) if i else g)
    return tuple(columns)


def solve_many(system, thetas, count: int | None = None) -> list[tuple[int, ...]]:
    """A particular solution of Vx = theta mod p^lam for each theta, cut to
    its first `count` components (default lam), by the system's own
    VandermondeSystem.solve, the one a row runs on its block of
    coordinates.  The package passes it no other thetas."""
    return system.solve(thetas, count)


def q_coefficient_solutions(system, r: int, count: int) -> list[tuple[int, ...]]:
    """Particular solutions of V x_mu = theta_mu for mu < count, where
    theta_mu collects the mu-th q-coefficient of the r-th Katz component
    across the weights: the component is summed from its coordinates, psi's
    of each family member, and the g_form forms, one coefficient at a time."""
    p, lam = system.p, system.lam
    mod = p**lam
    ring = RingSpec(p, lam)
    N = dim_mk(r * (p - 1))
    lo, hi = block(p, r)
    forms = [g_form(p, r, j, ring, count).series.coeffs for j in range(lo, hi)]
    betas = []
    for s in system.ss:
        acc = [0] * count
        for x, g in zip(psi(p, r, lam, eis_ratio_by_s(p, s, lam, N)).x[lo:hi], forms):
            if x:
                for mu in range(count):
                    acc[mu] += x * g[mu]
        betas.append([c % mod for c in acc])
    return solve_many(system, list(zip(*betas)))


def combination(coeffs, rows, count: int, mod: int) -> list[int]:
    """The first `count` entries of sum_i coeffs[i] * rows[i] mod `mod`, one
    entry at a time; a coefficient without a row, or a row without a
    coefficient, adds nothing."""
    out = []
    for j in range(count):
        acc = 0
        for c, row in zip(coeffs, rows):
            acc += c * row[j]
        out.append(acc % mod)
    return out


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


def strictly_lower_rows(columns) -> list[list[int]]:
    """The strictly lower part of each row of the square matrix with
    `columns`."""
    return [[col[r] for col in columns[:r]] for r in range(len(columns))]


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


def sigma_star_trial(p: int | None, m: int, n: int, mod: int) -> int:
    """Sum of d^m mod `mod` over the divisors d of n prime to p, or over all
    of them when p is None, found by trial division."""
    divisors = [d for d in range(1, n + 1) if n % d == 0 and (p is None or d % p)]
    return sum(pow(d, m, mod) for d in divisors) % mod


def eisenstein_star_trial(k: int, ring: RingSpec, N: int) -> QSeries:
    """E*_k mod (q^N, p^e), each sigma*_{k-1}(n) by trial division.  The
    scalar c is the package's (classical.star_constants), which the tests
    check against sympy's Bernoulli numbers."""
    mod = ring.modulus
    c = star_constants([k], ring)[0]
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
    mod = estar.ring.modulus
    ratio = times(estar.coeffs, inverse(v_operator(estar).coeffs, mod), mod)
    return QSeries(estar.ring, tuple(ratio))


def second_route(state) -> int:
    """Re-derive each attaining entry (i, j) of a sweep off the sweep's own
    path, and return the number of entries checked.  At lam = lambda_max and
    at lam + 4, the system is a fresh build_system on the lam naturals prime
    to p that follow weight_list(p, lam)[-1], so neither the plan nor a
    reduction serves it, and the coordinates come from a fresh KatzBasis(i,
    system) per row and system.  Raises AssertionError unless each entry
    is exact there with the sweep's value."""
    p, lam_max = state.p, state.lam_current
    values = {(e.i, e.j): e.value for e in state.entries}
    systems = {}
    for lam in (lam_max, lam_max + 4):
        first = weight_list(p, lam)[-1] + 1
        ss = [s for s in range(first, first + 2 * lam) if s % p][:lam]
        systems[lam] = build_system(p, lam, ss)
    checks = 0
    for i in sorted({i for i, _ in state.attained}):
        for lam, system in systems.items():
            row = solve_row(p, i, lam, basis=KatzBasis(i, system))
            for j in sorted(j for ii, j in state.attained if ii == i):
                entry = row.entries[j]
                assert entry.exact and entry.value == values[i, j], (lam, entry)
                checks += 1
    return checks
