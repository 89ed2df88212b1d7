"""Recovering the valuations nu(b_{r,j}) of the formal Katz expansion from
Katz expansions at finitely many classical weights.

The coefficients a_mu(b_{r,j}) satisfy Vandermonde systems V x = theta over
Z/p^lam whose solutions are only determined up to the kernel of V; the per-
component thresholds gamma_j from a generating set of the kernel decide which
recovered valuations are conclusive.  Each system is diagonalized by Newton
interpolation on a p-ordering of its weights (Bhargava, "P-orderings and
polynomial functions on arbitrary subsets of Dedekind rings", J. reine angew.
Math. 490, 1997), in O(lam^2) scalar steps where a general Smith form takes
O(lam^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .arithmetic import CappedVal, RingSpec, pack, padic_val, slot_bytes, unpack
from .basis import build_matrix, dim_mk
from .classical import WeightSpec
from .expand import forward_substitute_many
from .family import eis_ratio_by_s


class UnsolvableSystem(RuntimeError):
    """V x = theta has no solution mod p^lam (implementation or precision fault)."""


def f_bound(p: int, n: int) -> int:
    """f(n) = sum_i floor((n-1) / ((p-1) p^{i-1}))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    base = p - 1
    while base <= n - 1:
        total += (n - 1) // base
        base *= p
    return total


def nu_w(p: int, k: int, e: int) -> CappedVal:
    """nu_p((1+p)^k - 1) computed mod p^e; equals nu_p(k) + 1."""
    kv = padic_val(k, p, e)
    if not kv.is_finite or e <= kv.v + 1:
        raise ValueError(f"precision e = {e} too small to certify nu_p({k}) + 1")
    expected = kv.v + 1
    got = padic_val(pow(p + 1, k, p**e) - 1, p, e)
    if got.v != expected:
        raise ArithmeticError(f"valuation {got} does not match closed form {expected}")
    return got


def weight_list(p: int, lam: int) -> list[WeightSpec]:
    """The first lam naturals prime to p, as weights k = s(p-1) mod p^lam."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    ring = RingSpec(p, lam)
    out = []
    s = 1
    while len(out) < lam:
        if s % p:
            out.append(WeightSpec(ring, s))
        s += 1
    return out


def _newton_diagonalize(ws, p: int, lam: int):
    """A.V.B = diag(p^t_0, ..., p^t_{n-1}) over Z/p^lam for the Vandermonde
    matrix V[i][j] = ws[i]^j, by Newton interpolation on a p-ordering of the
    nodes (Bhargava, J. reine angew. Math. 490, 1997).

    Step k takes the remaining node whose running product
    P_i = prod_{m<k} (w_i - w_pi(m)) has least valuation, the first in input
    order on ties, and sets t_k = min(v(P_pi(k)), lam).  Column k of B holds
    the monomial coefficients of N_k(T) = prod_{m<k} (T - w_pi(m)), so
    (V.B)[pi(r)][k] = N_k(w_pi(r)) vanishes for r < k and is P_pi(r) at step k
    otherwise.  Hence V.B = Perm^-1.L.diag(p^t) with L[r][k] = P_pi(r) / p^t_k,
    p-integral by the choice of pi(k), lower triangular with unit diagonal
    entries; where t_k = lam, column k of L is e_k.  A = L^-1.Perm is built by
    forward substitution, each row one packed big-integer combination of the
    rows before it.  A and B are invertible, and t_0 <= t_1 <= ... (a
    p-ordering's valuations never decrease) are the Smith invariants of V.
    """
    mod = p**lam
    n = len(ws)
    powers = [p**e for e in range(lam + 1)]
    # Ordering pass.  Node i holds P_i = p^val[i] * unit[i] (val capped at
    # lam) and the entries L[r][0..k-1] of the row r it will take.
    val = [0] * n
    unit = [1] * n
    below = [[] for _ in range(n)]
    remaining = list(range(n))
    order, units, ts, cols = [], [], [], []
    newton = [1]
    for _ in range(n):
        i = min(remaining, key=val.__getitem__)
        remaining.remove(i)
        t = val[i]
        order.append(i)
        units.append(unit[i] if t < lam else 1)
        ts.append(t)
        cols.append(newton + [0] * (n - len(newton)))
        w = ws[i]
        newton = [(a - w * b) % mod for a, b in zip([0] + newton, newton + [0])]
        if t == lam:
            # Every remaining P_i is 0 mod p^lam: the columns left are e_k.
            continue
        for r in remaining:
            below[r].append(unit[r] * powers[val[r] - t] % mod)
            d = ws[r] - w
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            val[r] = min(val[r] + v, lam)
            unit[r] = unit[r] * d % mod
    # Inverse of every pivot unit from one pow: prefix products, then back.
    prefix = list(accumulate(units, lambda a, b: a * b % mod, initial=1))
    inv = pow(prefix[-1], -1, mod)
    uinvs = [0] * n
    for k in reversed(range(n)):
        uinvs[k] = inv * prefix[k] % mod
        inv = inv * units[k] % mod
    # Row k of A: (e_pi(k) - sum_m L[k][m] A[m]) / L[k][k], one packed
    # combination of the rows before it.
    width = slot_bytes(mod, n)
    A, packed = [], []
    for i, uinv in zip(order, uinvs):
        acc = uinv << (8 * width * i)
        acc += sum(map(mul, [-c * uinv % mod for c in below[i]], packed))
        A.append(unpack(acc, width, n, mod))
        packed.append(pack(A[-1], width))
    return A, ts, [list(row) for row in zip(*cols)]


def _log_p(pt: int, p: int) -> int:
    """t for pt = p^t."""
    t = 0
    while pt > 1:
        pt //= p
        t += 1
    return t


def _min_val(values, p: int, lam: int) -> CappedVal:
    """min over `values` of their valuations mod p^lam: the valuation of
    their gcd with p^lam."""
    t = _log_p(math.gcd(p**lam, *values), p)
    return CappedVal.at_least_e(lam) if t == lam else CappedVal.finite(t, lam)


def _matmul(M, R, mod: int) -> list[list[int]]:
    """M.R mod `mod` for matrices given as lists of rows with entries in
    [0, mod): each row of R is packed into one integer, so every row of the
    product is one big-integer dot product, unpacked and reduced."""
    count = len(R[0])
    width = slot_bytes(mod, len(R))
    packed = [pack(row, width) for row in R]
    return [unpack(sum(map(mul, row, packed)), width, count, mod) for row in M]


@dataclass(frozen=True)
class VandermondeSystem:
    """The Vandermonde matrix V[i][j] = w_i^j over Z/p^lam, a generating set of
    its right kernel {x : Vx = 0}, and the conclusiveness thresholds gamma_j =
    min over generators of nu(component j)."""

    p: int
    lam: int
    weights: tuple[WeightSpec, ...]
    V: tuple[tuple[int, ...], ...]
    kernel_gens: tuple[tuple[int, ...], ...]
    gamma: tuple[CappedVal, ...]
    _A: tuple[tuple[int, ...], ...]
    _ts: tuple[int, ...]
    _B: tuple[tuple[int, ...], ...]

    @property
    def modulus(self) -> int:
        return self.p**self.lam

    def apply(self, x) -> list[int]:
        mod = self.modulus
        return [sum(r * v for r, v in zip(row, x)) % mod for row in self.V]

    def solve(self, theta) -> tuple[int, ...]:
        """One particular solution of Vx = theta mod p^lam."""
        return self.solve_many([theta])[0]

    def solve_many(self, thetas) -> list[tuple[int, ...]]:
        """A particular solution of Vx = theta mod p^lam for each theta, from
        x = B.Y with Y = diag(p^-t_k).A.Theta, the columns of Theta being the
        thetas."""
        if not thetas:
            return []
        mod = self.modulus
        C = _matmul(self._A, [[t % mod for t in col] for col in zip(*thetas)], mod)
        Y = []
        for k, ck in enumerate(C):
            pt = self.p ** self._ts[k]
            for c in ck:
                if c % pt:
                    raise UnsolvableSystem(
                        f"component {k} needs valuation >= {self._ts[k]}, "
                        f"got residue {c}"
                    )
            Y.append([c // pt for c in ck])
        return [tuple(x) for x in zip(*_matmul(self._B, Y, mod))]


def build_system(p: int, lam: int, weights=None) -> VandermondeSystem:
    if weights is None:
        weights = weight_list(p, lam)
    if len(weights) != lam:
        raise ValueError(f"expected {lam} weights, got {len(weights)}")
    mod = p**lam
    ws = [w.w % mod for w in weights]
    if len(set(ws)) != len(ws):
        raise ValueError("duplicate weight coordinates mod p^lam")
    V = [
        list(accumulate(repeat(w, lam - 1), lambda a, b: a * b % mod, initial=1))
        for w in ws
    ]
    A, ts, B = _newton_diagonalize(ws, p, lam)
    gens = []
    for k, t in enumerate(ts):
        if t == 0:
            continue
        scale = p ** (lam - t)
        g = tuple(B[i][k] * scale % mod for i in range(lam))
        if any(g):
            gens.append(g)
    system = VandermondeSystem(
        p=p,
        lam=lam,
        weights=tuple(weights),
        V=tuple(tuple(row) for row in V),
        kernel_gens=tuple(gens),
        gamma=tuple(_min_val([g[j] for g in gens], p, lam) for j in range(lam)),
        _A=tuple(tuple(row) for row in A),
        _ts=tuple(ts),
        _B=tuple(tuple(row) for row in B),
    )
    # Computed as G^T.V^T: generator k has zeros past component k, and the
    # packed product skips them.
    if gens and any(map(any, _matmul(gens, list(zip(*V)), mod))):
        raise AssertionError("kernel generator does not annihilate V")
    return system


@dataclass(frozen=True)
class ValStatus:
    """Outcome for one (r, j): an exact valuation (strictly below the kernel
    ambiguity gamma_j) or inconclusive at threshold gamma_j."""

    exact: bool
    value: int | None
    gamma: CappedVal

    @property
    def status(self) -> str:
        return "exact" if self.exact else "inconclusive"

    @property
    def gamma_int(self) -> int:
        return self.gamma.lower_bound


@dataclass(frozen=True)
class ValuationRow:
    p: int
    r: int
    lam: int
    entries: dict[int, ValStatus]


def sturm_count(p: int, r: int) -> int:
    """S = ceil(r(p-1)/12): coefficients a_0..a_S pin down the valuation of a
    weight-r(p-1) form."""
    return -(-(r * (p - 1)) // 12)


def _block(p: int, r: int) -> tuple[int, int]:
    """The half-open column range of the basis forms g_{r,j}."""
    return dim_mk((r - 1) * (p - 1)), dim_mk(r * (p - 1))


# Precision added to a planned or missed lam before KatzBasis builds at it.
PLAN_SLACK = 2


class KatzBasis:
    """The Katz basis of weight n(p-1) and the Katz coordinates of the family
    members E*_k / V(E*_k), k = s(p-1), built once over Z/p^E and served mod
    p^lam for any row r <= n and lam <= E.

    Reduction mod p^lam is a ring map, so the served values equal a fresh
    build at (r, lam).  `plan` is the caller's estimate of the largest lam it
    will ask for: the first request builds at E = max(lam, plan), so with no
    plan the basis is built at exactly the first lam asked for.  A request
    that misses, lam > E, rebuilds at E = lam + PLAN_SLACK.  Each build
    computes the coordinates of the family members at every weight of
    weight_list(p, E) in one batch; any other weight is computed when first
    asked for.
    """

    def __init__(self, p: int, n: int, plan: int = 0):
        self.p = p
        self.n = n
        self.N = dim_mk(n * (p - 1))
        self.plan = plan
        self.E = 0
        self.matrix = None
        self._coords: dict[int, list[int]] = {}

    def _family_coords(self, ss) -> list[list[int]]:
        ratios = [eis_ratio_by_s(self.p, s, self.E, self.N).coeffs for s in ss]
        return forward_substitute_many(self.matrix, ratios)

    def row_coords(self, s: int, r: int, lam: int) -> tuple[int, ...]:
        """Coordinates over the g_{r,j} of E*_k / V(E*_k), k = s(p-1), mod p^lam."""
        if not 0 <= r <= self.n:
            raise ValueError(f"row {r} is outside 0..{self.n}")
        if lam > self.E:
            self.E = lam + PLAN_SLACK if self.E else max(lam, self.plan)
            self.matrix = build_matrix(self.p, self.n, RingSpec(self.p, self.E))
            ss = [w.s for w in weight_list(self.p, self.E)]
            self._coords = dict(zip(ss, self._family_coords(ss)))
        x = self._coords.get(s)
        if x is None:
            x = self._coords[s] = self._family_coords([s])[0]
        lo, hi = _block(self.p, r)
        mod = self.p**lam
        return tuple(c % mod for c in x[lo:hi])


def row_solutions(p, r, lam, weights=None, system=None, basis=None):
    """Particular solutions x_b of V x_b = theta_b, one for each basis form
    g_{r,b} of row r, where theta_b collects the coordinate of g_{r,b} in the
    r-th Katz component across the weights.  `basis` (a KatzBasis for some
    n >= r) defaults to a fresh one for n = r.  Returns (system, solutions).

    The coordinates stand in for the q-coefficients a_0..a_S, S =
    sturm_count(p, r), of the r-th component, which pin down its valuation,
    and they give the same statuses in collect_statuses:

    - g_{r,b} = q^b + O(q^{b+1}) for b in the block [lo, hi), and hi - 1 <= S,
      so the minor (a_mu(g_{r,b})) on mu in [lo, hi) is unit lower triangular,
      a_mu vanishes for mu < lo, and nu(sum_b z_b g_{r,b}) = min_b nu(z_b).
      The q-coefficient solutions are combinations of the x_b, and their
      minimum valuation at component j is min_b nu(x_b[j]).
    - Two particular solutions of one system differ by a kernel element,
      which collect_statuses already allows for: the valuation of component
      j moves only at or above gamma_j.
    - The UnsolvableSystem divisibility check passes on the coordinates
      exactly when it passes on the q-coefficients: each is a combination of
      the other, the unit-triangular minor giving the way back.
    """
    if system is None:
        system = build_system(p, lam, weights)
    if basis is None:
        basis = KatzBasis(p, r)
    coords = [basis.row_coords(w.s, r, lam) for w in system.weights]
    return system, system.solve_many(list(zip(*coords)))


def collect_statuses(system: VandermondeSystem, solutions, j_max: int):
    """Per-component minimum valuation over the solutions, classified against
    the kernel thresholds.  Ambiguity-proof: perturbing any solution by a
    kernel element cannot change an exact entry."""
    p, lam = system.p, system.lam
    out = {}
    for j in range(j_max + 1):
        alpha = _min_val([sol[j] for sol in solutions], p, lam)
        gamma = system.gamma[j]
        if alpha.less_than(gamma):
            out[j] = ValStatus(exact=True, value=alpha.v, gamma=gamma)
        else:
            out[j] = ValStatus(exact=False, value=None, gamma=gamma)
    return out


def solve_row(
    p: int,
    r: int,
    lam: int,
    j_max: int | None = None,
    weights=None,
    system=None,
    basis=None,
) -> ValuationRow:
    """Valuations nu(b_{r,j}) for 0 <= j <= j_max, each exact or inconclusive.
    Pass one KatzBasis as `basis` to share its builds across rows."""
    if j_max is None:
        j_max = min(r, lam - 1)
    if j_max > lam - 1:
        raise ValueError(f"j_max = {j_max} exceeds lam - 1 = {lam - 1}")
    system, solutions = row_solutions(
        p, r, lam, weights=weights, system=system, basis=basis
    )
    entries = collect_statuses(system, solutions, j_max)
    return ValuationRow(p=p, r=r, lam=lam, entries=entries)
