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

The canonical weights are nested, weight_list(p, lam) being the first lam
entries of weight_list(p, E) for lam <= E, and their natural order is a
p-ordering.  Proof sketch: the coordinates are w_s = (1+p)^{s(p-1)} - 1, so
v(w_s - w_s') = 1 + v(s - s'), and at step k the running valuation of a
remaining w_s is k + sum_{e>=1} #{m < k : s_m = s mod p^e} (capped at lam).
The s_m, m < k, are the naturals prime to p below s_k, so for s = s_k the
count at each e is floor((s_k - 1) / p^e), the least any residue class
mod p^e can have among them; ties go to the first index, so step k takes
s_k.  A system for weight_list(p, E) therefore has A lower and B upper
triangular, and the leading lam x lam blocks of its factorization, reduced
mod p^lam with t_k capped at lam, factor the system for weight_list(p, lam)
(VandermondeSystem.reduce): one factorization serves a whole sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .arithmetic import CappedVal, RingSpec, pack, slot_bytes, unpack
from .basis import block, build_matrix, dim_mk
from .classical import WeightSpec, bernoulli
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
    Returns A, the t_k, B and the order pi.
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
    return A, ts, [list(row) for row in zip(*cols)], order


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


def _gamma(B, ts, p: int, lam: int) -> tuple[CappedVal, ...]:
    """The thresholds gamma_j = min over the generators p^(lam - t_k).B[:,k]
    of the right kernel of V over Z/p^lam of nu(component j), read off row j
    of B; a column with t_k = 0 gives the zero generator.  N_k is monic, so
    generator k is p^(lam - t_k) != 0 at component k when t_k > 0."""
    scales = [p ** (lam - t) for t in ts]
    return tuple(_min_val(list(map(mul, row, scales)), p, lam) for row in B)


def _check_kernel(V, B, ts, p: int, lam: int) -> None:
    """Raise AssertionError unless every kernel generator annihilates V.

    p^(lam - t).x = 0 mod p^lam exactly when x = 0 mod p^t, so the check on
    generator k is V.B[:,k] = 0 mod p^t_k: column k is reduced mod p^t_k
    before it multiplies the packed columns of V, and each slot of the
    product is read mod p^t_k.  The multipliers are then t_k base-p digits
    long, not lam."""
    width = slot_bytes(p**lam, lam)
    packed = [pack(col, width) for col in zip(*V)]
    for k, (col, t) in enumerate(zip(zip(*B), ts)):
        if t == 0:
            continue
        pt = p**t
        acc = sum(map(mul, [b % pt for b in col], packed))
        if any(unpack(acc, width, lam, pt)):
            raise AssertionError(f"kernel generator {k} does not annihilate V")


@dataclass(frozen=True)
class VandermondeSystem:
    """The Vandermonde system V[i][j] = w_i^j over Z/p^lam, kept as what a
    solve reads: its factorization A.V.B = diag(p^t_k) and the
    conclusiveness thresholds gamma_j = min over the kernel generators
    p^(lam - t_k).B[:,k] of nu(component j)."""

    p: int
    lam: int
    weights: tuple[WeightSpec, ...]
    gamma: tuple[CappedVal, ...]
    _A: tuple[tuple[int, ...], ...]
    _ts: tuple[int, ...]
    _B: tuple[tuple[int, ...], ...]
    # The p-ordering of the factorization is the input order of the weights.
    _natural: bool

    @property
    def modulus(self) -> int:
        return self.p**self.lam

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

    def reduce(self, lam: int) -> VandermondeSystem:
        """The system over Z/p^lam on the first lam weights (weight_list(p,
        lam) for a system built on weight_list(p, self.lam)), factored by the
        leading lam x lam blocks of this one.

        With the weights in their p-ordering, A is lower and B upper
        triangular, so the leading blocks of A.V.B = diag(p^t) mod p^lam give
        A'.V'.B' = diag(p^min(t_k, lam)).  B' and the t' are those a fresh
        build computes, so gamma is too; A' may differ, and then a particular
        solution differs from a fresh one by a kernel element, which
        collect_statuses allows for.  The kernel check is not repeated:
        V.B[:,k] = 0 mod p^t_k, checked at the build, holds on the leading
        rows mod p^t'_k because B is upper triangular and t'_k <= t_k."""
        if lam > self.lam:
            raise ValueError(f"cannot reduce a lam = {self.lam} system to {lam}")
        if not self._natural:
            raise ValueError(
                "the weights are not in p-order, so the leading blocks do not "
                "factor the smaller system"
            )
        if lam == self.lam:
            return self
        p, mod = self.p, self.p**lam
        ring = RingSpec(p, lam)

        def lead(M):
            return tuple(tuple(map(mod.__rmod__, row[:lam])) for row in M[:lam])

        ts = tuple(min(t, lam) for t in self._ts[:lam])
        B = lead(self._B)
        return VandermondeSystem(
            p=p,
            lam=lam,
            weights=tuple(WeightSpec(ring, w.s) for w in self.weights[:lam]),
            gamma=_gamma(B, ts, p, lam),
            _A=lead(self._A),
            _ts=ts,
            _B=B,
            _natural=True,
        )


def build_system(p: int, lam: int, weights=None) -> VandermondeSystem:
    """The system on `weights` (default weight_list(p, lam)), factored and
    checked: V is built only for the kernel check."""
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
    A, ts, B, order = _newton_diagonalize(ws, p, lam)
    _check_kernel(V, B, ts, p, lam)
    return VandermondeSystem(
        p=p,
        lam=lam,
        weights=tuple(weights),
        gamma=_gamma(B, ts, p, lam),
        _A=tuple(tuple(row) for row in A),
        _ts=tuple(ts),
        _B=tuple(tuple(row) for row in B),
        _natural=order == list(range(lam)),
    )


@dataclass(frozen=True)
class SweepEntry:
    """Outcome for one (i, j): an exact valuation `value` of b_{i,j}, strictly
    below the kernel ambiguity threshold gamma_j, or inconclusive at it."""

    i: int
    j: int
    exact: bool
    value: int | None
    gamma: int

    @property
    def status(self) -> str:
        return "exact" if self.exact else "inconclusive"


@dataclass(frozen=True)
class ValuationRow:
    p: int
    r: int
    lam: int
    entries: dict[int, SweepEntry]


def sturm_count(p: int, r: int) -> int:
    """S = ceil(r(p-1)/12): coefficients a_0..a_S pin down the valuation of a
    weight-r(p-1) form."""
    return -(-(r * (p - 1)) // 12)


# Precision added to a missed lam before a KatzBasis is rebuilt at it.
PLAN_SLACK = 2


class KatzBasis:
    """The Katz basis of weight n(p-1), the Katz coordinates of the family
    members E*_k / V(E*_k), k = s(p-1), and the Vandermonde system on
    weight_list(p, E), built once over Z/p^E and served mod p^lam for any row
    r <= n and lam <= E.

    Reduction mod p^lam is a ring map, so the served coordinates equal a
    fresh build at (r, lam), and the served system is the reduction of the
    one factored at E (VandermondeSystem.reduce).  `plan` is the caller's
    estimate of the largest lam it will ask for: the first request builds at
    E = max(lam, plan), so with no plan the basis is built at exactly the
    first lam asked for.  A request that misses, lam > E, rebuilds at E =
    lam + PLAN_SLACK.  Each build computes the coordinates of the family
    members at every weight of weight_list(p, E) in one batch; any other
    weight is computed when first asked for.  The system is factored when
    first asked for, once per E, and its newest reduction is kept.
    """

    def __init__(self, p: int, n: int, plan: int = 0):
        self.p = p
        self.n = n
        self.N = dim_mk(n * (p - 1))
        self.plan = plan
        self.E = 0
        self.matrix = None
        self._coords: dict[int, list[int]] = {}
        self._factored = self._served = None

    def _family_coords(self, ss) -> list[list[int]]:
        ratios = [eis_ratio_by_s(self.p, s, self.E, self.N).coeffs for s in ss]
        return forward_substitute_many(self.matrix, ratios)

    def _cover(self, lam: int) -> None:
        """Rebuild over Z/p^E if lam > E: at E = max(lam, plan) on the first
        build, at lam + PLAN_SLACK after a miss."""
        if lam <= self.E:
            return
        self.E = lam + PLAN_SLACK if self.E else max(lam, self.plan)
        ss = [w.s for w in weight_list(self.p, self.E)]
        # B_k for the batch's largest weight sizes the tangent table once,
        # where the ascending weights would regrow it geometrically.
        bernoulli(ss[-1] * (self.p - 1))
        self.matrix = build_matrix(self.p, self.n, RingSpec(self.p, self.E))
        self._coords = dict(zip(ss, self._family_coords(ss)))
        self._factored = self._served = None

    def row_coords(self, s: int, r: int, lam: int) -> tuple[int, ...]:
        """Coordinates over the g_{r,j} of E*_k / V(E*_k), k = s(p-1), mod p^lam."""
        if not 0 <= r <= self.n:
            raise ValueError(f"row {r} is outside 0..{self.n}")
        self._cover(lam)
        x = self._coords.get(s)
        if x is None:
            x = self._coords[s] = self._family_coords([s])[0]
        lo, hi = block(self.p, r)
        mod = self.p**lam
        return tuple(c % mod for c in x[lo:hi])

    def system(self, lam: int) -> VandermondeSystem:
        """The Vandermonde system on weight_list(p, lam) over Z/p^lam."""
        self._cover(lam)
        if self._factored is None:
            self._factored = build_system(self.p, self.E)
        if self._served is None or self._served.lam != lam:
            self._served = self._factored.reduce(lam)
        return self._served


def row_solutions(p, r, lam, system=None, basis=None):
    """Particular solutions x_b of V x_b = theta_b, one for each basis form
    g_{r,b} of row r, where theta_b collects the coordinate of g_{r,b} in the
    r-th Katz component across the weights.  `basis` (a KatzBasis for some
    n >= r) defaults to a fresh one for n = r, and `system` to the basis's
    system at lam; a system given is used as it is, on its own weights.
    Returns (system, solutions).

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
    if basis is None:
        basis = KatzBasis(p, r)
    if system is None:
        system = basis.system(lam)
    coords = [basis.row_coords(w.s, r, lam) for w in system.weights]
    return system, system.solve_many(list(zip(*coords)))


def collect_statuses(system: VandermondeSystem, solutions, j_max: int, r: int):
    """The entries (r, j), j <= j_max: per-component minimum valuation over
    the solutions, classified against the kernel thresholds.  Ambiguity-proof:
    perturbing any solution by a kernel element cannot change an exact
    entry."""
    p, lam = system.p, system.lam
    out = {}
    for j in range(j_max + 1):
        alpha = _min_val([sol[j] for sol in solutions], p, lam)
        gamma = system.gamma[j]
        exact = alpha.less_than(gamma)
        value = alpha.v if exact else None
        out[j] = SweepEntry(i=r, j=j, exact=exact, value=value, gamma=gamma.lower_bound)
    return out


def solve_row(
    p: int,
    r: int,
    lam: int,
    j_max: int | None = None,
    system=None,
    basis=None,
) -> ValuationRow:
    """Valuations nu(b_{r,j}) for 0 <= j <= j_max, each exact or inconclusive.
    Pass one KatzBasis as `basis` to share its builds, and its system, across
    rows."""
    if j_max is None:
        j_max = min(r, lam - 1)
    if j_max > lam - 1:
        raise ValueError(f"j_max = {j_max} exceeds lam - 1 = {lam - 1}")
    system, solutions = row_solutions(p, r, lam, system=system, basis=basis)
    entries = collect_statuses(system, solutions, j_max, r)
    return ValuationRow(p=p, r=r, lam=lam, entries=entries)
