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

A system keeps its weights in the p-ordering its factorization finds, so
the leading lam x lam blocks of its factorization, reduced mod p^lam with
t_k capped at lam, factor the system on its first lam weights
(VandermondeSystem.reduce).  The canonical weights are nested,
weight_list(p, lam) being the first lam entries of weight_list(p, E), and
their natural order is a p-ordering, so one factorization serves a whole
sweep.  Proof sketch: the coordinates are w_s = (1+p)^{s(p-1)} - 1, so
v(w_s - w_s') = 1 + v(s - s'), and at step k the running valuation of a
remaining w_s is k + sum_{e>=1} #{m < k : s_m = s mod p^e} (capped at lam).
The s_m, m < k, are the naturals prime to p below s_k, so for s = s_k the
count at each e is floor((s_k - 1) / p^e), the least any residue class
mod p^e can have among them; ties go to the first index, so step k takes
s_k.  Each column of A and of B is packed into one integer once, at E, and a
solve at lam reads the first lam slots of the first lam columns mod p^lam;
gamma_j = min(lam, min_{j<=k<lam} (lam - min(t_k, lam) + v(B[j][k]))) is
read off a table of the valuations of the entries of B.  The build checks
that the kernel generators annihilate V without building V: column k of B
is the Newton polynomial N_k, whose values at the nodes are the running
products prod_{m<k} (w_i - w_m) (_check_kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, repeat, zip_longest
from operator import mul, sub

from .arithmetic import RingSpec, pack, slot_bytes, unpack
from .basis import block, build_matrix, dim_mk
from .classical import bernoulli
from .expand import forward_substitute, forward_substitute_many
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


def weight_list(p: int, lam: int) -> list[int]:
    """The first lam naturals s prime to p, the canonical weights k = s(p-1).
    For p >= 2 at most half of 1..2lam are multiples of p."""
    return [s for s in range(1, 2 * lam + 1) if s % p][:lam]


def _newton_diagonalize(ws, p: int, lam: int):
    """A.V.B = diag(p^t_0, ..., p^t_{n-1}) over Z/p^lam for the Vandermonde
    matrix V[i][j] = ws[i]^j, by Newton interpolation on a p-ordering of the
    nodes (Bhargava, J. reine angew. Math. 490, 1997).

    Step k takes the remaining node whose running product
    P_i = prod_{m<k} (w_i - w_pi(m)) has least valuation, the first in input
    order on ties, and sets t_k = min(v(P_pi(k)), lam).  Column k of B holds
    the monomial coefficients of N_k(T) = prod_{m<k} (T - w_pi(m)), so
    (V.B)[pi(r)][k] = N_k(w_pi(r)) vanishes for r < k and is P_pi(r) at step k
    otherwise.  Hence, with the rows of V in the order pi, V.B = L.diag(p^t)
    with L[r][k] = P_pi(r) / p^t_k, p-integral by the choice of pi(k), lower
    triangular with unit diagonal entries; where t_k = lam, column k of L is
    e_k.  A = L^-1 comes by forward substitution.  A and B are invertible, and
    t_0 <= t_1 <= ... (a p-ordering's valuations never decrease) are the
    Smith invariants of V.  Returns A, each row cut after its diagonal entry,
    the t_k, B and the order pi.
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
    # A = L^-1: row k of L and e_k over its diagonal unit, e_k cut after k.
    lower = ([c * uinv % mod for c in below[i]] for i, uinv in zip(order, uinvs))
    rhs = ([0] * k + [uinv] for k, uinv in enumerate(uinvs))
    A = forward_substitute(lower, rhs, mod, n)
    return A, ts, [list(row) for row in zip(*cols)], order


def _min_val(values, p: int, lam: int) -> int:
    """min over `values` of their valuations mod p^lam, capped at lam ("at
    least lam"): the valuation of their gcd with p^lam."""
    g = math.gcd(p**lam, *values)
    t = 0
    while g > 1:
        g //= p
        t += 1
    return t


def _gamma(vals, ts, lam: int) -> tuple[int, ...]:
    """The thresholds gamma_j = min over the generators p^(lam - t_k).B[:,k]
    of the right kernel of V over Z/p^lam of nu(component j), k < lam:
    nu(p^(lam - t_k).B[j][k]) = min(lam, lam - t_k + v(B[j][k])), read off
    row j of the valuation table `vals` of B.  A column with t_k = 0 gives the
    zero generator, and a zero entry has valuation >= lam.  N_k is monic, so
    generator k is p^(lam - t_k) != 0 at component k when t_k > 0."""
    return tuple(min(lam, lam + min(map(sub, row, ts))) for row in vals[:lam])


def _packed_vandermonde(nodes, mod: int, width: int) -> list[int]:
    """The columns j of V[i][j] = nodes[i]^j mod `mod`, each packed into one
    integer in slots of `width` bytes."""
    rows = [
        list(accumulate(repeat(w, len(nodes) - 1), lambda a, b: a * b % mod, initial=1))
        for w in nodes
    ]
    return [pack(col, width) for col in zip(*rows)]


def _check_kernel(nodes, B, ts, p: int, lam: int) -> None:
    """Raise AssertionError unless every kernel generator p^(lam - t_k).B[:,k],
    t_k > 0, annihilates the Vandermonde matrix V[i][j] = w_i^j over Z/p^lam,
    w_i = nodes[i]; build_system passes the nodes in its p-order, the order
    in which it built the Newton columns of B.

    p^(lam - t).x = 0 mod p^lam exactly when x = 0 mod p^t, so the check on
    generator k is V.B[:,k] = 0 mod p^t_k.  (V.x)[i] is the value at w_i of
    the polynomial with coefficients x.  Alongside the columns runs the
    Newton recurrence N_{k+1}(T) = (T - w_k).N_k(T), N_0 = 1, with its
    values P_{k+1}[i] = P_k[i].(w_i - w_k) = N_{k+1}(w_i) mod p^lam.  Where
    column k of B agrees with the coefficients of N_k mod p^t_k, V.B[:,k] =
    P_k mod p^t_k, and the check is that p^t_k divides every P_k[i]; those
    with i < k have the factor w_i - w_i and vanish.  Any other column is
    reduced mod p^t_k and multiplied against the packed columns of V, each
    slot of the product read mod p^t_k.  V is built only then, and
    _newton_diagonalize never produces such a column."""
    mod = p**lam
    width = slot_bytes(mod, lam)
    # N_k, degree k, and P_k[i] for i >= k.
    newton, values = [1], [1] * lam
    packed = None
    for k, (col, t) in enumerate(zip(zip(*B), ts)):
        if t:
            pt = p**t
            if all((b - c) % pt == 0 for b, c in zip_longest(col, newton, fillvalue=0)):
                bad = any(v % pt for v in values)
            else:
                if packed is None:
                    packed = _packed_vandermonde(nodes, mod, width)
                acc = sum(map(mul, [b % pt for b in col], packed))
                bad = any(unpack(acc, width, lam, pt))
            if bad:
                raise AssertionError(f"kernel generator {k} does not annihilate V")
        w = nodes[k]
        newton = [(a - w * b) % mod for a, b in zip([0] + newton, newton + [0])]
        values = [v * (x - w) % mod for v, x in zip(values[1:], nodes[k + 1 :])]


@dataclass(frozen=True)
class VandermondeSystem:
    """The Vandermonde system V[i][j] = w_i^j over Z/p^lam, kept as what a
    solve reads: a factorization A.V.B = diag(p^t_k), the conclusiveness
    thresholds gamma_j and the valuations of the entries of B.  Each column
    of A and of B is one integer packed in slots of `_width` bytes.  The
    columns and the valuations are those of the build over Z/p^E, E >= lam,
    which its reductions share; a solve reads their leading lam x lam blocks
    mod p^lam."""

    p: int
    lam: int
    ss: tuple[int, ...]  # the weights k = s(p-1) in p-order, the rows of V
    gamma: tuple[int, ...]  # capped at lam
    _ts: tuple[int, ...]
    _width: int
    _acols: tuple[int, ...]
    _bcols: tuple[int, ...]
    _vals: tuple[tuple[int, ...], ...]

    @property
    def modulus(self) -> int:
        return self.p**self.lam

    def solve_many(self, thetas, count: int | None = None) -> list[tuple[int, ...]]:
        """A particular solution of Vx = theta mod p^lam for each theta, from
        x = B.Y with Y = diag(p^-t_k).A.theta, cut to its first `count`
        components (default lam).  A.theta is the sum of theta_m times the
        packed column m of A, and B.Y that of Y_k times column k of B."""
        mod, width = self.modulus, self._width
        count = self.lam if count is None else count
        pts = [self.p**t for t in self._ts]
        out = []
        for theta in thetas:
            acc = sum(map(mul, [t % mod for t in theta], self._acols))
            Y = []
            for k, (c, pt) in enumerate(zip(unpack(acc, width, self.lam, mod), pts)):
                if c % pt:
                    raise UnsolvableSystem(
                        f"component {k} needs valuation >= {self._ts[k]}, "
                        f"got residue {c}"
                    )
                Y.append(c // pt)
            out.append(tuple(unpack(sum(map(mul, Y, self._bcols)), width, count, mod)))
        return out

    def reduce(self, lam: int) -> VandermondeSystem:
        """The system over Z/p^lam on the first lam weights (weight_list(p,
        lam) for a system built on weight_list(p, self.lam)), factored by the
        leading lam x lam blocks of this one: it shares the packed columns
        and caps the t_k at lam.

        Every system keeps its weights in p-order, so A is lower and B upper
        triangular, and the leading blocks of A.V.B = diag(p^t) mod p^lam give
        A'.V'.B' = diag(p^min(t_k, lam)).  The first lam weights are in
        p-order at lam too (their running valuations are capped at lam, ties
        going to the first index), so B' and the t' are those a fresh build
        on them computes, and gamma is too; A' may differ, and then a
        particular solution differs from a fresh one by a kernel element,
        which collect_statuses allows for.  The kernel check is not repeated:
        V.B[:,k] = 0 mod p^t_k, checked at the build, holds on the leading
        rows mod p^t'_k because B is upper triangular and t'_k <= t_k."""
        if lam > self.lam:
            raise ValueError(f"cannot reduce a lam = {self.lam} system to {lam}")
        if lam == self.lam:
            return self
        ts = tuple(min(t, lam) for t in self._ts[:lam])
        return replace(
            self, lam=lam, ss=self.ss[:lam], gamma=_gamma(self._vals, ts, lam), _ts=ts
        )


def build_system(p: int, lam: int, ss=None) -> VandermondeSystem:
    """The system on the weights k = s(p-1), s in `ss` (default
    weight_list(p, lam)), at the weight-disk coordinates w = (1+p)^k - 1 mod
    p^lam, factored and checked.  V itself is never built: the kernel check
    reads V.B off the Newton products, and only a column of B that is not a
    Newton polynomial would make it build V.  The system keeps the weights in
    the p-order its factorization finds."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    mod = RingSpec(p, lam).modulus  # p must be a prime >= 5
    ss = tuple(weight_list(p, lam) if ss is None else ss)
    if len(ss) != lam:
        raise ValueError(f"expected {lam} weights, got {len(ss)}")
    for s in ss:
        if s < 1 or s % p == 0:
            raise ValueError(f"s must be a positive integer prime to p, got {s}")
    ws = [(pow(p + 1, s * (p - 1), mod) - 1) % mod for s in ss]
    if len(set(ws)) != len(ws):
        raise ValueError("duplicate weight coordinates mod p^lam")
    A, ts, B, order = _newton_diagonalize(ws, p, lam)
    ss = tuple(ss[i] for i in order)
    _check_kernel([ws[i] for i in order], B, ts, p, lam)
    width = slot_bytes(mod, lam)
    log = {p**e: e for e in range(lam + 1)}
    vals = tuple(tuple(log[math.gcd(b, mod)] for b in row) for row in B)
    return VandermondeSystem(
        p=p,
        lam=lam,
        ss=ss,
        gamma=_gamma(vals, ts, lam),
        _ts=tuple(ts),
        _width=width,
        _acols=tuple(pack(col, width) for col in zip_longest(*A, fillvalue=0)),
        _bcols=tuple(pack(col, width) for col in zip(*B)),
        _vals=vals,
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
        ss = weight_list(self.p, self.E)
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


def row_solutions(p, r, lam, system=None, basis=None, count=None):
    """Particular solutions x_b of V x_b = theta_b, one for each basis form
    g_{r,b} of row r, where theta_b collects the coordinate of g_{r,b} in the
    r-th Katz component across the weights, each cut to its first `count`
    components (default lam).  `basis` (a KatzBasis for some n >= r) defaults
    to a fresh one for n = r, and `system` to the basis's system at lam; a
    system given is used as it is, on its own weights, and must be over
    Z/p^lam.  Returns (system, solutions).

    The coordinates stand in for the q-coefficients a_0..a_S, S =
    ceil(r(p-1)/12), of the r-th component, which pin down its valuation
    (the Sturm bound), and they give the same statuses in collect_statuses:

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
    if system is not None and system.lam != lam:
        raise ValueError(f"lam = {lam}, but the system given is over Z/p^{system.lam}")
    if basis is None:
        basis = KatzBasis(p, r)
    if system is None:
        system = basis.system(lam)
    coords = [basis.row_coords(s, r, lam) for s in system.ss]
    return system, system.solve_many(list(zip(*coords)), count)


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
        # alpha = lam, "at least lam", is never below gamma <= lam.
        value = alpha if alpha < gamma else None
        out[j] = SweepEntry(i=r, j=j, exact=value is not None, value=value, gamma=gamma)
    return out


def solve_row(
    p: int,
    r: int,
    lam: int,
    j_max: int | None = None,
    system=None,
    basis=None,
) -> ValuationRow:
    """Valuations nu(b_{r,j}) for 0 <= j <= j_max, each exact or inconclusive;
    none for a row with an empty basis block, where every b_{r,j} is 0 (a
    sweep records no entries for such a row either).  Pass one KatzBasis as
    `basis` to share its builds, and its system, across rows."""
    if j_max is None:
        j_max = min(r, lam - 1)
    if j_max > lam - 1:
        raise ValueError(f"j_max = {j_max} exceeds lam - 1 = {lam - 1}")
    lo, hi = block(p, r)
    if lo == hi:
        return ValuationRow(p=p, r=r, lam=lam, entries={})
    # collect_statuses reads components 0..j_max only.
    system, solutions = row_solutions(
        p, r, lam, system=system, basis=basis, count=j_max + 1
    )
    entries = collect_statuses(system, solutions, j_max, r)
    return ValuationRow(p=p, r=r, lam=lam, entries=entries)
