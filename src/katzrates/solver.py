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
s_k.  L^-1 is never formed: a row's solve (VandermondeSystem.solve)
substitutes over the leading lam x lam block of L, mod p^lam, for its own
coordinates; L being lower triangular, that gives the first lam entries of
L^-1 applied at the build's p^E, mod p^lam.  Each column of B is packed once,
at E, and gamma_j = min(lam, min_{j<=k<lam} (lam - min(t_k, lam) + v(B[j][k]))) is
read off the valuations of its upper triangle.  The build checks that the
kernel generators annihilate V without building V, on one path: column k of
B must be the Newton polynomial N_k mod p^t_k, whose values at the nodes are
the running products prod_{m<k} (w_i - w_m) (_check_kernel).

A row has one path to its solutions, KatzBasis.solutions: it checks the row
and lam once, reduces the basis's system to lam and solves it on the row's
block of the basis's coordinates; solve_row classifies the solutions
against the kernel thresholds (collect_statuses).
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest
from operator import mul, sub

from .arithmetic import RingSpec, _Record, _set, combine, prepare_rows, unit_inverses
from .basis import block, columns, dim_mk
from .expand import _peel
from .family import eis_ratios


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
    """L^-1.V.B = diag(p^t_0, ..., p^t_{n-1}) over Z/p^lam for the Vandermonde
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
    e_k.  L and B are invertible, and t_0 <= t_1 <= ... (a p-ordering's
    valuations never decrease) are the Smith invariants of V.  Returns L, as
    its rows over their diagonal units, cut before it, and the inverses of
    the units, the t_k, the columns of B (the coefficients of N_0, N_1, ...)
    and the order pi.
    """
    powers = _power_table(p, lam)[0]
    mod, n = powers[lam], len(ws)
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
    uinvs = tuple(unit_inverses(units, mod))
    lower = tuple(tuple(c * uinv % mod for c in below[i]) for i, uinv in zip(order, uinvs))
    return (lower, uinvs), tuple(ts), cols, order


def _gamma(vals, ts, lam: int) -> tuple[int, ...]:
    """The thresholds gamma_j = min over the generators p^(lam - t_k).B[:,k]
    of the right kernel of V over Z/p^lam of nu(component j), k < lam:
    nu(p^(lam - t_k).B[j][k]) = min(lam, lam - t_k + v(B[j][k])), read off
    row j of the valuation table `vals` of B, which holds k >= j only (B is
    upper triangular).  A column with t_k = 0 gives the zero generator, and a
    zero entry has valuation >= lam.  N_k is monic, so generator k is
    p^(lam - t_k) != 0 at component k when t_k > 0."""
    return tuple(min(lam, lam + min(map(sub, r, ts[j:]))) for j, r in enumerate(vals[:lam]))


def _check_kernel(nodes, cols, ts, p: int, lam: int) -> None:
    """Raise AssertionError unless every kernel generator p^(lam - t_k).B[:,k],
    t_k > 0, is p^(lam - t_k).N_k and annihilates the Vandermonde matrix
    V[i][j] = w_i^j over Z/p^lam, w_i = nodes[i], for B with columns `cols`;
    build_system passes the nodes in its p-order, the order in which it
    built the Newton columns.

    p^(lam - t).x = 0 mod p^lam exactly when x = 0 mod p^t, so the check on
    generator k is that column k agrees with the coefficients of N_k mod
    p^t_k and that V.N_k = 0 mod p^t_k.  (V.x)[i] is the value at w_i of the
    polynomial with coefficients x, so V.N_k is read off the Newton
    recurrence N_{k+1}(T) = (T - w_k).N_k(T), N_0 = 1, run alongside with its
    values P_{k+1}[i] = P_k[i].(w_i - w_k) = N_{k+1}(w_i) mod p^lam: the
    check is that p^t_k divides every P_k[i]; those with i < k have the
    factor w_i - w_i and vanish.  V is never built."""
    mod, powers = p**lam, _power_table(p, lam)[0]
    # N_k, degree k, and P_k[i] for i >= k.
    newton, values = [1], [1] * lam
    for k, (col, t) in enumerate(zip(cols, ts)):
        if t:
            pt = powers[t]
            if any((b - c) % pt for b, c in zip_longest(col, newton, fillvalue=0)):
                raise AssertionError(f"kernel generator {k} is not p^(lam - t_k).N_k")
            if any(v % pt for v in values):
                raise AssertionError(f"kernel generator {k} does not annihilate V")
        w = nodes[k]
        newton = [(a - w * b) % mod for a, b in zip([0] + newton, newton + [0])]
        values = [v * (x - w) % mod for v, x in zip(values[1:], nodes[k + 1 :])]


@functools.lru_cache
def _power_table(p: int, E: int):
    """(p^0, ..., p^E) and its inverse {p^e: e}, made once per (p, E)."""
    powers = tuple([p**e for e in range(E + 1)])
    return powers, dict(zip(powers, range(E + 1)))


class VandermondeSystem(_Record):
    """The Vandermonde system V[i][j] = w_i^j over Z/p^lam, kept as what a
    solve reads: a factorization L^-1.V.B = diag(p^t_k) (L as _newton_diagonalize
    returns it, the columns of B as `prepare_rows` operands), the
    conclusiveness thresholds gamma_j and the valuations of B.  These are
    the build's over Z/p^E, E >= lam, which its reductions share; a solve
    reads their leading lam x lam blocks mod p^lam.  `ss` holds the weights
    k = s(p-1) in p-order, the rows of V, and gamma is capped at lam.

    The power table, `_powers` = (p^0, ..., p^E) and its inverse
    `_log` = {p^e: e}, is made once per (p, E) and shared by every build at
    E and its reductions, so no row raises p to a power.  It depends on p
    and E alone and is not a field: it takes no part in comparing or
    hashing systems."""

    _fields = ("p", "lam", "ss", "gamma", "_ts", "_lower", "_uinvs", "_bcols", "_vals")
    __slots__ = (*_fields, "_powers", "_log")

    def __init__(self, p, lam, ss, gamma, _ts, _lower, _uinvs, _bcols, _vals):
        values = (p, lam, ss, gamma, _ts, _lower, _uinvs, _bcols, _vals)
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        powers, log = _power_table(p, len(_uinvs))
        _set(self, "_powers", powers)
        _set(self, "_log", log)

    @property
    def modulus(self) -> int:
        return self._powers[self.lam]

    def solve(self, thetas, count: int | None = None) -> list[tuple[int, ...]]:
        """A particular solution x = B.Y of V x = theta mod p^lam for each
        theta in `thetas`, a list over the weights read to its first lam
        entries, cut to its first `count` components (default lam), in one
        pass: the substitution over the leading lam x lam block of L,
        c_k = (u_k^-1.theta_k - sum_{t<k} L[k][t].c_t) mod p^lam, gives
        Y_k = c_k / p^t_k, or UnsolvableSystem if not exact, and x is
        sum_k Y_k.B[:,k]."""
        mod, ts = self.modulus, self._ts
        count = self.lam if count is None else count
        pts = [self._powers[t] for t in ts]
        steps = [*zip(self._uinvs[: self.lam], self._lower, pts)]
        out = []
        for theta in thetas:
            c, Y = [], []
            for k, ((u, below, pt), x) in enumerate(zip(steps, theta)):
                ck = (u * x - sum(map(mul, below, c))) % mod
                y, rem = divmod(ck, pt)
                if rem:
                    raise UnsolvableSystem(
                        f"component {k} needs valuation >= {ts[k]}, got residue {ck}"
                    )
                c.append(ck)
                Y.append(y)
            out.append(tuple(combine(Y, self._bcols, count, mod)))
        return out

    def reduce(self, lam: int) -> VandermondeSystem:
        """The system over Z/p^lam on the first lam weights (weight_list(p,
        lam) for a system built on weight_list(p, self.lam)), factored by the
        leading lam x lam blocks of this one: it shares L and B and caps the
        t_k at lam.

        Every system keeps its weights in p-order, so L is lower and B upper
        triangular, and the leading blocks of V.B = L.diag(p^t) mod p^lam
        give V'.B' = L'.diag(p^min(t_k, lam)).  The first lam weights are in
        p-order at lam too (running valuations capped at lam, ties to the
        first index), so B', the t' and gamma are a fresh build's on them.
        L' may differ from a fresh build's L, whose column k is e_k where t_k
        reaches lam; then a particular solution differs from a fresh one by
        a kernel element, which collect_statuses allows for.  The
        kernel check is not repeated: V.B[:,k] = 0 mod p^t_k, checked at the
        build, holds on the leading rows mod p^t'_k because B is upper
        triangular and t'_k <= t_k."""
        if lam > self.lam:
            raise ValueError(f"cannot reduce a lam = {self.lam} system to {lam}")
        if lam == self.lam:
            return self
        ts = tuple(min(t, lam) for t in self._ts[:lam])
        return VandermondeSystem(
            self.p, lam, self.ss[:lam], _gamma(self._vals, ts, lam), ts,
            self._lower, self._uinvs, self._bcols, self._vals,
        )


def build_system(p: int, lam: int, ss=None) -> VandermondeSystem:
    """The system on the weights k = s(p-1), s in `ss` (default
    weight_list(p, lam)), at the weight-disk coordinates w = (1+p)^k - 1 mod
    p^lam, factored and checked.  V itself is never built: the kernel check
    reads V.B off the Newton products, and refuses a column of B that is not
    the Newton polynomial it stands for.  The system keeps the weights in the
    p-order its factorization finds."""
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
    L, ts, cols, order = _newton_diagonalize(ws, p, lam)
    ss = tuple(ss[i] for i in order)
    _check_kernel([ws[i] for i in order], cols, ts, p, lam)
    log = _power_table(p, lam)[1]
    vals = tuple(tuple(log[math.gcd(b, mod)] for b in r[j:]) for j, r in enumerate(zip(*cols)))
    bcols = prepare_rows(cols, mod)
    return VandermondeSystem(p, lam, ss, _gamma(vals, ts, lam), ts, *L, bcols, vals)


class SweepEntry(_Record):
    """Outcome for one (i, j): an exact valuation `value` of b_{i,j}, strictly
    below the kernel ambiguity threshold gamma_j, or inconclusive at it, with
    `value` None."""

    __slots__ = _fields = ("i", "j", "value", "gamma")

    def __init__(self, i: int, j: int, value: int | None, gamma: int):
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "value", value)
        _set(self, "gamma", gamma)

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def status(self) -> str:
        return "exact" if self.exact else "inconclusive"


class ValuationRow(_Record):
    """The entries of row r solved at lam, keyed by j."""

    __slots__ = _fields = ("r", "lam", "entries")

    def __init__(self, r: int, lam: int, entries: dict[int, SweepEntry]):
        _set(self, "r", r)
        _set(self, "lam", lam)
        _set(self, "entries", entries)


class KatzBasis:
    """The Katz coordinates, over the basis of weight n(p-1), of the family
    members E*_k / V(E*_k), k = s(p-1), at the weights s of one Vandermonde
    system over Z/p^E, E = system.lam, p = system.p, solved for any row
    r <= n at any lam <= E (solutions).

    The build is one pass over Z/p^E and folds nothing: the family members
    at system.ss, computed together (family.eis_ratios) as N rows over the
    weights, are solved as one batch of the basis system, peeled K
    coordinates at a time off the column chain (expand._peel, as psi solves
    one series).  It keeps X, the members' coordinates, one list over the
    weights per coordinate b, and not the basis matrix; a row's solve applies
    L^-1 to its own block of X.  Reduction mod p^lam is a ring map, so a row's
    coordinates equal a fresh build's at (r, lam), and its system is
    system.reduce(lam), the newest of which is kept.  Coordinates and system
    come from this one object, so a solve cannot pair them across primes,
    weights or precisions.
    """

    def __init__(self, n: int, system: VandermondeSystem):
        p = self.p = system.p
        self.n, self.E = n, system.lam
        ring = RingSpec(p, self.E)
        chain = columns(p, n, ring)  # checks n; no product until a column is taken
        # The peel takes the members' rows with no other reference to them,
        # so it frees each row once it has solved it.
        self._coords = _peel(
            ring, chain, eis_ratios(p, system.ss, self.E, dim_mk(n * (p - 1)))
        )
        self._system = system
        self._served = None

    def solutions(self, r: int, lam: int, count: int | None = None):
        """Particular solutions x_b of V x_b = theta_b, one for each basis
        form g_{r,b} of row r, where theta_b collects the coordinate of
        g_{r,b} in the r-th Katz component across the weights, each cut to
        its first `count` components (default lam).  V is the basis's system
        reduced to lam.  Returns (system, solutions).  The basis holds
        theta_b over Z/p^E; the row's one VandermondeSystem.solve reads only
        its block, to the first lam entries of L^-1.theta_b mod p^lam, which,
        L being lower triangular, are L'^-1.theta_b at lam, L' the leading
        lam x lam block.

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
        if not 1 <= lam <= self.E:
            raise ValueError(f"lam = {lam} lies outside 1..{self.E}, the basis's precision")
        if not 0 <= r <= self.n:
            raise ValueError(f"row {r} is outside 0..{self.n}")
        if self._served is None or self._served.lam != lam:
            self._served = self._system.reduce(lam)
        lo, hi = block(self.p, r)
        return self._served, self._served.solve(self._coords[lo:hi], count)


def collect_statuses(system: VandermondeSystem, solutions, j_max: int, r: int):
    """The entries (r, j), j <= j_max, in increasing j: the least valuation
    of component j over the solutions, classified against the kernel
    thresholds; none for no solutions (an empty block, every b_{r,j} 0).
    Perturbing a solution by a kernel element cannot change an exact entry.

    The weight-0 member E*_0 / V(E*_0) is 1, whose Katz expansion is row 0
    alone, so b_{r,0} = 0 for r >= 1: an exact j = 0 entry there proves a
    fault, and raises AssertionError naming r."""
    mod, log = system.modulus, system._log
    out = {}
    for j in range(j_max + 1 if solutions else 0):
        # The least valuation, capped at lam, is that of the gcd with p^lam.
        alpha = log[math.gcd(mod, *[sol[j] for sol in solutions])]
        gamma = system.gamma[j]
        # alpha = lam, "at least lam", is never below gamma <= lam.
        value = alpha if alpha < gamma else None
        if j == 0 and r >= 1 and value is not None:
            raise AssertionError(f"row {r}: exact j = 0 entry, but b_{{{r},0}} = 0")
        out[j] = SweepEntry(i=r, j=j, value=value, gamma=gamma)
    return out


def solve_row(
    p: int, r: int, lam: int, j_max: int | None = None, basis=None
) -> ValuationRow:
    """Valuations nu(b_{r,j}) for 0 <= j <= j_max, each exact or inconclusive;
    none for a row with an empty basis block, where every b_{r,j} is 0 (a
    sweep records no entries for such a row either).  Pass one KatzBasis as
    `basis` to share its build, and its system, across rows."""
    if r < 0:
        raise ValueError(f"row r = {r} must be >= 0")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if j_max is None:
        j_max = min(r, lam - 1)
    if not 0 <= j_max <= lam - 1:
        raise ValueError(f"j_max = {j_max} lies outside 0..lam - 1 = 0..{lam - 1}")
    if basis is not None and basis.p != p:
        raise ValueError(f"the basis is over p = {basis.p}, not {p}")
    lo, hi = block(p, r)
    if lo == hi:
        return ValuationRow(r=r, lam=lam, entries={})
    if basis is None:
        basis = KatzBasis(r, build_system(p, lam))
    # collect_statuses reads components 0..j_max only.
    system, solutions = basis.solutions(r, lam, j_max + 1)
    entries = collect_statuses(system, solutions, j_max, r)
    return ValuationRow(r=r, lam=lam, entries=entries)
