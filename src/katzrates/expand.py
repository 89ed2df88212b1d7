"""The partial Katz expansion isomorphism: psi takes a truncated q-expansion
to its coordinates over the basis blocks, phi realizes the expansion back as a
q-expansion (round-trip oracle).  Both work with the first K + 1 columns of
the basis chain, K at a time.  One routine, _peel, solves the basis system
for a batch of series, psi's one and a KatzBasis's family members alike:
it holds the chain's rows in the first K columns, about KN entries, and
never the basis matrix."""

from __future__ import annotations

from itertools import islice
from math import isqrt

from .arithmetic import (
    QSeries,
    RingSpec,
    _Record,
    _set,
    combine,
    forward_substitute,
    inverse,
    mul_low,
    prepare,
    prepare_rows,
)
from .basis import columns, dim_mk, period


class PrecisionMismatch(ValueError):
    """Input truncation or ring precision does not match (p, n, C)."""


class KatzTuple(_Record):
    """A Katz expansion for (p, n) over `ring`: x is the full solution
    vector, indexed by column j; the i-th term's coordinates over the basis
    forms g_{i,j} are x[lo:hi], (lo, hi) = basis.block(p, i)."""

    __slots__ = _fields = ("p", "n", "ring", "x")

    def __init__(self, p: int, n: int, ring: RingSpec, x: tuple[int, ...]):
        _set(self, "p", p)
        _set(self, "n", n)
        _set(self, "ring", ring)
        _set(self, "x", x)


def _chunk(p: int, N: int, B: int) -> int:
    """K, the number of coordinates `_peel` solves and `phi` folds per chunk,
    for a batch of B series of N coefficients: the multiple of
    P = period(p) nearest sqrt(N), at least P, raised by P while it is below
    N and the chain head at the next multiple holds at most 3NB entries.

    One series timed fastest at the multiple nearest sqrt(N): psi at
    (5, 144, 60) took 2.76 ms at K = 5 and 2.67 at K = 7, and at
    (13, 168, 30) 17.9 ms at K = 8 and 17.7 at K = 13 (least of 40); in
    another run, doubling K to 14 and 26 took them from 2.56 to 4.64 ms and
    from 17.0 to 20.4 ms.  A batch peeled in fewer chunks makes fewer member
    products and inverses, so K rises to the cap: the chain head holds
    m(2N - m - 1)/2 entries, m = min(K, N), and a pass the batch's NB once,
    so the peel holds at most 4NB.  The cap binds at the frontier, where K
    buys time with memory: with the batch held twice, K = 252 in place of
    126 took run_sweep(29, 870) from 79 s to 68 s and its peak RSS from 69
    to 90 MB.

    The chunks rely on column cK + t of the chain being S_K^c S_t, that is
    on the exponents e_j of column j having e_{cK+t} = c e_K + e_t.
    `basis.columns` checked, before any product, that e_0 = 0 and
    e_j = e_{j-P} + e_P for j > P.  By induction on j,
    e_j = (j // P) e_P + e_{j % P} for every j.  K = aP, so e_K = a e_P and
    e_{cK+t} = (ca + t // P) e_P + e_{t % P} = c e_K + e_t."""
    P = period(p)
    c = isqrt(N) // P  # cP <= sqrt(N) < (c + 1)P
    if 4 * N > ((2 * c + 1) * P) ** 2:
        c += 1
    K = max(c, 1) * P
    while K < N:
        m = min(K + P, N)
        if m * (2 * N - m - 1) > 6 * N * B:
            break
        K += P
    return K


def _peel(ring: RingSpec, chain, rows) -> list[list[int]]:
    """The rows of X in M X = F over `ring`, one list over the members per
    coordinate: M the N x N basis matrix with columns `chain`, F a batch of
    B series (N coefficients each) as its columns, given by its N `rows`, a
    list that the peel empties: each pass frees a row once it has solved it,
    and the peel holds the batch once.

    Each member is f = sum_c S_K^c Q_c with Q_c = sum_{t<K} x_{cK+t} S_t
    (`_chunk`), so its coordinates are peeled K at a time: with g_0 = f,
    those of chunk c and the residual h = (g_c - Q_c) / q^K solve, in one
    forward substitution packed across the batch, the live x live system
    whose top K x K block is that of S_0..S_{K-1}, whose rows r >= K hold
    S_0[r]..S_{K-1}[r] and the identity; then g_{c+1} = h U, U the inverse
    of S_K / q^K.  That is the chain's columns up to K, one inverse, one
    pass and B products per chunk after the first, and the chain's rows in
    its first K columns, about KN entries, are all that is held of the basis
    matrix.  With K >= N the batch is one chunk: all N columns, one pass,
    and no inverse or member product."""
    N, mod = len(rows), ring.modulus
    K = _chunk(ring.p, N, len(rows[0]))
    S = list(islice(chain, K + 1))
    m = min(K, N)
    # Row r of the top holds r entries, every row past it m.
    lower = [row[:r] for r, row in enumerate(zip(*S[:m]))]
    if K < N:
        U = prepare(inverse(S[K][K:], mod), mod)
    del S
    X = []
    while True:
        rows = forward_substitute(lower, _drain(rows), mod, m)
        X += rows[:K]
        if len(rows) <= K:
            return X
        members = [*zip(*rows[K:])]
        del rows  # each member's residual is freed once multiplied
        for b, h in enumerate(members):
            members[b] = mul_low(h, U, mod)
        rows = [*zip(*members)]
        del members  # so that the next pass frees each row it solves


def _drain(rows: list):
    """The items of `rows` in order, each taken out of the list as it is
    yielded."""
    rows.reverse()
    while rows:
        yield rows.pop()


def psi(p: int, n: int, C: int, f: QSeries) -> KatzTuple:
    """Katz expansion of f mod (q^N, p^C), N = d_{n(p-1)}, as an (n+1)-tuple:
    the one-member batch of `_peel`."""
    ring = RingSpec(p, C)
    chain = columns(p, n, ring)  # checks n; no product until a column is taken
    N = dim_mk(n * (p - 1))
    if f.ring != ring:
        raise PrecisionMismatch(f"series ring {f.ring} does not match Z/{p}^{C}")
    if len(f.coeffs) != N:
        raise PrecisionMismatch(
            f"series truncation {len(f.coeffs)} does not match required N = "
            f"d_{{{n}({p}-1)}} = {N}"
        )
    x = [c for (c,) in _peel(ring, chain, [*zip(f.coeffs)])]
    return KatzTuple(p=p, n=n, ring=ring, x=tuple(x))


def phi(p: int, n: int, C: int, t: KatzTuple) -> QSeries:
    """Realize a Katz tuple as sum_i b_i / E_{p-1}^i mod (q^N, p^C): the
    product M.x of the basis matrix with the coordinates, by Horner's rule
    over the chunks of `psi`, f = Q_0 + S_K (Q_1 + S_K (...)), each Q_c one
    `combine` of S_0..S_{K-1}, prepared once, and S_K times the rest added
    from slot K on (S_K = q^K V): K chain products and one product per chunk
    after the first."""
    if (t.p, t.n) != (p, n):
        raise PrecisionMismatch(f"tuple for (p, n) = {(t.p, t.n)}, not {(p, n)}")
    ring = RingSpec(p, C)
    if t.ring != ring:
        raise PrecisionMismatch(f"tuple ring {t.ring} does not match Z/{p}^{C}")
    chain = columns(p, n, ring)  # checks n; no product until a column is taken
    N = dim_mk(n * (p - 1))
    if len(t.x) != N:
        raise ValueError(f"tuple has {len(t.x)} coordinates, not N = {N}")
    mod = ring.modulus
    x = [c % mod for c in t.x]
    K = _chunk(p, N, 1)
    S = list(islice(chain, K + 1))
    rows = prepare_rows(S[:K], mod)
    if K < N:
        V = prepare(S[K][K:], mod)
    h = None
    for c in reversed(range(0, N, K)):
        g = combine(x[c : c + K], rows, N - c, mod)
        if h is not None:
            g[K:] = [(a + b) % mod for a, b in zip(g[K:], mul_low(h, V, mod))]
        h = g
    return QSeries(ring, tuple(h))
