"""The partial Katz expansion isomorphism: psi takes a truncated q-expansion
to its coordinates over the basis blocks, phi realizes the expansion back as a
q-expansion (round-trip oracle)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .arithmetic import QSeries, RingSpec, pack, slot_bytes, unpack
from .basis import BasisMatrix, build_matrix


class PrecisionMismatch(ValueError):
    """Input truncation or ring precision does not match (p, n, C)."""


@dataclass(frozen=True)
class KatzComponent:
    """The i-th term of a partial Katz expansion: coordinates over the basis
    forms g_{i,j}, j running over basis.block(p, i)."""

    i: int
    coords: tuple[int, ...]


@dataclass(frozen=True)
class KatzTuple:
    p: int
    n: int
    ring: RingSpec
    x: tuple[int, ...]  # full solution vector, indexed by column j
    components: tuple[KatzComponent, ...]


def forward_substitute(lower, rhs, mod: int, n: int) -> list[list[int]]:
    """The rows of X in L X = R mod `mod` for an n x n unit-lower-triangular
    L, division-free: `lower` yields the strictly lower part of each row of L
    (r entries in [0, mod) on row r), `rhs` the same row of R.  Rows of R may
    stop short, the rest zero, if none is shorter than one before it; each
    row of X then stops where its row of R does.  Row r of X is row r of R
    less one packed combination of the earlier rows of X with the entries of
    row r of L, each slot starting at n mod^2, a multiple of mod above it."""
    width = slot_bytes(mod, n + 1)
    offset = n * mod * mod
    X, packed = [], []
    for below, row in zip(lower, rhs):
        acc = pack([c % mod + offset for c in row], width)
        acc -= sum(map(mul, below, packed))
        X.append(unpack(acc, width, len(row), mod))
        packed.append(pack(X[-1], width))
    return X


def forward_substitute_many(matrix: BasisMatrix, rhss) -> list[list[int]]:
    """Katz coordinates of several q-coefficient vectors at once, one per
    vector in `rhss`: the columns of X in M X = R, R having columns `rhss`."""
    lower = (row[:r] for r, row in enumerate(zip(*matrix.columns)))
    X = forward_substitute(lower, zip(*rhss), matrix.ring.modulus, matrix.N)
    return [list(x) for x in zip(*X)]


def _group(matrix: BasisMatrix, x) -> tuple[KatzComponent, ...]:
    return tuple(KatzComponent(i, tuple(x[lo:hi])) for i, lo, hi in matrix.blocks)


def psi(p: int, n: int, C: int, f: QSeries) -> KatzTuple:
    """Katz expansion of f mod (q^N, p^C), N = d_{n(p-1)}, as an (n+1)-tuple."""
    matrix = build_matrix(p, n, RingSpec(p, C))
    if f.ring != matrix.ring:
        raise PrecisionMismatch(
            f"series ring {f.ring} does not match Z/{p}^{C}"
        )
    if f.n_trunc != matrix.N:
        raise PrecisionMismatch(
            f"series truncation {f.n_trunc} does not match required N = "
            f"d_{{{n}({p}-1)}} = {matrix.N}"
        )
    (x,) = forward_substitute_many(matrix, [f.coeffs])
    return KatzTuple(p=p, n=n, ring=matrix.ring, x=tuple(x), components=_group(matrix, x))


def phi(p: int, n: int, C: int, t: KatzTuple) -> QSeries:
    """Realize a Katz tuple as sum_i b_i / E_{p-1}^i mod (q^N, p^C): the
    product M.x of the basis matrix with the coordinates, taken as one packed
    linear combination of the columns."""
    matrix = build_matrix(p, n, RingSpec(p, C))
    if len(t.components) != n + 1:
        raise ValueError(f"expected {n + 1} components, got {len(t.components)}")
    mod = matrix.ring.modulus
    x = [0] * matrix.N
    for comp in t.components:
        _, lo, hi = matrix.blocks[comp.i]
        if len(comp.coords) != hi - lo:
            raise ValueError(f"component {comp.i} has wrong dimension")
        x[lo:hi] = [c % mod for c in comp.coords]
    width = slot_bytes(mod, matrix.N)
    acc = sum(map(mul, x, [pack(col, width) for col in matrix.columns]))
    return QSeries(matrix.ring, tuple(unpack(acc, width, matrix.N, mod)))

