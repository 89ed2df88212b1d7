"""The partial Katz expansion isomorphism: psi takes a truncated q-expansion
to its coordinates over the basis blocks, phi realizes the expansion back as a
q-expansion (round-trip oracle)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .arithmetic import QSeries, RingSpec, pack, slot_bytes, unpack
from .basis import BasisMatrix, basis_matrix, dim_mk


class PrecisionMismatch(ValueError):
    """Input truncation or ring precision does not match (p, n, C)."""


@dataclass(frozen=True)
class KatzComponent:
    """The i-th term of a partial Katz expansion: coordinates over the basis
    forms g_{i,j}, j running over `js`."""

    i: int
    js: tuple[int, ...]
    coords: tuple[int, ...]


@dataclass(frozen=True)
class KatzTuple:
    p: int
    n: int
    ring: RingSpec
    x: tuple[int, ...]  # full solution vector, indexed by column j
    components: tuple[KatzComponent, ...]


def forward_substitute_many(matrix: BasisMatrix, rhss) -> list[list[int]]:
    """Katz coordinates of several q-coefficient vectors at once: solve
    M X = R for the unit-lower-triangular basis matrix M, the columns of R
    being `rhss`, division-free, exact mod p^C.  Row r of X, across all the
    right-hand sides, is one packed integer: row r of R less one big-integer
    combination of the earlier rows of X with the entries of row r of M.
    Every slot starts at N p^2C, a multiple of p^C above any such
    combination, so no slot goes negative.  Returns one coordinate vector per
    right-hand side."""
    mod = matrix.ring.modulus
    count = len(rhss)
    width = slot_bytes(mod, matrix.N + 1)
    offset = pack([matrix.N * mod * mod] * count, width)
    X, packed = [], []
    for r, row in enumerate(zip(*matrix.columns)):
        acc = pack([c[r] % mod for c in rhss], width) + offset
        acc -= sum(map(mul, row[:r], packed))
        X.append(unpack(acc, width, count, mod))
        packed.append(pack(X[-1], width))
    return [list(x) for x in zip(*X)]


def _group(matrix: BasisMatrix, x) -> tuple[KatzComponent, ...]:
    return tuple(
        KatzComponent(i=i, js=tuple(range(lo, hi)), coords=tuple(x[lo:hi]))
        for i, lo, hi in matrix.blocks
    )


def psi(p: int, n: int, C: int, f: QSeries) -> KatzTuple:
    """Katz expansion of f mod (q^N, p^C), N = d_{n(p-1)}, as an (n+1)-tuple."""
    matrix = basis_matrix(p, n, C)
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
    matrix = basis_matrix(p, n, C)
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


def required_truncation(p: int, n: int) -> int:
    return dim_mk(n * (p - 1))
