"""Exact arithmetic in Z/p^e and on truncated q-expansions over Z/p^e.

A series is its coefficient sequence: every truncated product goes through
`prepare`/`mul_low` and every inverse through `inverse`, and `QSeries` is the
record that carries a series with its ring."""

from __future__ import annotations

from math import gcd
from operator import mul


def _is_int(x) -> bool:
    """An int that is not a bool, as JSON input must give for an integer."""
    return isinstance(x, int) and not isinstance(x, bool)


# Miller-Rabin on the first 13 primes as bases decides primality exactly below
# this bound: the least strong pseudoprime to all of them is
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on PRIME_BASES; exact for n below
    PRIME_BOUND only."""
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Writes a field of a frozen record, whose own __setattr__ refuses.
_set = object.__setattr__


class _Record:
    """Base of the package's records, each a class with __slots__ and an
    explicit __init__: each `katzrates` command is a fresh process, which a
    frozen dataclass would cost the import of `inspect` (with `ast`, `dis`
    and `tokenize`) and about a millisecond per class to build.  A record
    lists its fields, in order, in `_fields`;
    it compares and hashes by their values, names them in its repr, and
    refuses assignment (its __init__ writes with `_set`)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


class RingSpec(_Record):
    """The coefficient ring Z/p^e for a prime p >= 5 and precision exponent e >= 1."""

    _fields = ("p", "e")
    __slots__ = (*_fields, "_modulus")

    def __init__(self, p: int, e: int):
        if p >= PRIME_BOUND:
            raise ValueError(f"p must be below {PRIME_BOUND}, got {p}")
        if p < 5 or not _is_prime(p):
            raise ValueError(f"p must be a prime >= 5, got {p}")
        if e < 1:
            raise ValueError(f"e must be >= 1, got {e}")
        _set(self, "p", p)
        _set(self, "e", e)

    @property
    def modulus(self) -> int:
        """p^e, computed on first use: a ring built only to check p, or at a
        precision never used, does not make it."""
        try:
            return self._modulus
        except AttributeError:
            _set(self, "_modulus", self.p**self.e)
            return self._modulus


def slot_bytes(mod: int, terms: int) -> int:
    """Byte width of a Kronecker slot that holds a sum of `terms` products of
    residues in [0, mod) without carrying into the next slot."""
    return (2 * (mod - 1).bit_length() + terms.bit_length() + 7) // 8


def pack(values, width: int) -> int:
    """The integer sum_i values[i] * 256^(width*i); values lie in [0, 256^width)."""
    data = b"".join([v.to_bytes(width, "little") for v in values])
    return int.from_bytes(data, "little")


def unpack(x: int, width: int, count: int, mod: int) -> list[int]:
    """The low `count` slots of a packed nonnegative integer, each reduced
    mod `mod`."""
    buf = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return [
        int.from_bytes(buf[i : i + width], "little") % mod
        for i in range(0, width * count, width)
    ]


def _half_bytes(width: int) -> int:
    """Byte width of a slot of a `split_pack` half: `width` rounded up to an
    even count, so that its 2b bits split evenly at the evaluation point 2^b."""
    return width + width % 2


def split_pack(values, width: int) -> tuple[int, int]:
    """The even- and odd-indexed `values`, each packed at `_half_bytes(width)`."""
    half = _half_bytes(width)
    return pack(values[0::2], half), pack(values[1::2], half)


def split_low(x: tuple[int, int], width: int, count: int) -> tuple[int, int]:
    """The `split_pack` halves of the first `count` values of the halves `x`."""
    bits = 8 * _half_bytes(width)
    even, odd = x
    return (
        even & ((1 << bits * ((count + 1) // 2)) - 1),
        odd & ((1 << bits * (count // 2)) - 1),
    )


def ks2_mul(
    x: tuple[int, int], y: tuple[int, int] | None, width: int, count: int, mod: int
) -> list[int]:
    """The first `count` coefficients, reduced mod `mod`, of the product of
    the polynomials whose `split_pack` halves are `x` and `y` (`y` None
    squares `x`), by two-point Kronecker substitution (Harvey, J. Symbolic
    Comput. 44, 2009).

    Each half packs its values in slots of 2b bits, 2b = 8 * `_half_bytes`,
    so a polynomial E(t^2) + t O(t^2) evaluated at t = +-2^b is E +- (O << b).
    Its two products h+ and h-, each of half the size of a one-point product,
    give the even coefficients of the product as (h+ + h-) / 2 and the odd
    ones as (h+ - h-) / 2^(b+1), again in slots of 2b bits.  `width` must
    hold every coefficient of the product (`slot_bytes`).
    """
    half = _half_bytes(width)
    b = 4 * half
    xe, xo = x
    xp, xm = xe + (xo << b), xe - (xo << b)
    if y is None:
        hp, hm = xp * xp, xm * xm
    else:
        ye, yo = y
        hp, hm = xp * (ye + (yo << b)), xm * (ye - (yo << b))
    out = [0] * count
    out[0::2] = unpack((hp + hm) >> 1, half, (count + 1) // 2, mod)
    out[1::2] = unpack((hp - hm) >> (b + 1), half, count // 2, mod)
    return out


def prepare(values, mod: int):
    """The residues `values` in [0, mod) as a factor for `mul_low`, packed
    once: a low product's coefficient is a sum of at most len(values)
    products, which its slots hold (`slot_bytes`).  A value outside [0, mod)
    would overflow its slot silently, so it is refused."""
    if values and (min(values) < 0 or max(values) >= mod):
        raise ValueError(f"coefficients must lie in [0, {mod}) for a packed product")
    width = slot_bytes(mod, len(values))
    return width, split_pack(values, width)


def mul_low(xs, factor, mod: int) -> list[int]:
    """The first len(xs) coefficients, reduced mod `mod`, of the product of
    the residues `xs` with a `prepare`d factor (None squares `xs`), by
    `ks2_mul` on the factor's halves cut to len(xs) values."""
    count = len(xs)
    if factor is None:
        width = slot_bytes(mod, count)
        return ks2_mul(split_pack(xs, width), None, width, count, mod)
    width, halves = factor
    y = split_low(halves, width, count)
    return ks2_mul(split_pack(xs, width), y, width, count, mod)


def inverse(values, mod: int) -> list[int]:
    """The first len(values) coefficients of the inverse of the series
    `values` mod p^e = `mod`, one coefficient from the earlier ones; the
    constant term must be a unit."""
    n = len(values)
    if not n:
        raise ValueError("cannot invert a series truncated at q^0")
    if gcd(values[0], mod) != 1:
        raise ValueError("constant term is not a unit mod p")
    a0inv = pow(values[0], -1, mod)
    b = [a0inv] + [0] * (n - 1)
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            if values[i]:
                s += values[i] * b[k - i]
        b[k] = (-a0inv * s) % mod
    return b


def unit_inverses(values, mod: int) -> list[int]:
    """The inverses mod `mod` of the units `values`, with one modular
    inversion (Montgomery's simultaneous inversion, Math. Comp. 48, 1987):
    u_i^-1 is the product of the values before u_i times the inverse of the
    product of the values up to u_i, walked back from the inverse of the
    product of all.  A value that is not a unit makes that product a
    non-unit, which pow refuses (ValueError)."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % mod
    inv = pow(acc, -1, mod)
    for i in range(len(values) - 1, -1, -1):
        prefix[i], inv = prefix[i] * inv % mod, inv * values[i] % mod
    return prefix


def prepare_rows(rows, mod: int):
    """The rows of residues in [0, mod) as fixed operands of `combine`, each
    packed once: a slot holds a sum of len(rows) products.  A tuple, so that
    a record holding it stays hashable."""
    width = slot_bytes(mod, len(rows))
    return width, tuple([pack(row, width) for row in rows])


def combine(coeffs, prepared, count: int, mod: int) -> list[int]:
    """The first `count` entries of sum_i coeffs[i] * rows[i] mod `mod`, for
    rows `prepared` by `prepare_rows` at a modulus m and coefficients in
    [0, m): one packed combination, read off its slots.  `mod` may divide m,
    as a reduced system combines the columns prepared at its build's."""
    width, packs = prepared
    return unpack(sum(map(mul, coeffs, packs)), width, count, mod)


def forward_substitute(lower, rhs, mod: int, n: int) -> list[list[int]]:
    """The rows of X in L X = R mod `mod` for a unit-lower-triangular L whose
    strictly lower entries lie in its first n columns, division-free: `lower`
    yields the strictly lower part of each row r of L cut to min(r, n)
    entries in [0, mod), `rhs` the same row of R.  Rows of R may stop short,
    the rest zero, if none is shorter than one before it; each row of X then
    stops where its row of R does.  Row r of X is row r of R less one packed
    combination of the earlier rows of X with the entries of row r of L,
    each slot starting at n mod^2, a multiple of mod above it; only the
    first n rows of X are read again, so only they are packed.

    A row of R that holds at most one value, as every row of the peel of one
    series does, is solved over plain residues, x_r = (R_r - sum_t
    L[r][t] x_t) mod `mod`, with no pack or unpack: no row before it holds
    more, so each packed earlier row is just its value."""
    width = slot_bytes(mod, n + 1)
    offset = n * mod * mod
    X, packed = [], []
    for below, row in zip(lower, rhs):
        if len(row) > 1:
            acc = pack([c % mod + offset for c in row], width)
            X.append(unpack(acc - sum(map(mul, below, packed)), width, len(row), mod))
        else:
            X.append([(c - sum(map(mul, below, packed))) % mod for c in row])
        if len(packed) < n:  # a row of at most one value packs to its sum
            packed.append(pack(X[-1], width) if len(row) > 1 else sum(X[-1]))
    return X


class QSeries(_Record):
    """A q-expansion over Z/p^e truncated at q^N (coefficients of q^0..q^{N-1}),
    stored as canonical integer representatives in [0, p^e).  A record with
    no arithmetic: series are multiplied and inverted on their coefficients
    by `prepare`/`mul_low` and `inverse`."""

    __slots__ = _fields = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs: tuple[int, ...]):
        _set(self, "ring", ring)
        _set(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, ring: RingSpec, coeffs, N: int | None = None) -> "QSeries":
        cs = list(coeffs)
        if N is not None:
            if len(cs) > N:
                cs = cs[:N]
            else:
                cs.extend([0] * (N - len(cs)))
        mod = ring.modulus
        return cls(ring, tuple(c % mod for c in cs))
