"""Exact arithmetic in Z/p^e and on truncated q-expansions over Z/p^e."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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


@dataclass(frozen=True)
class RingSpec:
    """The coefficient ring Z/p^e for a prime p >= 5 and precision exponent e >= 1."""

    p: int
    e: int

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise ValueError(f"p must be below {PRIME_BOUND}, got {self.p}")
        if self.p < 5 or not _is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")
        if self.e < 1:
            raise ValueError(f"e must be >= 1, got {self.e}")

    @cached_property
    def modulus(self) -> int:
        return self.p**self.e


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


def _canonical(coeffs, mod: int):
    """`coeffs`, after checking they lie in [0, mod): a packed slot has no room
    for anything else, and an out-of-range value would overflow silently."""
    if min(coeffs) < 0 or max(coeffs) >= mod:
        raise ValueError(f"coefficients must lie in [0, {mod}) for a packed product")
    return coeffs


@dataclass(frozen=True)
class QSeries:
    """A q-expansion over Z/p^e truncated at q^N (coefficients of q^0..q^{N-1}),
    stored as canonical integer representatives in [0, p^e)."""

    ring: RingSpec
    coeffs: tuple[int, ...]

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

    @classmethod
    def one(cls, ring: RingSpec, N: int) -> "QSeries":
        return cls.from_coeffs(ring, [1], N)

    @property
    def n_trunc(self) -> int:
        return len(self.coeffs)

    def _check(self, other: "QSeries"):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                f"truncation mismatch: {len(self.coeffs)} vs {len(other.coeffs)}"
            )

    def __add__(self, other):
        self._check(other)
        mod = self.ring.modulus
        return QSeries(
            self.ring, tuple((a + b) % mod for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        mod = self.ring.modulus
        return QSeries(
            self.ring, tuple((a - b) % mod for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        """Product mod (q^N, p^e) by two-point Kronecker substitution
        (`ks2_mul`).  Both operands must be canonical.  Leading zero
        coefficients (a factor q^s) are shifted out first, so the product only
        spans the N - s_a - s_b slots that survive truncation."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        mod = self.ring.modulus
        if n == 0:
            return self
        square = b == a
        _canonical(a, mod)
        if not square:
            _canonical(b, mod)
        sa = next((i for i, c in enumerate(a) if c), n)
        sb = sa if square else next((i for i, c in enumerate(b) if c), n)
        m = n - sa - sb
        if m <= 0:
            return QSeries(self.ring, (0,) * n)
        width = slot_bytes(mod, n)
        x = split_pack(a[sa : sa + m], width)
        y = None if square else split_pack(b[sb : sb + m], width)
        return QSeries(self.ring, (0,) * (n - m) + tuple(ks2_mul(x, y, width, m, mod)))

    def scaled(self, c: int) -> "QSeries":
        mod = self.ring.modulus
        return QSeries(self.ring, tuple(a * c % mod for a in self.coeffs))

    def __pow__(self, exponent: int) -> "QSeries":
        """self^exponent by repeated squaring, never multiplying by 1."""
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return QSeries.one(self.ring, len(self.coeffs)) if result is None else result

    def inverse(self) -> "QSeries":
        """Multiplicative inverse mod (q^N, p^e); requires a unit constant term."""
        a = self.coeffs
        ring = self.ring
        if not a:
            raise ValueError("cannot invert a series truncated at q^0")
        if a[0] % ring.p == 0:
            raise ValueError("constant term is not a unit mod p")
        mod = ring.modulus
        n = len(a)
        a0inv = pow(a[0], -1, mod)
        b = [a0inv] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for i in range(1, k + 1):
                if a[i]:
                    s += a[i] * b[k - i]
            b[k] = (-a0inv * s) % mod
        return QSeries(ring, tuple(b))

    def truncate(self, N2: int) -> "QSeries":
        if N2 > len(self.coeffs):
            raise ValueError("cannot extend truncation")
        return QSeries(self.ring, self.coeffs[:N2])

