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
        """Product mod (q^N, p^e) by Kronecker substitution: each operand is
        packed into one integer, one big-integer product is taken, and the low
        N slots are unpacked.  Both operands must be canonical.  Leading zero
        coefficients (a factor q^s) are shifted out first, so the product only
        spans the N - s_a - s_b slots that survive truncation."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        mod = self.ring.modulus
        if n == 0:
            return self
        width = slot_bytes(mod, n)
        bits = 8 * width
        square = b == a
        x = pack(_canonical(a, mod), width)
        y = x if square else pack(_canonical(b, mod), width)
        if not x or not y:
            return QSeries(self.ring, (0,) * n)
        sx = ((x & -x).bit_length() - 1) // bits
        sy = ((y & -y).bit_length() - 1) // bits
        m = n - sx - sy
        if m <= 0:
            return QSeries(self.ring, (0,) * n)
        mask = (1 << bits * m) - 1
        x = (x >> bits * sx) & mask
        prod = x * x if square else x * ((y >> bits * sy) & mask)
        return QSeries(self.ring, (0,) * (n - m) + tuple(unpack(prod, width, m, mod)))

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


def v_operator(f: QSeries) -> QSeries:
    """The Frobenius V on q-expansions: q -> q^p, truncated at the input's q^N."""
    p = f.ring.p
    n = len(f.coeffs)
    out = [0] * n
    for k in range(n):
        idx = k * p
        if idx >= n:
            break
        out[idx] = f.coeffs[k]
    return QSeries(f.ring, tuple(out))
