"""Tests for valuations of residues and the series functions of arithmetic
(products and inverses on coefficient sequences)."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import padic_val
from katzrates import arithmetic
from katzrates.arithmetic import (
    PRIME_BOUND,
    QSeries,
    RingSpec,
    _is_prime,
    inverse,
    mul_low,
    prepare,
    unit_inverses,
)

R53 = RingSpec(5, 3)


def qs(ring, coeffs, N=None):
    return QSeries.from_coeffs(ring, coeffs, N)


def test_ringspec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RingSpec(4, 2)
    with pytest.raises(ValueError):
        RingSpec(3, 2)  # p >= 5 only
    with pytest.raises(ValueError):
        RingSpec(5, 0)


def test_is_prime_matches_sympy_below_10_5():
    assert [n for n in range(10**5) if _is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize(
    "n, fooled_by",
    [
        (3215031751, 4),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, 9),  # ... to 2..23
        (318665857834031151167461, 12),  # ... to 2..37: only 41 catches it
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(monkeypatch, n, fooled_by):
    assert not sympy.isprime(n) and not _is_prime(n)
    # The bases before the one that catches n all pass it.
    monkeypatch.setattr(arithmetic, "PRIME_BASES", arithmetic.PRIME_BASES[:fooled_by])
    assert _is_prime(n)


def test_ringspec_rejects_p_at_the_primality_bound():
    # Miller-Rabin on the first 13 prime bases is exact only below the bound.
    for p in (PRIME_BOUND, 10**30 + 57):
        with pytest.raises(ValueError, match=f"below {PRIME_BOUND}"):
            RingSpec(p, 1)
    with pytest.raises(ValueError, match="prime"):
        RingSpec(PRIME_BOUND - 1, 1)  # even
    assert RingSpec(2**61 - 1, 1).modulus == 2**61 - 1


def test_residue_val_examples():
    assert padic_val(10, 5, 3) == 1
    assert padic_val(0, 5, 3) == 3  # at least e
    assert padic_val(7, 5, 3) == 0
    assert padic_val(-10, 5, 3) == 1  # residue 115


def test_residue_val_caps_at_e():
    # 125 = 5^3 is indistinguishable from 0 mod 5^3.
    assert padic_val(125, 5, 3) == 3
    assert padic_val(-250, 5, 3) == 3
    assert padic_val(5**3 * 7 + 25, 5, 3) == 2


def test_series_val_examples():
    assert oracles.val(qs(R53, [5, 25])) == 1
    assert oracles.val(qs(R53, [0, 0, 0])) == 3  # at least e
    assert oracles.val(qs(R53, [1, 5])) == 0


def test_series_mul_examples():
    mod = R53.modulus
    one_plus_q, one_minus_q = [1, 1, 0], [1, mod - 1, 0]
    assert mul_low(one_plus_q, prepare(one_minus_q, mod), mod) == [1, 0, mod - 1]
    assert mul_low([3, 7, 11], prepare([1, 0, 0], mod), mod) == [3, 7, 11]
    assert mul_low(one_plus_q, None, mod) == [1, 2, 1]


def test_series_inverse_examples():
    mod = R53.modulus
    assert inverse([1, 1, 0], mod) == [1, mod - 1, 1]
    assert inverse([1, 0, 0, 0], mod) == [1, 0, 0, 0]


def test_series_inverse_of_e_p_minus_1():
    from katzrates.classical import level_one

    ring = RingSpec(5, 2)
    f = level_one(ring, 5)[2]
    assert oracles.times(f, inverse(f, ring.modulus), ring.modulus) == [1, 0, 0, 0, 0]


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError, match="not a unit"):
        inverse([5, 1], R53.modulus)
    with pytest.raises(ValueError, match="truncated at q\\^0"):
        inverse([], R53.modulus)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_unit_inverses_invert_each_unit(p, e, data):
    # One inversion for the batch, against one pow per value; values outside
    # [0, p^e), negative ones among them, and an empty batch are allowed.
    mod = p**e
    unit = st.integers(-mod, 3 * mod).filter(lambda u: u % p)
    units = data.draw(st.lists(unit, max_size=12))
    assert unit_inverses(units, mod) == [pow(u, -1, mod) for u in units]


def test_unit_inverses_refuse_a_non_unit():
    with pytest.raises(ValueError):
        unit_inverses([2, 3, 25, 4], R53.modulus)
    with pytest.raises(ValueError):
        unit_inverses([0], R53.modulus)


def test_v_operator_examples():
    assert oracles.v_operator(qs(R53, [1, 1], 6)) == qs(R53, [1, 0, 0, 0, 0, 1])
    assert oracles.v_operator(qs(R53, [1], 3)) == qs(R53, [1], 3)
    f = qs(R53, [0, 1, 1], 11)
    out = oracles.v_operator(f)
    assert out.coeffs[5] == 1 and out.coeffs[10] == 1
    assert sum(out.coeffs) == 2


def test_v_operator_preserves_valuation():
    # N large enough that no nonzero exponent is dropped.
    f = qs(R53, [5, 10, 25], 11)
    assert oracles.val(oracles.v_operator(f)) == oracles.val(f)


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, R53.modulus - 1), min_size=1, max_size=12).filter(
        lambda c: c[0] % 5 != 0
    )
)
def test_inverse_is_two_sided(coeffs):
    mod = R53.modulus
    inv = inverse(coeffs, mod)
    one = [1] + [0] * (len(coeffs) - 1)
    assert oracles.times(coeffs, inv, mod) == one
    assert oracles.times(inv, coeffs, mod) == one


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, 24), min_size=2, max_size=10),
    st.integers(1, 2),
)
def test_inverse_preserves_unit_plus_divisible_shape(tail, m):
    # If f = 1 + (terms divisible by p^m), so is its inverse.
    scale = 5**m
    inv = inverse([1] + [c * scale % R53.modulus for c in tail], R53.modulus)
    assert inv[0] == 1
    assert all(c % scale == 0 for c in inv[1:])


def test_reduce_to_lower_precision():
    f = qs(R53, [1, 30, 124])
    g = oracles.reduce(f, 1)
    assert g.ring == RingSpec(5, 1)
    assert g.coeffs == (1, 0, 4)
    with pytest.raises(ValueError):
        oracles.reduce(f, 4)


def test_series_pow():
    # The chain's powers (basis._powers), each made once from those below.
    from katzrates.basis import _powers

    mod = R53.modulus
    f = [1, 1, 0, 0]
    power = _powers(f, mod)
    assert power(1) == f
    assert power(3) == [1, 3, 3, 1]
    assert _powers(inverse(f, mod), mod)(2) == inverse(power(2), mod)
