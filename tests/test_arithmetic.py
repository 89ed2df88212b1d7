"""Tests for valuations of residues and truncated q-expansion arithmetic."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import padic_val
from katzrates import arithmetic
from katzrates.arithmetic import PRIME_BOUND, QSeries, RingSpec, _is_prime

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
    one_plus_q = qs(R53, [1, 1], 3)
    one_minus_q = qs(R53, [1, -1], 3)
    assert one_plus_q * one_minus_q == qs(R53, [1, 0, -1], 3)
    f = qs(R53, [3, 7, 11])
    assert f * QSeries.one(R53, 3) == f
    assert one_plus_q * one_plus_q == qs(R53, [1, 2, 1], 3)


def test_series_mul_mismatch_raises():
    with pytest.raises(ValueError):
        qs(R53, [1, 1]) * qs(R53, [1, 1, 1])
    with pytest.raises(ValueError):
        qs(R53, [1, 1]) * qs(RingSpec(7, 3), [1, 1])


def test_series_inverse_examples():
    one_plus_q = qs(R53, [1, 1], 3)
    assert one_plus_q.inverse() == qs(R53, [1, -1, 1], 3)
    assert QSeries.one(R53, 4).inverse() == QSeries.one(R53, 4)


def test_series_inverse_of_e_p_minus_1():
    from katzrates.classical import e_p_minus_1

    ring = RingSpec(5, 2)
    f = e_p_minus_1(ring, 5)
    assert f * f.inverse() == QSeries.one(ring, 5)


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        qs(R53, [5, 1]).inverse()
    with pytest.raises(ValueError, match="truncated at q\\^0"):
        QSeries(R53, ()).inverse()


def test_v_operator_examples():
    assert oracles.v_operator(qs(R53, [1, 1], 6)) == qs(R53, [1, 0, 0, 0, 0, 1])
    assert oracles.v_operator(QSeries.one(R53, 3)) == QSeries.one(R53, 3)
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
    f = qs(R53, coeffs)
    inv = f.inverse()
    one = QSeries.one(R53, len(coeffs))
    assert f * inv == one
    assert inv * f == one


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, 24), min_size=2, max_size=10),
    st.integers(1, 2),
)
def test_inverse_preserves_unit_plus_divisible_shape(tail, m):
    # If f = 1 + (terms divisible by p^m), so is its inverse.
    scale = 5**m
    f = qs(R53, [1] + [c * scale for c in tail])
    inv = f.inverse()
    assert inv.coeffs[0] == 1
    assert all(c % scale == 0 for c in inv.coeffs[1:])


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, R53.modulus - 1), min_size=1, max_size=10),
    st.integers(0, 2),
    st.integers(1, 4).filter(lambda u: u % 5 != 0),
)
def test_scalar_multiplication_shifts_valuation(coeffs, a, unit):
    f = qs(R53, coeffs)
    g = f.scaled(5**a * unit)
    for cf, cg in zip(f.coeffs, g.coeffs):
        # Both capped at e = 3.
        assert padic_val(cg, 5, 3) == min(padic_val(cf, 5, 3) + a, 3)


def test_reduce_to_lower_precision():
    f = qs(R53, [1, 30, 124])
    g = oracles.reduce(f, 1)
    assert g.ring == RingSpec(5, 1)
    assert g.coeffs == (1, 0, 4)
    with pytest.raises(ValueError):
        oracles.reduce(f, 4)


def test_series_pow():
    f = qs(R53, [1, 1], 4)
    assert f**0 == QSeries.one(R53, 4)
    assert f**3 == qs(R53, [1, 3, 3, 1])
    assert f**-1 == f.inverse()
