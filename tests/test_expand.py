"""Tests for the partial Katz expansion maps psi and phi."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import basis_matrix, dim_mk
from katzrates.expand import (
    KatzComponent,
    KatzTuple,
    PrecisionMismatch,
    phi,
    psi,
    required_truncation,
)


def tuple_from_coords(p, n, C, x):
    """The Katz tuple whose full coordinate vector is x, split into blocks."""
    m = basis_matrix(p, n, C)
    components = tuple(
        KatzComponent(i=i, js=tuple(range(lo, hi)), coords=tuple(x[lo:hi]))
        for i, lo, hi in m.blocks
    )
    return KatzTuple(p=p, n=n, ring=m.ring, x=tuple(x), components=components)


def random_series(rng, p, C, N):
    ring = RingSpec(p, C)
    return QSeries.from_coeffs(ring, [rng.randrange(ring.modulus) for _ in range(N)])


def test_psi_of_constant():
    t = psi(5, 3, 2, QSeries.from_coeffs(RingSpec(5, 2), [1], dim_mk(12)))
    assert t.components[0].coords == (1,)
    assert all(not any(c.coords) for c in t.components[1:])


def test_psi_picks_out_matrix_column():
    # Feeding column j of the matrix back in must return unit coordinate j.
    p, n, C = 5, 3, 4
    m = basis_matrix(p, n, C)
    f = QSeries(m.ring, m.columns[1])  # g_{3,1} E_{p-1}^{-3} = Delta E^{-3}
    t = psi(p, n, C, f)
    assert t.x == tuple(1 if j == 1 else 0 for j in range(m.N))
    assert t.components[3].coords == (1,)


def test_phi_of_unit_tuple_is_column():
    p, n, C = 7, 4, 3
    m = basis_matrix(p, n, C)
    for j in range(m.N):
        x = [1 if jj == j else 0 for jj in range(m.N)]
        t = tuple_from_coords(p, n, C, x)
        assert phi(p, n, C, t).coeffs == m.columns[j]


def test_phi_reduces_coordinates():
    # phi is M.x with x read mod p^C, whatever representatives it is given.
    rng = random.Random(5)
    p, n, C = 7, 6, 3
    mod = p**C
    x = [rng.randrange(mod) for _ in range(required_truncation(p, n))]
    t = tuple_from_coords(p, n, C, x)
    for shift in (-3 * mod, 2 * mod):
        shifted = replace(
            t,
            components=tuple(
                replace(comp, coords=tuple(c + shift for c in comp.coords))
                for comp in t.components
            ),
        )
        assert phi(p, n, C, shifted) == phi(p, n, C, t)


def test_phi_of_trivial_tuple_is_one():
    p, n, C = 5, 3, 3
    N = required_truncation(p, n)
    t = tuple_from_coords(p, n, C, [1] + [0] * (N - 1))
    assert phi(p, n, C, t) == QSeries.one(RingSpec(p, C), N)


def test_round_trip_random():
    rng = random.Random(42)
    for p in (5, 7):
        for _ in range(25):
            n = rng.randrange(1, 13)
            C = rng.randrange(1, 9)
            N = required_truncation(p, n)
            f = random_series(rng, p, C, N)
            t = psi(p, n, C, f)
            assert phi(p, n, C, t) == f


def test_psi_phi_inverse_both_ways():
    rng = random.Random(3)
    p, n, C = 5, 6, 4
    N = required_truncation(p, n)
    x = [rng.randrange(5**C) for _ in range(N)]
    t = tuple_from_coords(p, n, C, x)
    assert psi(p, n, C, phi(p, n, C, t)).x == t.x


def test_psi_linearity():
    rng = random.Random(9)
    p, n, C = 7, 5, 5
    N = required_truncation(p, n)
    mod = 7**C
    f = random_series(rng, p, C, N)
    g = random_series(rng, p, C, N)
    alpha = rng.randrange(mod)
    lhs = psi(p, n, C, f.scaled(alpha) + g)
    tf, tg = psi(p, n, C, f), psi(p, n, C, g)
    assert lhs.x == tuple((alpha * a + b) % mod for a, b in zip(tf.x, tg.x))


def test_precision_stability():
    rng = random.Random(11)
    p, n = 5, 6
    N = required_truncation(p, n)
    f_hi = random_series(rng, p, 8, N)
    hi = psi(p, n, 8, f_hi)
    for C in (1, 3, 5):
        lo = psi(p, n, C, f_hi.reduce(C))
        assert lo.x == tuple(c % 5**C for c in hi.x)


def test_psi_rejects_mismatched_input():
    with pytest.raises(PrecisionMismatch):
        psi(5, 3, 2, QSeries.from_coeffs(RingSpec(5, 2), [1, 0, 0]))  # wrong N
    with pytest.raises(PrecisionMismatch):
        psi(5, 3, 2, QSeries.from_coeffs(RingSpec(5, 3), [1], dim_mk(12)))  # wrong e


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5**3 - 1), min_size=2, max_size=2))
def test_round_trip_hypothesis_small(coeffs):
    p, n, C = 5, 3, 3
    f = QSeries.from_coeffs(RingSpec(p, C), coeffs, required_truncation(p, n))
    assert phi(p, n, C, psi(p, n, C, f)) == f
