"""Tests for the Eisenstein ratio E*_k / V(E*_k)."""

import pytest

import oracles
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.classical import eisenstein_star
from katzrates.family import eis_ratio_by_s


def test_constant_term_is_one():
    f = eis_ratio_by_s(5, 1, 4, 10)
    assert f.coeffs[0] == 1


def test_low_coefficients_match_eisenstein_star():
    # V contributes only from q^p on.
    p, lam, N = 5, 4, 10
    ratio = eis_ratio_by_s(p, 1, lam, N)
    estar = eisenstein_star(p - 1, RingSpec(p, lam), N)
    assert ratio.coeffs[1:p] == estar.coeffs[1:p]


def test_ratio_valuation_tracks_weight_valuation():
    p, lam, N = 5, 5, 10
    for s, expect in [(1, 1), (2, 1), (5, 2)]:
        ratio = eis_ratio_by_s(p, s, lam, N)
        one = QSeries.one(RingSpec(p, lam), N)
        assert oracles.val(ratio - one) >= min(lam, expect)


def test_ratio_times_v_estar_is_estar():
    p, lam, N = 7, 4, 12
    ring = RingSpec(p, lam)
    estar = eisenstein_star(p - 1, ring, N)
    ratio = eis_ratio_by_s(p, 1, lam, N)
    assert ratio * oracles.v_operator(estar) == estar


def test_ratio_is_one_mod_p_cubed_at_deep_weight():
    # For w = (p+1)^k - 1 with nu(w) >= 3 (k = (p-1)p^2), the ratio is 1 mod p^3.
    for p in (5, 7):
        lam, N = 4, 8
        ratio = eis_ratio_by_s(p, p**2, lam, N)
        one = QSeries.one(RingSpec(p, lam), N)
        assert oracles.val(ratio - one) >= 3


def test_eis_ratio_weight_validation():
    # s indexes the weight s(p-1), so it must be positive.
    for s in (0, -1):
        with pytest.raises(ValueError):
            eis_ratio_by_s(5, s, 3, 5)


def test_eis_ratio_needs_a_truncation():
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        eis_ratio_by_s(5, 1, 3, 0)
