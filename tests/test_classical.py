"""Tests for the classical level-1 forms and the Eisenstein family members."""

from fractions import Fraction
from itertools import islice

import pytest
import sympy

import oracles
from oracles import padic_val, rational_mod, sigma
from katzrates import classical
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import columns, column_exponents
from katzrates.classical import level_one, sigma_star_rows, star_constants
from katzrates import solver as solver_module
from katzrates.solver import build_system, weight_list

R = RingSpec(5, 4)


def _sigma_star_table(p, m, N, mod):
    """sigma*_m(n) mod `mod` for 0 <= n < N: the sieve's rows at the one
    exponent m."""
    return [x for (x,) in sigma_star_rows(p, [m], N, mod)]


def test_sigma_examples():
    # With no excluded prime the table holds the plain divisor sums sigma_m.
    sig1 = _sigma_star_table(None, 1, 13, R.modulus)
    sig3 = _sigma_star_table(None, 3, 13, R.modulus)
    assert (sig1[6], sig1[12], sig3[1], sig3[2]) == (12, 28, 1, 9)
    assert sig3[10] == sigma(3, 10) % R.modulus  # 1 + 8 + 125 + 1000
    for m in (1, 3, 5):
        table = _sigma_star_table(None, m, 60, 10**30)
        assert table[1:] == [sigma(m, n) for n in range(1, 60)]


def test_sigma_star_examples():
    sig1 = _sigma_star_table(5, 1, 11, R.modulus)
    sig3 = _sigma_star_table(5, 3, 11, R.modulus)
    assert (sig3[5], sig1[6], sig3[10]) == (1, 12, 9)


def test_sigma_star_agrees_with_sigma_off_p():
    sig = _sigma_star_table(5, 3, 30, R.modulus)
    for n in range(1, 30):
        if n % 5:
            assert sig[n] == sigma(3, n) % R.modulus


def test_bernoulli_small_values():
    # The oracle keeps the convention B_1 = -1/2, which sympy >= 1.12 no
    # longer uses.
    assert oracles.bernoulli(0) == 1
    assert oracles.bernoulli(1) == Fraction(-1, 2)
    assert oracles.bernoulli(2) == Fraction(1, 6)
    assert oracles.bernoulli(12) == Fraction(-691, 2730)
    assert oracles.bernoulli(3) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
@pytest.mark.parametrize("size", ["1", "2", "p", "p+1", "60"])
def test_level_one_matches_trial_division(p, size):
    # E_4, E_6 and E_{p-1} from the one sieve against sigma_m(n) by trial
    # division and the constant -2(p-1)/B_{p-1} on sympy's B_{p-1}.
    N = {"1": 1, "2": 2, "p": p, "p+1": p + 1, "60": 60}[size]
    ring = RingSpec(p, 6)
    got = level_one(ring, N)
    assert tuple(map(tuple, got)) == oracles.level_one_trial(ring, N)
    assert all(len(f) == N for f in got)
    if p == 5:  # -2*4/B_4 = 240: E_{p-1} is E_4
        assert got[2] == got[0]


def test_von_staudt_clausen_at_p_minus_1():
    # p divides the denominator of B_{p-1} exactly once, so the q^1
    # coefficient -2(p-1)/B_{p-1} of E_{p-1} has valuation exactly 1.
    for p in sympy.primerange(5, 30):
        ring = RingSpec(p, 3)
        assert padic_val(level_one(ring, 2)[2][1], p, ring.e) == 1


def _chain_delta(N: int, e: int) -> list[int]:
    """The first N coefficients mod 13^e of the Delta the basis chain makes
    at p = 13: its column 1 is Delta / E_12 (a = eps = 0, i = 1), so Delta
    is that column times E_12.  At n = N - 1 the chain has N = d_{12n}
    slots."""
    ring = RingSpec(13, e)
    assert column_exponents(13, N - 1)[1] == (0, 0, -1)
    column = list(islice(columns(13, N - 1, ring), 2))[1]
    return oracles.times(column, list(level_one(ring, N)[2]), ring.modulus)


def test_e4_e6_delta_leading_coefficients():
    f4, f6, _ = level_one(R, 3)
    d = _chain_delta(9, 12)
    assert f4[0] == 1 and f6[0] == 1
    assert f4[1] == 240 % R.modulus
    # Ramanujan's tau(n), n < 9, as the q^n coefficients of Delta.
    tau = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480]
    assert d == [t % 13**12 for t in tau]


def test_delta_from_independent_convolution():
    # Oracle: expand (E_4^3 - E_6^2)/1728 by direct integer convolution; the
    # difference must be divisible by 1728 over the integers.
    N, mod = 8, 13**4

    def conv(a, b):
        out = [0] * N
        for i in range(N):
            for k in range(N - i):
                out[i + k] += a[i] * b[k]
        return out

    a4 = [1] + [240 * sigma(3, n) for n in range(1, N)]
    a6 = [1] + [-504 * sigma(5, n) for n in range(1, N)]
    cube = conv(conv(a4, a4), a4)
    diff = [x - y for x, y in zip(cube, conv(a6, a6))]
    expected = [x // 1728 for x in diff]
    assert all(x % 1728 == 0 for x in diff)
    assert _chain_delta(N, 4) == [x % mod for x in expected]


def test_delta_identity_mod_ring():
    # 1728 Delta = E_4^3 - E_6^2 on the chain's Delta and the sieve's E_4
    # and E_6, the powers by the schoolbook product.
    N, ring = 10, RingSpec(13, 4)
    mod = ring.modulus
    f4, f6, _ = (QSeries(ring, tuple(f)) for f in level_one(ring, N))
    cube = oracles.schoolbook_mul(oracles.schoolbook_mul(f4, f4), f4).coeffs
    square = oracles.schoolbook_mul(f6, f6).coeffs
    lhs = [c * 1728 % mod for c in _chain_delta(N, 4)]
    assert lhs == [(a - b) % mod for a, b in zip(cube, square)]


def test_e_p_minus_1_congruent_one_mod_p():
    for p in (5, 7, 11, 13, 17):
        ring = RingSpec(p, 4)
        f = level_one(ring, 20)[2]
        assert f[0] == 1
        assert oracles.val(oracles.minus_one(QSeries(ring, tuple(f)))) >= 1


def test_e_p_minus_1_is_e4_for_p_5():
    # For p=5 the weight-4 Eisenstein series is E_4: -2*4/B_4 = 240.
    e4, _, ep = level_one(RingSpec(5, 6), 10)
    assert ep == e4


def test_eisenstein_star_basic():
    # c = -8/((1 - 5^3) B_4) is E*_4's q-coefficient (sigma*_3(1) = 1), and
    # every higher coefficient is divisible by 5.
    c = Fraction(-8) / ((1 - Fraction(5) ** 3) * oracles.bernoulli(4))
    assert star_constants([4], R) == [rational_mod(c, R.modulus)]
    f = oracles.eisenstein_star_trial(4, R, 8)
    assert f.coeffs[0] == 1
    assert all(c % 5 == 0 for c in f.coeffs[1:])


def test_eisenstein_star_valuation_grows_with_weight():
    # nu(E*_k - 1) >= min(e, nu_p(k) + 1).
    for s, expect in [(1, 1), (5, 2), (25, 3)]:
        k = 4 * s
        f = oracles.eisenstein_star_trial(k, R, 10)
        assert oracles.val(oracles.minus_one(f)) >= min(R.e, expect)


def test_eisenstein_star_rejects_bad_weight():
    with pytest.raises(ValueError):
        star_constants([5], R)
    with pytest.raises(ValueError):
        star_constants([0], R)


def _check_eisenstein_constants(k_max: int) -> int:
    """Check the constants of E_{p-1} (level_one) and of E*_k
    (star_constants), computed in integers, against -2k / ((1 - p^(k-1)) B_k)
    in rationals on the oracle's Bernoulli numbers, for every prime
    5 <= p < 30 and k = s(p-1) <= k_max with s <= 64, the weights of a 29/870
    sweep; returns how many weights.
    One weight per call, so each B_k is taken from zeta(k) alone, with pi
    and (2 pi)^k at that k's own precision; a whole weight list in one call
    is checked below and in test_kernels."""
    checked = 0
    for p in reversed(list(sympy.primerange(5, 30))):
        for e in (1, 10):
            ring = RingSpec(p, e)
            c = Fraction(-2 * (p - 1)) / oracles.bernoulli(p - 1)
            assert level_one(ring, 2)[2] == [1, rational_mod(c, ring.modulus)]
            for k in range(p - 1, min(k_max, 64 * (p - 1)) + 1, p - 1):
                c = Fraction(-2 * k) / ((1 - Fraction(p) ** (k - 1)) * oracles.bernoulli(k))
                assert star_constants([k], ring) == [rational_mod(c, ring.modulus)], (p, e, k)
                checked += e == 1
    return checked


def test_eisenstein_constants_match_the_bernoulli_formula():
    # k <= 300: every s <= 64 at p = 5 and 7, and every weight of an 11/132
    # sweep (s <= 28); -m slow takes all of them.
    assert _check_eisenstein_constants(300) == 226


@pytest.mark.parametrize("p, lam", [(5, 60), (7, 18), (11, 26), (13, 30)])
def test_eisenstein_constants_of_a_weight_batch_match_the_bernoulli_formula(p, lam):
    # A batch of a sweep's weights shares one modular inversion for all its
    # constants; each must still be its own weight's -2k/((1 - p^(k-1)) B_k),
    # checked weight by weight on sympy's Bernoulli numbers.
    ring = RingSpec(p, lam)
    ks = [s * (p - 1) for s in weight_list(p, lam)]
    constants = star_constants(ks, ring)
    assert len(constants) == lam
    for k, c in zip(ks, constants):
        want = Fraction(-2 * k) / ((1 - Fraction(p) ** (k - 1)) * oracles.bernoulli(k))
        assert c == rational_mod(want, ring.modulus), k


@pytest.mark.slow
def test_eisenstein_constants_match_the_bernoulli_formula_at_29_870():
    assert _check_eisenstein_constants(64 * 28) == 8 * 64


def test_eisenstein_star_refuses_a_constant_prime_to_p(monkeypatch):
    # B_4 = -1/30.  Given -5/150 in its place, with the 5 of D_4 moved into
    # N_4, c = -8 D_4 / ((1 - 5^3) N_4) = -8/((1 - 5^3) B_4) is the same
    # number, but N_4 is no 5-unit and the one inversion refuses it.  Given
    # -1/6, B_4 without the 5 of its denominator, c = 48/(1 - 5^3) comes out
    # prime to 5, and the check that p | c catches it.  _bernoulli itself
    # returns neither: von Staudt-Clausen makes N_k = -D_k/p mod p a unit.
    ring = RingSpec(5, 3)
    monkeypatch.setattr(classical, "_bernoulli", lambda ks: [(-5, 150)])
    with pytest.raises(ValueError, match="not invertible"):
        star_constants([4], ring)
    monkeypatch.setattr(classical, "_bernoulli", lambda ks: [(-1, 6)])
    with pytest.raises(ArithmeticError, match="not divisible by p"):
        star_constants([4], ring)


def _coordinates(monkeypatch, p, lam, ss):
    """The weight-disk coordinates build_system factors its system on."""
    seen = []
    real = solver_module._newton_diagonalize

    def spy(ws, p, lam):
        seen.append(ws)
        return real(ws, p, lam)

    with monkeypatch.context() as m:
        m.setattr(solver_module, "_newton_diagonalize", spy)
        assert build_system(p, lam, ss).ss == tuple(ss)
    return seen[0]


def test_weight_spec(monkeypatch):
    # A weight is its s: build_system places k = s(p-1) at w = (1+p)^k - 1
    # mod p^lam and accepts only s >= 1 prime to p.
    w = _coordinates(monkeypatch, 5, 4, [2, 1, 3, 4])[0]
    assert w == (pow(6, 8, 5**4) - 1) % 5**4 == oracles.coordinate(5, 2, 4)
    assert padic_val(w, 5, 4) == 1
    for bad in (5, 0, -1):
        with pytest.raises(ValueError, match=f"prime to p, got {bad}$"):
            build_system(5, 4, [1, 2, 3, bad])


def test_weight_coordinate_valuation_one(monkeypatch):
    # nu(w) = nu(k) + 1 = 1 for s prime to p, e >= 2.
    for p in (5, 7, 11):
        ring = RingSpec(p, 3)
        ws = _coordinates(monkeypatch, p, 3, [1, 2, 3])
        for s, w in zip((1, 2, 3), ws):
            assert w == (pow(p + 1, s * (p - 1), ring.modulus) - 1) % ring.modulus
            assert padic_val(w, p, 3) == 1
