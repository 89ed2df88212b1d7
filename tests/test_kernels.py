"""The fast kernels against the slow reference oracles in tests/oracles.py:
the Kronecker truncated product (mul_low) and the chain's powers, the packed
row solve, the Newton factorization of the Vandermonde systems, the
gcd-driven valuation minima, the Bernoulli numbers from zeta(k), the
step-by-step basis matrix, the rows solved on their Katz coordinates and
on L^-1 folded into them, the sieved sigma* of E*_k, the sparse division by
V(E*_k), the forward substitution packed over right-hand sides, and the
batch peeled off the basis chain."""

import random

import mpmath
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import oracles
from katzrates import classical, expand
from katzrates.arithmetic import (
    QSeries,
    RingSpec,
    combine,
    forward_substitute,
    mul_low,
    prepare,
    prepare_rows,
)
from katzrates.basis import _powers, block, columns, dim_mk
from katzrates.classical import _bernoulli, _pi, sigma_star_rows, star_constants
from katzrates.expand import psi
from katzrates.family import eis_ratio_by_s, eis_ratios
from katzrates.solver import (
    KatzBasis,
    UnsolvableSystem,
    VandermondeSystem,
    _check_kernel,
    build_system,
    collect_statuses,
    weight_list,
)
from katzrates.sweep import planned_precision


def _series(ring, coeffs):
    return QSeries(ring, tuple(coeffs))


@st.composite
def series_pairs(draw, max_n=60):
    """Two canonical series over one ring, with runs of leading zeros and
    coefficients at the edges 0 and p^e - 1 drawn often."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    e = draw(st.integers(1, 40))
    n = draw(st.integers(1, max_n))
    ring = RingSpec(p, e)
    mod = ring.modulus
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))

    def one():
        lead = draw(st.integers(0, n))
        return [0] * lead + draw(st.lists(coeff, min_size=n - lead, max_size=n - lead))

    return ring, one(), one()


_R56, _R115 = RingSpec(5, 6), RingSpec(11, 5)  # slots of 4 and 5 bytes


@given(series_pairs())
@settings(max_examples=150, deadline=None)
@example((RingSpec(7, 3), [5], [342]))  # n = 1: no odd half
@example((RingSpec(5, 4), [3, 624], [624, 2]))  # n = 2: one odd slot
@example((_R115, [7, 0, 161050, 3, 0, 88, 1], [2, 5, 0, 0, 161050, 9, 4]))  # odd n
@example((_R56, [0, 0, 0, 15624, 1, 2, 3, 4, 5], [1, 15624, 2, 3, 15624, 0, 7, 8, 9]))
@example((_R56, [0, 15624, 1, 2, 3, 4, 5, 6, 7], [0, 0, 0, 0, 9, 15624, 8, 7, 6]))
@example((_R56, [15624] * 9, [15623, 1, 15624, 0, 2, 15622, 3, 4, 15624]))  # all p^e - 1
@example((_R115, [161050] * 9, [0, 161049, 5, 161050, 7, 0, 1, 2, 161050]))
def test_kronecker_product_matches_schoolbook(case):
    # The examples: an empty odd half (n = 1), n = 2, odd n, leading zeros on
    # one side and on both, and one operand all p^e - 1, whose sums fill the
    # slot width, at even and odd slot byte counts.
    ring, a, b = case
    _check_products(ring, a, b)


def _check_products(ring, a, b):
    """mul_low by a prepared b, mul_low's square and the chain's powers
    (basis._powers) at 2 and 3 against the schoolbook products of the series
    a and b."""
    mod = ring.modulus
    f, g = _series(ring, a), _series(ring, b)
    ff = oracles.schoolbook_mul(f, f)
    assert mul_low(a, prepare(b, mod), mod) == list(oracles.schoolbook_mul(f, g).coeffs)
    assert mul_low(a, None, mod) == list(ff.coeffs)
    power = _powers(a, mod)
    assert power(2) == list(ff.coeffs)
    assert power(3) == list(oracles.schoolbook_mul(ff, f).coeffs)


@pytest.mark.parametrize(
    "p, e, n, fill",
    [
        (5, 3, 1, "random"),  # N = 1
        (7, 5, 20, "zero"),  # all-zero series
        (11, 6, 111, "top"),  # every coefficient p^e - 1
        (13, 30, 169, "top"),  # N = 169 at the largest slot width used here
        (5, 1, 30, "random"),  # e = 1
        (13, 8, 169, "random"),  # N = 169
    ],
)
def test_kronecker_product_edge_cases(p, e, n, fill):
    rng = random.Random(f"{p}-{e}-{n}-{fill}")
    ring = RingSpec(p, e)
    mod = ring.modulus
    make = {
        "zero": lambda: [0] * n,
        "top": lambda: [mod - 1] * n,
        "random": lambda: [rng.randrange(mod) for _ in range(n)],
    }[fill]
    _check_products(ring, make(), make())
    assert mul_low(make(), prepare([0] * n, mod), mod) == [0] * n


@st.composite
def low_products(draw):
    """(p, e, xs, values): residues mod p^e with runs of leading zeros and
    the edges 0 and p^e - 1 drawn often, xs no longer than the factor
    `values`, and `values` None for a square."""
    p = draw(st.sampled_from([5, 13, 71]))
    e = draw(st.integers(1, 30))
    mod = p**e
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))

    def residues(n):
        lead = draw(st.integers(0, n))
        return [0] * lead + draw(st.lists(coeff, min_size=n - lead, max_size=n - lead))

    values = residues(draw(st.integers(1, 40)))
    xs = residues(draw(st.integers(1, len(values))))
    return p, e, xs, draw(st.one_of(st.none(), st.just(values)))


@given(low_products())
@settings(max_examples=200, deadline=None)
@example((5, 2, [7], [3, 4]))  # one slot
@example((13, 3, [0, 0, 5, 1, 2], None))  # a square with leading zeros
@example((71, 30, [71**30 - 1] * 40, [71**30 - 1] * 40))  # every slot full
@example((71, 30, [71**30 - 1] * 39, [71**30 - 1] * 40))  # odd, shorter
def test_mul_low_matches_the_schoolbook_product(case):
    p, e, xs, values = case
    ring, n = RingSpec(p, e), len(xs)
    f = QSeries(ring, tuple(xs))
    g = f if values is None else QSeries(ring, tuple(values[:n]))
    factor = None if values is None else prepare(values, ring.modulus)
    assert mul_low(xs, factor, ring.modulus) == list(oracles.schoolbook_mul(f, g).coeffs)


@pytest.mark.parametrize("bad", [-1, 125, 10**9])
def test_kronecker_product_rejects_noncanonical_coefficients(bad):
    # A packed slot has no room for a value outside [0, p^e): prepare, which
    # every fixed factor passes through, refuses it.  An empty factor is
    # legal.
    mod = RingSpec(5, 3).modulus
    with pytest.raises(ValueError, match="must lie in"):
        prepare([1, bad, 3], mod)
    assert mul_low([], prepare([], mod), mod) == []


@st.composite
def systems(draw, max_lam=12):
    p = draw(st.sampled_from([5, 7, 11]))
    lam = draw(st.integers(1, max_lam))
    s_values = draw(
        st.lists(
            st.integers(1, 200).filter(lambda s: s % p),
            min_size=lam,
            max_size=lam,
            unique=True,
        )
    )
    if len({oracles.coordinate(p, s, lam) for s in s_values}) != lam:
        reject()
    return build_system(p, lam, s_values)


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_many_matches_per_theta_solve(system, data):
    mod = system.modulus
    lam = system.lam
    vector = st.lists(st.integers(0, mod - 1), min_size=lam, max_size=lam)
    thetas = []
    for _ in range(data.draw(st.integers(1, 6))):
        theta = data.draw(vector)
        if data.draw(st.booleans()):
            theta = oracles.apply(system, theta)  # solvable: the image of a vector
        thetas.append(theta)
    try:
        expected = [oracles.solve_one(system, theta) for theta in thetas]
    except UnsolvableSystem:
        with pytest.raises(UnsolvableSystem):
            oracles.solve_many(system, thetas)
        return
    # Inputs are reduced mod p^lam first, so shifted representatives agree.
    shift = data.draw(st.integers(-3, 3))
    shifted = [[t + shift * mod for t in theta] for theta in thetas]
    assert oracles.solve_many(system, shifted) == expected
    assert [oracles.solve_many(system, [theta])[0] for theta in shifted] == expected
    for theta, x in zip(thetas, expected):
        assert oracles.apply(system, x) == list(theta)


def test_solve_reduces_inputs_mod_p_lambda():
    system = build_system(5, 4)
    theta = oracles.apply(system, [1, 2, 3, 4])
    mod = system.modulus
    want = oracles.solve_many(system, [theta])
    assert oracles.solve_many(system, [[t - mod for t in theta]]) == want
    assert oracles.solve_many(system, [[t + 7 * mod for t in theta]]) == want
    assert oracles.solve_many(system, []) == []


@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 24), st.data())
@settings(max_examples=30, deadline=None)
def test_packed_solve_of_every_reduction_matches_the_oracle(p, E, data):
    # Each lam <= E reads the packed columns of the one build at E: the first
    # `count` components of a solution, the unsolvable thetas and gamma are
    # those of the oracle on the unpacked leading blocks.
    system = build_system(p, E)
    for lam in range(1, E + 1):
        reduced = system.reduce(lam)
        vector = st.lists(st.integers(0, p**lam - 1), min_size=lam, max_size=lam)
        thetas = [data.draw(vector), oracles.apply(reduced, data.draw(vector))]
        count = data.draw(st.integers(1, lam))
        for theta in thetas:
            try:
                want = oracles.solve_one(reduced, theta)[:count]
            except UnsolvableSystem:
                with pytest.raises(UnsolvableSystem):
                    oracles.solve_many(reduced, [theta], count)
            else:
                assert oracles.solve_many(reduced, [theta], count) == [want]
        gens = oracles.kernel_gens(reduced)
        gamma = tuple(oracles.min_val([g[j] for g in gens], p, lam) for j in range(lam))
        assert reduced.gamma == gamma


def _check_newton_form(system):
    """The Newton factorization (A, ts, B) of a system against the Smith form
    oracle: A.V.B = diag(p^t), the t_k are the Smith invariants, and gamma is
    the one read from the oracle's kernel generators."""
    p, lam, mod = system.p, system.lam, system.modulus
    V = oracles.vandermonde(system)
    (A, B), ts = oracles.matrices(system), system._ts

    def product(X, Y):
        cols = list(zip(*Y))
        return [[sum(map(lambda x, y: x * y, r, c)) % mod for c in cols] for r in X]

    diag = [[p ** ts[i] % mod if i == j else 0 for j in range(lam)] for i in range(lam)]
    assert product(product(A, V), B) == diag
    _, smith_ts, smith_B = oracles.smith_diagonalize(V, p, lam)
    # The valuations along a p-ordering never decrease, so ts is sorted.
    assert list(ts) == smith_ts
    gens = [
        [row[k] * p ** (lam - t) % mod for row in smith_B]
        for k, t in enumerate(smith_ts)
        if t
    ]
    gamma = tuple(oracles.min_val([g[j] for g in gens], p, lam) for j in range(lam))
    assert system.gamma == gamma


@given(systems())
@settings(max_examples=60, deadline=None)
def test_newton_form_matches_smith_oracle_on_random_weights(system):
    # Random s-sets are not p-ordered, so the greedy reordering runs.
    _check_newton_form(system)


@pytest.mark.parametrize(
    "p, lam",
    [(5, 1), (5, 10), (5, 24), (5, 58), (7, 30), (11, 26), (13, 30), (17, 20)],
)
def test_newton_form_matches_smith_oracle_on_weight_lists(p, lam):
    _check_newton_form(build_system(p, lam))


@pytest.mark.parametrize(
    "p, E, lam", [(5, 60, 37), (5, 24, 10), (7, 30, 17), (11, 26, 13), (17, 40, 21)]
)
def test_reduced_system_matches_smith_oracle(p, E, lam):
    # The leading blocks of a weight-list factorization factor the smaller
    # weight list.
    _check_newton_form(build_system(p, E).reduce(lam))


def _columns(B):
    return [list(col) for col in zip(*B)]


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_check_matches_the_generator_oracle(system, data):
    # One entry of B replaced: the check rejects exactly the columns with
    # t_k > 0 that the change moves off N_k mod p^t_k, and every column it
    # passes has a generator p^(lam - t_k).B[:,k] that annihilates V.
    p, lam, ts = system.p, system.lam, system._ts
    V = oracles.vandermonde(system)
    B = oracles.matrices(system)[1]
    i, k = data.draw(st.integers(0, lam - 1)), data.draw(st.integers(0, lam - 1))
    old, B[i][k] = B[i][k], data.draw(st.integers(0, system.modulus - 1))
    nodes = oracles.weights(system)
    if ts[k] == 0 or (B[i][k] - old) % p ** ts[k] == 0:
        _check_kernel(nodes, _columns(B), ts, p, lam)
        assert oracles.kernel_annihilates(V, B, ts, p, lam)
    else:
        with pytest.raises(AssertionError, match=f"generator {k} "):
            _check_kernel(nodes, _columns(B), ts, p, lam)


@st.composite
def newton_form_cases(draw):
    """(p, ss, ts): the canonical weights of a system in any order, and any
    t_k."""
    p = draw(st.sampled_from([5, 7, 11]))
    lam = draw(st.integers(1, 12))
    ss = draw(st.permutations(weight_list(p, lam)))
    return p, ss, draw(st.lists(st.integers(0, lam), min_size=lam, max_size=lam))


@given(newton_form_cases())
@settings(max_examples=60, deadline=None)
@example((5, [1, 6, 11, 2], [0, 0, 3, 0]))  # N_2 fails at s = 2, not at s = 11
def test_kernel_check_in_product_form_matches_the_oracle(case):
    # B the Newton columns N_k on the nodes in the order given: every column
    # is N_k, so the check is decided on the Newton products alone, and it
    # must reject the first generator p^(lam - t_k).N_k that does not
    # annihilate V.
    p, ss, ts = case
    lam, mod = len(ss), p ** len(ss)
    nodes = [oracles.coordinate(p, s, lam) for s in ss]
    newton, cols = [1], []
    for w in nodes:
        cols.append(newton + [0] * (lam - len(newton)))
        newton = [(a - w * b) % mod for a, b in zip([0] + newton, newton + [0])]
    B = [list(row) for row in zip(*cols)]
    V = [[pow(w, j, mod) for j in range(lam)] for w in nodes]
    failing = [
        k
        for k, t in enumerate(ts)
        if not oracles.kernel_annihilates(V, B, [0] * k + [t], p, lam)
    ]
    if failing:
        with pytest.raises(AssertionError, match=f"generator {failing[0]} "):
            _check_kernel(nodes, cols, ts, p, lam)
    else:
        _check_kernel(nodes, cols, ts, p, lam)


@given(systems(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_check_decides_a_column_off_newton_form_on_v(system, harmless, data):
    # B[i][k] moved by delta with v(delta) < t_k, so column k no longer agrees
    # with N_k mod p^t_k, and the check refuses it without building V.  With
    # i >= 1 and v(delta) >= t_k - i, delta.w^i = 0 mod p^t_k at every node
    # (v(w) >= 1): the column still annihilates V, and is refused all the
    # same.  At row 0, V.B[:,k] moves by delta in every slot: generator k
    # fails on V too.
    p, lam, mod, ts = system.p, system.lam, system.modulus, system._ts
    k = data.draw(st.integers(0, lam - 1))
    t = ts[k]
    assume(t > 0 and (lam > 1 or not harmless))
    i = data.draw(st.integers(1, lam - 1)) if harmless else 0
    v = max(t - i, 0) if harmless else data.draw(st.integers(0, t - 1))
    unit = data.draw(st.integers(1, mod - 1).filter(lambda u: u % p))
    B = oracles.matrices(system)[1]
    B[i][k] = (B[i][k] + unit * p**v) % mod
    nodes = oracles.weights(system)
    V = oracles.vandermonde(system)
    assert oracles.kernel_annihilates(V, B, ts, p, lam) == harmless
    with pytest.raises(AssertionError, match=f"generator {k} is not"):
        _check_kernel(nodes, _columns(B), ts, p, lam)


@given(
    st.sampled_from([5, 7, 11]),
    st.integers(1, 20),
    st.lists(st.integers(-(10**30), 10**30), max_size=8),
    st.lists(st.integers(0, 20), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_gcd_valuation_matches_padic_val_loop(p, lam, values, powers):
    # Pure powers of p, including multiples of p^lam, exercise the cap.
    # collect_statuses reads the least valuation of a component off the gcd
    # with p^lam; on a system whose thresholds all sit at lam, an entry is
    # exact at every valuation below lam and inconclusive at "at least lam".
    # No values at all are the solutions of an empty block, which has no
    # entries.
    values = values + [p**k for k in powers]
    fields = list(build_system(p, lam)._values())
    fields[VandermondeSystem._fields.index("gamma")] = (lam,) * lam
    entries = collect_statuses(VandermondeSystem(*fields), [(v,) for v in values], 0, 0)
    if not values:
        assert entries == {}
        return
    alpha = entries[0].value if entries[0].exact else lam
    assert alpha == oracles.min_val(values, p, lam)


@given(systems())
@settings(max_examples=30, deadline=None)
def test_gamma_matches_padic_val_loop(system):
    gens = oracles.kernel_gens(system)
    for j in range(system.lam):
        gamma = oracles.min_val([g[j] for g in gens], system.p, system.lam)
        assert system.gamma[j] == gamma


def _check_bernoulli(ks):
    # B_k = N_k / D_k in lowest terms with D_k > 0, as sympy has it.
    for k, (n, d) in zip(ks, _bernoulli(ks)):
        b = oracles.bernoulli(k)
        assert (n, d) == (b.numerator, b.denominator), k


def test_bernoulli_matches_sympy():
    # Every even k <= 600 in one call, so pi is taken once and (2 pi)^k
    # stepped by 2 from k = 2 on; and again one k at a time, from k = 0.
    ks = list(range(2, 601, 2))
    _check_bernoulli(ks)
    for k in (2, 4, 12, 98, 600):
        _check_bernoulli([k])
    # Repeats and any order: the values come back in the order asked.
    _check_bernoulli([30, 4, 30, 2])


@pytest.mark.slow
@pytest.mark.parametrize("p, i_max", [(23, 552), (29, 870), (31, 992), (37, 1406)])
def test_bernoulli_matches_sympy_at_a_frontier_build(p, i_max):
    # Every weight of the system a sweep to i_max plans its build on, up to
    # k = 2880 at 37/1406, in one call as star_constants makes it.
    _check_bernoulli([s * (p - 1) for s in weight_list(p, planned_precision(p, i_max))])


@pytest.mark.parametrize("bits", [8, 9, 16, 33, 64, 200, 1000, 5000])
def test_pi_is_within_its_bound(bits):
    # _pi(bits) is pi 2^bits less than 8 bits units off.
    with mpmath.workprec(bits + 64):
        exact = int(mpmath.floor(mpmath.pi * 2**bits))
    assert abs(_pi(bits) - exact) < 8 * bits


def test_bernoulli_with_pi_cut_to_32_bits_fails_its_certificate(monkeypatch):
    # Past k = 26 the error of a 32-bit pi moves N_k, and von Staudt-Clausen
    # names the first k whose numerator it moves off its class mod D_k.
    real = classical._pi
    monkeypatch.setattr(classical, "_pi", lambda bits: real(32) << max(bits - 32, 0))
    _check_bernoulli(list(range(2, 27, 2)))
    with pytest.raises(ArithmeticError, match=r"B_28: numerator"):
        _bernoulli(list(range(2, 301, 2)))
    with pytest.raises(ArithmeticError, match=r"B_100: numerator"):
        _bernoulli([100, 200])


@pytest.mark.parametrize("ks", [[3], [0], [-2], [2, 5], [1], []])
def test_bernoulli_refuses_odd_or_small_k(ks):
    with pytest.raises(ValueError, match="even k >= 2"):
        _bernoulli(ks)


_PRIMES = [5, 7, 11, 13, 17, 19, 23]
# Every period P = (p-1)/gcd(12, p-1) in {1, 3, 4, 5, 7, 11}.
_CHAIN_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@given(st.sampled_from(_CHAIN_PRIMES), st.integers(0, 30), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
@example(17, 20, 3)
@example(11, 0, 1)
@example(23, 14, 2)  # N = 26: columns 1..11 made directly, past them two periods
@example(29, 10, 3)
@example(31, 8, 2)
@example(37, 6, 2)
def test_build_matrix_matches_direct_column_oracle(p, n, e):
    # Every column of the chain, made one product after another.
    ring = RingSpec(p, e)
    assert tuple(columns(p, n, ring)) == oracles.direct_columns(p, n, ring)


@st.composite
def row_cases(draw):
    """(p, r, s-values): a row and the weights s(p-1) of its system, distinct
    and in any order, as `katzrates valuations --weights` takes them."""
    p = draw(st.sampled_from(_PRIMES))
    r = draw(st.integers(0, 24))
    lam = draw(st.integers(1, 10))
    s_values = draw(
        st.lists(
            st.integers(1, 4 * lam + 4).filter(lambda s: s % p),
            min_size=lam,
            max_size=lam,
            unique=True,
        )
    )
    return p, r, s_values


@given(row_cases(), st.sampled_from([1, 6]))
@settings(max_examples=80, deadline=None)
@example((5, 0, [1, 2, 3]), 1)  # r = 0: the block of the constant 1
@example((5, 1, [1, 2, 3, 4]), 1)  # empty block
@example((5, 6, [9, 3, 1, 7, 2, 4, 8, 6]), 6)  # shuffled weights
@example((11, 6, [3, 1, 5, 2, 4]), 1)  # the minimum is not at b = lo
@example((17, 20, [1, 2, 3, 4, 5, 6]), 1)  # S + 1 = 28 > N = 27
@example((17, 20, [1, 2, 3, 4, 5, 6]), 6)
def test_row_statuses_match_q_coefficient_oracle(case, extra):
    # Solving a row on its b coordinates gives the statuses of solving it on
    # the q-coefficients a_0..a_{S+extra-1}, and is unsolvable exactly when
    # they are.
    p, r, s_values = case
    lam = len(s_values)
    try:
        system = build_system(p, lam, s_values)
    except ValueError:
        reject()  # two weights agree mod p^lam
    count = oracles.sturm_count(p, r) + extra
    try:
        _, sols = KatzBasis(r, system).solutions(r, lam)
    except UnsolvableSystem:
        with pytest.raises(UnsolvableSystem):
            oracles.q_coefficient_solutions(system, r, count)
        return
    got = collect_statuses(system, sols, lam - 1, r)
    want = collect_statuses(
        system, oracles.q_coefficient_solutions(system, r, count), lam - 1, r
    )
    if sols:
        assert got == want
    else:
        # An empty block: b_{r,j} = 0 has no entries, and its q-coefficients,
        # all 0, no exact one.
        assert got == {} and not any(e.exact for e in want.values())


@st.composite
def fold_cases(draw):
    """(p, r, system): a row and a system over Z/p^E, on the canonical weights
    or on distinct weights in any order, as `katzrates valuations --weights`
    takes them."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    r = draw(st.integers(0, 24))
    E = draw(st.integers(1, 12))
    ss = None
    if draw(st.booleans()):
        weight = st.integers(1, 4 * E + 4).filter(lambda s: s % p)
        ss = draw(st.lists(weight, min_size=E, max_size=E, unique=True))
    try:
        return p, r, build_system(p, E, ss)
    except ValueError:
        reject()  # two weights agree mod p^E


@given(fold_cases(), st.data())
@settings(max_examples=40, deadline=None)
@example((5, 6, build_system(5, 8, [9, 3, 1, 7, 2, 4, 8, 6])), None)  # shuffled
@example((13, 24, build_system(13, 12)), None)
def test_basis_solutions_from_the_fold_match_the_oracle_at_every_lambda(case, data):
    # The basis keeps its coordinates at E; a row at any lam <= E folds L^-1
    # into its block mod p^lam.  Its solutions, or UnsolvableSystem,
    # are the oracle's on the row's coordinates, psi's at E read mod p^lam,
    # one mat-vec at a time with the dense inverse of the leading lam x lam
    # block of L.
    p, r, system = case
    basis, E, N = KatzBasis(r, system), system.lam, dim_mk(r * (p - 1))
    lo, hi = block(p, r)
    coords = [psi(p, r, E, eis_ratio_by_s(p, s, E, N)).x[lo:hi] for s in system.ss]
    for lam in range(1, E + 1):
        served = system.reduce(lam)
        count = lam if data is None else data.draw(st.integers(1, lam))
        thetas = [[c % p**lam for c in col] for col in zip(*coords[:lam])]
        try:
            want = [oracles.solve_one(served, theta)[:count] for theta in thetas]
        except UnsolvableSystem:
            with pytest.raises(UnsolvableSystem):
                basis.solutions(r, lam, count)
        else:
            assert basis.solutions(r, lam, count) == (served, want)


@pytest.mark.parametrize("p, E, lam", [(5, 40, 7), (7, 30, 12), (11, 26, 3), (13, 20, 19)])
def test_solve_many_on_a_reduction_keeps_l_at_the_build_precision(p, E, lam):
    # The entries of L lie in [0, p^E), far above p^lam; the fold at lam
    # multiplies them into residues mod p^lam and reduces each entry, so a
    # reduction's solve is still the oracle's on the leading blocks.
    served = build_system(p, E).reduce(lam)
    assert max(max(row, default=0) for row in served._lower[:lam]) > p ** (E - 1)
    rng = random.Random(f"{p}-{E}-{lam}")
    mod = p**lam
    thetas = [[rng.randrange(mod) for _ in range(lam)] for _ in range(4)]
    thetas += [oracles.apply(served, theta) for theta in thetas]
    thetas += [[mod - 1] * lam, [0] * lam]
    for theta in thetas:
        try:
            want = oracles.solve_one(served, theta)
        except UnsolvableSystem:
            with pytest.raises(UnsolvableSystem):
                oracles.solve_many(served, [theta])
        else:
            assert oracles.solve_many(served, [theta]) == [want]
            assert oracles.apply(served, want) == list(theta)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(2, 14), st.data())
@settings(max_examples=40, deadline=None)
def test_a_tampered_fold_entry_raises(p, E, data):
    # Moving X[b][k] by delta with v(delta) < t_k moves entry k of the row's
    # fold by u_k^-1.delta and no entry before it, which leaves the division
    # by p^t_k inexact, so the row raises at component k; it never returns a
    # wrong entry.
    n = 24
    basis = KatzBasis(n, build_system(p, E))
    lam = data.draw(st.integers(2, E))
    b = data.draw(st.integers(1, dim_mk(n * (p - 1)) - 1))
    r = oracles.i_of_j(p, b)
    system, _ = basis.solutions(r, lam)  # untouched, the row solves
    k = data.draw(st.integers(1, lam - 1))
    t = system._ts[k]
    assert t >= 1  # v(w_s - w_s') >= 1 for any two weights
    v = data.draw(st.integers(0, t - 1))
    unit = data.draw(st.integers(1, p**lam - 1).filter(lambda u: u % p))
    basis._coords[b][k] += unit * p**v
    with pytest.raises(UnsolvableSystem, match=f"component {k} "):
        basis.solutions(r, lam)


_FAMILY_PRIMES = [5, 7, 11, 13, 17, 23]


@st.composite
def family_cases(draw):
    """(p, s, e, N): a family member's weight s(p-1), precision and
    truncation, with s in {1, p+1, 2p+1} and N <= p (V(E*_k) constant) drawn
    often."""
    p = draw(st.sampled_from(_FAMILY_PRIMES))
    s = draw(st.one_of(st.sampled_from([1, p + 1, 2 * p + 1]), st.integers(1, 60)))
    e = draw(st.integers(1, 12))
    N = draw(st.one_of(st.just(1), st.integers(1, p), st.integers(1, 150)))
    return p, s, e, N


@given(family_cases())
@settings(max_examples=80, deadline=None)
@example((5, 1, 3, 1))
@example((23, 24, 6, 23))
@example((13, 27, 9, 150))
def test_eisenstein_star_matches_trial_division_oracle(case):
    p, s, e, N = case
    ring = RingSpec(p, e)
    k = s * (p - 1)
    # E*_k as family.eis_ratios makes it: the sieve at k - 1 off p, scaled
    # by its star_constants entry.
    mod, (c,) = ring.modulus, star_constants([k], ring)
    got = [1, *[c * x % mod for (x,) in sigma_star_rows(p, [k - 1], N, mod)[1:]]]
    assert tuple(got) == oracles.eisenstein_star_trial(k, ring, N).coeffs


@st.composite
def sieve_cases(draw):
    """(p, ms, N, mod): an excluded prime or None, exponents in no order with
    repeats drawn often, a truncation with N = 1 and N <= p drawn often, and
    a modulus p^e (5^e for None)."""
    p = draw(st.one_of(st.none(), st.sampled_from(_FAMILY_PRIMES)))
    ms = draw(st.lists(st.integers(0, 80), min_size=1, max_size=6))
    if draw(st.booleans()):
        ms += ms[:2]
    N = draw(st.one_of(st.just(1), st.integers(1, p or 5), st.integers(1, 120)))
    return p, ms, N, (p or 5) ** draw(st.integers(1, 12))


@given(sieve_cases())
@settings(max_examples=80, deadline=None)
@example((None, [3], 1, 5**4))  # N = 1
@example((7, [11, 5, 11, 0], 7, 7**5))  # N = p; unsorted, a repeat, m = 0
@example((5, [15, 3, 7, 3], 60, 5**10))  # powers of the excluded p
@example((None, [5, 3, 5], 40, 13**3))
def test_sigma_star_rows_match_trial_division_oracle(case):
    # Row n of the sieve holds sigma*_m(n) at every exponent m of the batch,
    # in its order; row 0 holds the ones its series start from.
    p, ms, N, mod = case
    rows = classical.sigma_star_rows(p, ms, N, mod)
    assert len(rows) == N and rows[0] == [1] * len(ms)
    for n in range(1, N):
        assert rows[n] == [oracles.sigma_star_trial(p, m, n, mod) for m in ms], n


@given(family_cases())
@settings(max_examples=80, deadline=None)
@example((5, 1, 3, 1))  # N = 1
@example((7, 8, 5, 7))  # N = p: V(E*_k) = 1
@example((11, 12, 6, 12))  # N = p + 1: the first term q^p of V(E*_k)
@example((17, 35, 10, 150))
def test_eis_ratio_matches_full_inverse_oracle(case):
    # The recurrence in the coefficients of r.V(E*_k) = E*_k against the
    # product with the full-length inverse of V(E*_k).
    p, s, e, N = case
    assert eis_ratio_by_s(p, s, e, N) == oracles.eis_ratio_full_inverse(p, s, e, N)


@st.composite
def family_batches(draw):
    """(p, ss, e, N): a batch of weights in no particular order, repeats and
    multiples of p among them, with N <= p and N = 1 drawn often."""
    p = draw(st.sampled_from(_FAMILY_PRIMES))
    weight = st.one_of(st.integers(1, 4).map(lambda m: m * p), st.integers(1, 60))
    ss = draw(st.lists(weight, min_size=1, max_size=6))
    e = draw(st.integers(1, 10))
    N = draw(st.one_of(st.just(1), st.integers(1, p), st.integers(1, 120)))
    return p, ss, e, N


@given(family_batches())
@settings(max_examples=60, deadline=None)
@example((5, [3, 1, 10, 2], 4, 1))  # N = 1
@example((7, [14, 1, 7], 5, 7))  # N = p, multiples of p
@example((11, [40, 3, 11, 3], 6, 120))  # unsorted, a repeat
def test_all_weights_family_matches_the_full_inverse_oracle(case):
    # Column i of the rows is the family member at ss[i]; at one weight the
    # rows are eis_ratio_by_s's coefficients.
    p, ss, e, N = case
    rows = eis_ratios(p, ss, e, N)
    assert len(rows) == N and {len(row) for row in rows} == {len(ss)}
    for i, s in enumerate(ss):
        want = oracles.eis_ratio_full_inverse(p, s, e, N).coeffs
        assert tuple(row[i] for row in rows) == want
        assert tuple(c for (c,) in eis_ratios(p, [s], e, N)) == want


@pytest.mark.parametrize(
    "s, N, match",
    [
        (0, 5, "s must be a positive integer"),
        (-3, 5, "s must be a positive integer"),
        (1, 0, "N must be >= 1, got 0"),
        (2, -4, "N must be >= 1, got -4"),
    ],
)
def test_all_weights_family_rejects_what_one_weight_rejects(s, N, match):
    # A bad s anywhere in the batch, or a bad N, is refused with the message
    # eis_ratio_by_s gives for it alone.
    with pytest.raises(ValueError, match=match):
        eis_ratio_by_s(5, s, 3, N)
    with pytest.raises(ValueError, match=match):
        eis_ratios(5, [1, s, 2], 3, N)


@st.composite
def substitution_cases(draw, min_size=0):
    """(p, n, C, rhss): the basis columns for (p, n) over Z/p^C and
    min_size..6 right-hand sides, with 0 and p^C - 1 drawn often."""
    p = draw(st.sampled_from(_FAMILY_PRIMES))
    n = draw(st.integers(0, 14))
    C = draw(st.integers(1, 10))
    N, mod = dim_mk(n * (p - 1)), p**C
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))
    vector = st.lists(coeff, min_size=N, max_size=N)
    return p, n, C, draw(st.lists(vector, min_size=min_size, max_size=6))


@given(substitution_cases())
@settings(max_examples=60, deadline=None)
@example((5, 0, 1, [[1]]))  # N = 1
@example((7, 3, 2, []))
def test_forward_substitute_many_matches_per_vector_oracle(case):
    # Many right-hand sides in one pass, as the fold and the peel solve
    # theirs: the rows of the basis matrix, the rows of R the slots of the
    # vectors, and the rows of X one list over the vectors per coordinate.
    p, n, C, rhss = case
    cols = list(columns(p, n, RingSpec(p, C)))
    N = len(cols)
    lower = oracles.strictly_lower_rows(cols)
    want = [oracles.forward_substitute(lower, rhs, p**C) for rhs in rhss]
    X = forward_substitute(iter(lower), zip(*rhss), p**C, N)
    assert [list(x) for x in zip(*X)] == want


@given(substitution_cases(min_size=1))
@settings(max_examples=60, deadline=None)
@example((5, 0, 1, [[1]]))  # N = 1
@example((13, 20, 3, [[12] * 21] * 3))  # N = 21: a batch of 3 in chunks of 14 and 7
@example((23, 14, 2, [[528] * 26]))  # N = 26: chunks of 11, 11 and 4
def test_peel_matches_the_per_vector_oracle(case):
    # The batch solved K coordinates at a time off the chain against the
    # forward substitution one entry at a time on the rows of the direct
    # columns, member by member.
    p, n, C, rhss = case
    ring = RingSpec(p, C)
    lower = oracles.strictly_lower_rows(oracles.direct_columns(p, n, ring))
    want = [oracles.forward_substitute(lower, rhs, p**C) for rhs in rhss]
    X = expand._peel(ring, columns(p, n, ring), [*zip(*rhss)])
    assert [list(x) for x in zip(*X)] == want


@pytest.mark.parametrize("p, n, B", [(5, 3, 1), (11, 40, 1), (11, 40, 4)])
def test_peel_takes_only_the_chain_head(p, n, B):
    # S_0..S_K are pulled off the chain (all N columns when K >= N) and no
    # column after them: the rest of the basis matrix is never made.
    ring = RingSpec(p, 3)
    N = dim_mk(n * (p - 1))
    pulled = []

    def chain():
        for j, col in enumerate(columns(p, n, ring)):
            pulled.append(j)
            yield col

    X = expand._peel(ring, chain(), [[1] * B] + [[0] * B] * (N - 1))
    assert X == [[1] * B] + [[0] * B] * (N - 1)
    K = expand._chunk(p, N, B)
    assert pulled == list(range(min(K + 1, N)))


@st.composite
def combination_cases(draw):
    """(coeffs, rows, count, e, f, p): up to 8 rows of one length over
    Z/p^e, with 0 and p^e - 1 drawn often, at most as many coefficients as
    rows, a count up to the row length, and the exponent f <= e of the
    modulus the combination is reduced by, as a system reduced to a lower
    precision combines the columns it prepared at its build's."""
    p = draw(st.sampled_from([5, 7, 11]))
    e = draw(st.integers(1, 12))
    mod = p**e
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))
    length = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(coeff, min_size=length, max_size=length), max_size=8))
    coeffs = draw(st.lists(coeff, max_size=len(rows)))
    return coeffs, rows, draw(st.integers(0, length)), e, draw(st.integers(1, e)), p


@given(combination_cases())
@settings(max_examples=150, deadline=None)
@example(([], [], 0, 1, 1, 5))  # no rows at all
@example(([], [], 0, 3, 2, 7))
@example(([24], [[24, 24, 24], [24, 24, 24]], 2, 2, 2, 5))  # fewer coefficients
@example(([124] * 8, [[124] * 5] * 8, 5, 3, 3, 5))  # every slot at its largest sum
@example(([124] * 8, [[124] * 5] * 8, 3, 3, 1, 5))
def test_combine_matches_the_per_entry_oracle(case):
    # One packed combination of the prepared rows, cut to `count` entries,
    # against the sum taken entry by entry.
    coeffs, rows, count, e, f, p = case
    prepared = prepare_rows(rows, p**e)
    assert isinstance(prepared, tuple) and hash(prepared) == hash(prepare_rows(rows, p**e))
    want = oracles.combination(coeffs, rows, count, p**f)
    assert combine(coeffs, prepared, count, p**f) == want


@st.composite
def triangular_cases(draw):
    """(n, mod, lower, rhss, cuts): the strictly lower rows of an arbitrary
    n x n unit-lower-triangular matrix, up to 6 right-hand sides, with 0 and
    mod - 1 drawn often, and where each row of R stops: nowhere, or after
    the entries a nondecreasing sequence of lengths keeps, the rest zero."""
    n = draw(st.integers(1, 16))
    mod = draw(st.sampled_from([5, 7, 11])) ** draw(st.integers(1, 12))
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))
    lower = [draw(st.lists(coeff, min_size=r, max_size=r)) for r in range(n)]
    rhss = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), max_size=6))
    cuts = [len(rhss)] * n
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, len(rhss)), min_size=n, max_size=n)))
        for r, cut in enumerate(cuts):
            for v in rhss[cut:]:
                v[r] = 0
    return n, mod, lower, rhss, cuts


@given(triangular_cases())
@settings(max_examples=80, deadline=None)
@example((1, 5, [[]], [[3]], [1]))  # n = 1
@example((3, 25, [[], [24], [24, 24]], [], [0, 0, 0]))  # no right-hand sides
@example((3, 25, [[], [24], [0, 24]], [[0, 0, 0], [24, 0, 24]], [2, 2, 2]))
@example((3, 25, [[], [24], [24, 24]], [[1, 24, 24], [0, 24, 24]], [1, 2, 2]))
def test_forward_substitute_matches_per_vector_oracle(case):
    # The rows of L and of the right-hand sides are read one at a time; a
    # row of X stops where its row of R does.
    n, mod, lower, rhss, cuts = case
    want = [oracles.forward_substitute(lower, rhs, mod) for rhs in rhss]
    rows = ([v[r] for v in rhss[:cut]] for r, cut in enumerate(cuts))
    X = forward_substitute(iter(lower), rows, mod, n)
    assert [len(x) for x in X] == cuts
    padded = [x + [0] * (len(rhss) - len(x)) for x in X]
    assert [list(column) for column in zip(*padded)] == want


@st.composite
def one_member_cases(draw):
    """(n, mod, lower, rhs): the strictly lower rows of an arbitrary
    unit-lower-triangular matrix of up to 16 rows whose strictly lower
    entries lie in its first n columns, n up to the row count, each row cut
    to min(r, n) entries, and one right-hand side of any integers."""
    rows = draw(st.integers(0, 16))
    n = draw(st.integers(0, rows))
    mod = draw(st.sampled_from([5, 7, 11])) ** draw(st.integers(1, 12))
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))
    lower = [draw(st.lists(coeff, min_size=min(r, n), max_size=min(r, n))) for r in range(rows)]
    rhs = draw(st.lists(st.integers(-2 * mod, 2 * mod), min_size=rows, max_size=rows))
    return n, mod, lower, rhs


@given(one_member_cases())
@settings(max_examples=80, deadline=None)
@example((0, 5, [], []))  # no rows
@example((1, 25, [[], [24], [24]], [1, 0, 0]))  # n = 1 < 3 rows
@example((2, 125, [[], [124], [124, 124], [0, 124]], [-1, 250, 0, 124]))
def test_forward_substitute_one_member_matches_the_oracle(case):
    # Rows of R that hold one value each, as psi's peel passes them, are
    # solved over plain residues; they agree with the oracle and with the
    # packed path, which solves the same vector twice over.  A right-hand
    # side with no values gives rows of X with none.
    n, mod, lower, rhs = case
    want = oracles.forward_substitute(lower, rhs, mod)
    X = forward_substitute(iter(lower), ([v] for v in rhs), mod, n)
    assert X == [[x] for x in want]
    assert forward_substitute(iter(lower), ([v, v] for v in rhs), mod, n) == [[x, x] for x in want]
    assert forward_substitute(iter(lower), ([] for _ in rhs), mod, n) == [[] for _ in rhs]
