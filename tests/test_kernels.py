"""The fast kernels against the slow reference oracles in tests/oracles.py:
the Kronecker series product, the packed row solve, the Newton factorization
of the Vandermonde systems, the gcd-driven valuation minima, the
tangent-number Bernoulli numbers, the step-by-step basis matrix, the rows
solved on their Katz coordinates, the sieved sigma* of E*_k, the sparse
division by V(E*_k), and the forward substitution packed over right-hand
sides."""

import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import oracles
from katzrates import classical, solver
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import build_matrix, dim_mk
from katzrates.classical import bernoulli, eisenstein_star
from katzrates.expand import forward_substitute, forward_substitute_many
from katzrates.family import eis_ratio_by_s
from katzrates.solver import (
    KatzBasis,
    UnsolvableSystem,
    _check_kernel,
    _min_val,
    build_system,
    collect_statuses,
    row_solutions,
    weight_list,
)


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
    # one side and on both (the q^s shift), and one operand all p^e - 1,
    # whose sums fill the slot width, at even and odd slot byte counts.
    ring, a, b = case
    f, g = _series(ring, a), _series(ring, b)
    assert f * g == oracles.schoolbook_mul(f, g)
    assert f * f == oracles.schoolbook_mul(f, f)


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
    f, g = _series(ring, make()), _series(ring, make())
    assert f * g == oracles.schoolbook_mul(f, g)
    assert f * f == oracles.schoolbook_mul(f, f)  # f * f squares both evaluations
    assert f * _series(ring, [0] * n) == _series(ring, [0] * n)


def test_product_multiplies_only_the_surviving_slots(ks2_products):
    # q^3 u times q^5 v mod q^20 keeps the 12 slots from q^8 on, and a square
    # of q^3 u the 14 from q^6: only those are split, packed and multiplied.
    ring = RingSpec(7, 4)
    f = _series(ring, [0] * 3 + list(range(1, 18)))
    g = _series(ring, [0] * 5 + list(range(100, 115)))
    assert f * g == oracles.schoolbook_mul(f, g)
    assert f * f == oracles.schoolbook_mul(f, f)
    assert ks2_products == [
        ("arithmetic", 12, 6, 6, 6, 6),
        ("arithmetic", 14, 7, 7, None, None),
    ]


@pytest.mark.parametrize("bad", [-1, 125, 10**9])
def test_kronecker_product_rejects_noncanonical_coefficients(bad):
    ring = RingSpec(5, 3)
    good = _series(ring, [1, 2, 3])
    out_of_range = _series(ring, [1, bad, 3])
    with pytest.raises(ValueError, match="must lie in"):
        good * out_of_range
    with pytest.raises(ValueError, match="must lie in"):
        out_of_range * good
    with pytest.raises(ValueError, match="must lie in"):
        out_of_range * out_of_range


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
            system.solve_many(thetas)
        return
    # Inputs are reduced mod p^lam first, so shifted representatives agree.
    shift = data.draw(st.integers(-3, 3))
    shifted = [[t + shift * mod for t in theta] for theta in thetas]
    assert system.solve_many(shifted) == expected
    assert [system.solve_many([theta])[0] for theta in shifted] == expected
    for theta, x in zip(thetas, expected):
        assert oracles.apply(system, x) == list(theta)


def test_solve_reduces_inputs_mod_p_lambda():
    system = build_system(5, 4)
    theta = oracles.apply(system, [1, 2, 3, 4])
    mod = system.modulus
    want = system.solve_many([theta])
    assert system.solve_many([[t - mod for t in theta]]) == want
    assert system.solve_many([[t + 7 * mod for t in theta]]) == want
    assert system.solve_many([]) == []


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
                    reduced.solve_many([theta], count)
            else:
                assert reduced.solve_many([theta], count) == [want]
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


@given(systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_check_matches_the_generator_oracle(system, data):
    # One entry of B replaced: the check at precision p^t_k rejects exactly
    # the columns whose generator p^(lam - t_k).B[:,k] no longer annihilates V.
    p, lam = system.p, system.lam
    V = oracles.vandermonde(system)
    B = oracles.matrices(system)[1]
    i, k = data.draw(st.integers(0, lam - 1)), data.draw(st.integers(0, lam - 1))
    B[i][k] = data.draw(st.integers(0, system.modulus - 1))
    nodes = oracles.weights(system)
    if oracles.kernel_annihilates(V, B, system._ts, p, lam):
        _check_kernel(nodes, B, system._ts, p, lam)
    else:
        with pytest.raises(AssertionError, match=f"generator {k} "):
            _check_kernel(nodes, B, system._ts, p, lam)


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
    with mock.patch.object(solver, "_packed_vandermonde") as built:
        if failing:
            with pytest.raises(AssertionError, match=f"generator {failing[0]} "):
                _check_kernel(nodes, B, ts, p, lam)
        else:
            _check_kernel(nodes, B, ts, p, lam)
    assert built.call_count == 0


@given(systems(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_check_decides_a_column_off_newton_form_on_v(system, harmless, data):
    # B[i][k] moved by delta with v(delta) < t_k, so column k no longer agrees
    # with N_k mod p^t_k and is multiplied against V.  With i >= 1 and
    # v(delta) >= t_k - i, delta.w^i = 0 mod p^t_k at every node (v(w) >= 1):
    # the column still annihilates V.  At row 0, V.B[:,k] moves by delta in
    # every slot: generator k fails.
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
    with mock.patch.object(
        solver, "_packed_vandermonde", wraps=solver._packed_vandermonde
    ) as built:
        if harmless:
            _check_kernel(nodes, B, ts, p, lam)
        else:
            with pytest.raises(AssertionError, match=f"generator {k} "):
                _check_kernel(nodes, B, ts, p, lam)
    assert built.call_count == 1


def test_build_system_builds_no_vandermonde_matrix(monkeypatch):
    # Every column of B is a Newton polynomial, checked in product form.
    def refuse(*args):
        raise AssertionError("V was built")

    monkeypatch.setattr(solver, "_packed_vandermonde", refuse)
    for p, lam in [(5, 1), (5, 60), (11, 28), (13, 30)]:
        build_system(p, lam)
    build_system(7, 6, [9, 2, 16, 1, 23, 3])  # not p-ordered


@given(
    st.sampled_from([5, 7, 11]),
    st.integers(1, 20),
    st.lists(st.integers(-(10**30), 10**30), max_size=8),
    st.lists(st.integers(0, 20), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_gcd_valuation_matches_padic_val_loop(p, lam, values, powers):
    # Pure powers of p, including multiples of p^lam, exercise the cap.
    values = values + [p**k for k in powers]
    assert _min_val(values, p, lam) == oracles.min_val(values, p, lam)


@given(systems())
@settings(max_examples=30, deadline=None)
def test_gamma_matches_padic_val_loop(system):
    gens = oracles.kernel_gens(system)
    for j in range(system.lam):
        gamma = oracles.min_val([g[j] for g in gens], system.p, system.lam)
        assert system.gamma[j] == gamma


def test_bernoulli_matches_recurrence():
    table = oracles.bernoulli_table(300)
    assert [bernoulli(k) for k in range(301)] == table


def test_bernoulli_table_regrows_geometrically(monkeypatch):
    monkeypatch.setattr(classical, "_TANGENT", [])
    bernoulli(20)
    assert len(classical._TANGENT) == 10
    bernoulli(22)  # needs T_11: regrow to 2 * 10
    assert len(classical._TANGENT) == 20
    bernoulli(100)  # needs T_50 > 2 * 20
    assert len(classical._TANGENT) == 50
    bernoulli(7)  # odd and small values need no table
    assert len(classical._TANGENT) == 50


@pytest.mark.parametrize("p, n, E", [(17, 20, 38), (5, 6, 1), (11, 5, 7)])
def test_katz_basis_sizes_the_tangent_table_once(monkeypatch, p, n, E):
    # A fresh build asks for B_k at its batch's largest weight first, so the
    # table holds T_1..T_{k/2}; regrown weight by weight, it would reach the
    # next doubling (512 for 17/20 at E = 38, where 320 are needed).
    monkeypatch.setattr(classical, "_TANGENT", [])
    KatzBasis(p, n, E).row_coords(1, n, 1)
    k_max = weight_list(p, E)[-1] * (p - 1)
    assert len(classical._TANGENT) == k_max // 2


_PRIMES = [5, 7, 11, 13, 17, 19, 23]


@given(st.sampled_from(_PRIMES), st.integers(0, 30), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
@example(17, 20, 3)
@example(11, 0, 1)
def test_build_matrix_matches_direct_column_oracle(p, n, e):
    ring = RingSpec(p, e)
    assert build_matrix(p, n, ring).columns == oracles.direct_columns(p, n, ring)


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
        _, sols = row_solutions(p, r, lam, system=system)
    except UnsolvableSystem:
        with pytest.raises(UnsolvableSystem):
            oracles.q_coefficient_solutions(system, r, count)
        return
    want = oracles.q_coefficient_solutions(system, r, count)
    assert collect_statuses(system, sols, lam - 1, r) == collect_statuses(
        system, want, lam - 1, r
    )


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
    assert eisenstein_star(k, ring, N) == oracles.eisenstein_star_trial(k, ring, N)


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
def substitution_cases(draw):
    """(p, n, C, rhss): a basis matrix and up to 6 right-hand sides, with 0
    and p^C - 1 drawn often."""
    p = draw(st.sampled_from(_FAMILY_PRIMES))
    n = draw(st.integers(0, 14))
    C = draw(st.integers(1, 10))
    N, mod = dim_mk(n * (p - 1)), p**C
    coeff = st.one_of(st.just(0), st.just(mod - 1), st.integers(0, mod - 1))
    vector = st.lists(coeff, min_size=N, max_size=N)
    return p, n, C, draw(st.lists(vector, max_size=6))


@given(substitution_cases())
@settings(max_examples=60, deadline=None)
@example((5, 0, 1, [[1]]))  # N = 1
@example((7, 3, 2, []))
def test_forward_substitute_many_matches_per_vector_oracle(case):
    p, n, C, rhss = case
    matrix = build_matrix(p, n, RingSpec(p, C))
    lower = oracles.strictly_lower_rows(matrix)
    want = [oracles.forward_substitute(lower, rhs, p**C) for rhs in rhss]
    assert forward_substitute_many(matrix, rhss) == want


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
