"""Tests for the Vandermonde systems and the valuation recovery of row r."""

import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import padic_val
from katzrates import expand as expand_module
from katzrates import family as family_module
from katzrates import solver as solver_module
from katzrates import sweep as sweep_module
from katzrates.arithmetic import RingSpec
from katzrates.basis import block, columns, dim_mk
from katzrates.expand import psi
from katzrates.family import eis_ratio_by_s
from katzrates.solver import (
    KatzBasis,
    UnsolvableSystem,
    build_system,
    collect_statuses,
    f_bound,
    solve_row,
    weight_list,
)


def test_f_bound_examples():
    assert f_bound(5, 1) == 0
    assert f_bound(5, 5) == 1
    assert f_bound(5, 9) == 2
    assert f_bound(7, 7) == 1


def test_nu_w_examples():
    # nu(w) = nu_p((1+p)^k - 1) = nu_p(k) + 1, read mod p^e.
    for p, k, want in [(5, 4, 1), (5, 20, 2), (7, 42, 2), (5, 100, 3)]:
        assert padic_val(pow(p + 1, k, p**6) - 1, p, 6) == want
    assert padic_val(pow(6, 20, 5**2) - 1, 5, 2) == 2  # e too small: capped


def test_weight_list_examples():
    assert weight_list(5, 5) == [1, 2, 3, 4, 6]
    assert weight_list(7, 3) == [1, 2, 3]
    assert weight_list(5, 9) == [1, 2, 3, 4, 6, 7, 8, 9, 11]
    assert weight_list(5, 8)[-1] == 9 and weight_list(7, 12)[-1] == 13
    system = build_system(5, 4)
    assert system.ss == (1, 2, 3, 4)
    for w in oracles.weights(system):
        assert padic_val(w, 5, 4) == 1


def test_build_system_lambda_one():
    sys1 = build_system(5, 1)
    assert oracles.vandermonde(sys1) == [[1]]
    assert oracles.kernel_gens(sys1) == []
    assert sys1.gamma == (1,)  # at least lam


def test_kernel_generators_annihilate():
    for p, lam in [(5, 4), (5, 7), (7, 5), (11, 3)]:
        system = build_system(p, lam)
        gens = oracles.kernel_gens(system)
        assert gens  # Vandermonde in p-divisible w's is singular
        for g in gens:
            assert all(v == 0 for v in oracles.apply(system, g))


def test_gamma_meets_kernel_bound():
    # gamma_j >= lam + 1 - j - f(lam) with 1-based component j.
    for lam in range(2, 13):
        system = build_system(5, lam)
        for j1 in range(1, lam + 1):
            bound = lam + 1 - j1 - f_bound(5, lam)
            assert system.gamma[j1 - 1] >= bound


def test_solve_returns_actual_solution():
    rng = random.Random(5)
    system = build_system(5, 6)
    mod = system.modulus
    for _ in range(20):
        x = [rng.randrange(mod) for _ in range(6)]
        theta = oracles.apply(system, x)
        (sol,) = oracles.solve_many(system, [theta])
        assert oracles.apply(system, sol) == theta


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_weight_lists_are_p_ordered_in_natural_order(p):
    # The valuations the ordering compares at lam are those at 80 capped at
    # lam, and ties go to the first index, so a natural order at 80 is one at
    # every lam <= 80; the smaller lam exercise the caps.
    for lam in sorted({1, 2, p - 1, p, p + 1, 40, 80}):
        ws = [oracles.coordinate(p, s, lam) for s in weight_list(p, lam)]
        assert solver_module._newton_diagonalize(ws, p, lam)[3] == list(range(lam))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 40), st.data())
def test_reduced_system_serves_like_a_fresh_build(p, E, data):
    lam = data.draw(st.integers(1, E))
    served, fresh = build_system(p, E).reduce(lam), build_system(p, lam)
    assert served.ss == fresh.ss
    assert oracles.vandermonde(served) == oracles.vandermonde(fresh)
    assert served._ts == fresh._ts and served.gamma == fresh.gamma
    for g in oracles.kernel_gens(served):
        assert not any(oracles.apply(served, g))
    vectors = st.lists(st.integers(0, p**lam - 1), min_size=lam, max_size=lam)
    thetas = [oracles.apply(fresh, data.draw(vectors)) for _ in range(3)]
    # Row 0: random thetas may give an exact j = 0 entry, which any row
    # r >= 1 refuses (b_{r,0} = 0).
    assert collect_statuses(
        served, oracles.solve_many(served, thetas), lam - 1, 0
    ) == collect_statuses(fresh, oracles.solve_many(fresh, thetas), lam - 1, 0)
    # e_{lam-1} is outside the image once t_{lam-1} >= 1, which holds from
    # lam = 2; a random theta is solvable for both or for neither.
    unsolvable = [0] * (lam - 1) + [1]
    for theta in [unsolvable] * (lam > 1) + [data.draw(vectors)]:
        try:
            oracles.solve_many(fresh, [theta])
        except UnsolvableSystem:
            with pytest.raises(UnsolvableSystem):
                oracles.solve_many(served, [theta])
        else:
            assert theta is not unsolvable
            oracles.solve_many(served, [theta])


def test_reduce_refuses_what_it_cannot_serve():
    nested = build_system(5, 4)
    with pytest.raises(ValueError, match="cannot reduce"):
        nested.reduce(5)
    assert nested.reduce(4) is nested


def test_build_system_keeps_its_weights_in_p_order():
    # The p-ordering of s = 1, 6, 2 takes 2 before 6: v(w_6 - w_1) = 2.
    system = build_system(5, 3, [1, 6, 2])
    assert system.ss == (1, 2, 6)
    assert system.reduce(2).ss == (1, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(1, 24), st.data())
def test_reduce_serves_a_system_on_shuffled_weights(p, E, data):
    # Any weights are kept in the p-order their factorization finds, so
    # every system reduces: reduce(m) serves what a fresh build on its first
    # m weights does.
    ss = data.draw(st.permutations(weight_list(p, 2 * E)))[:E]
    system = build_system(p, E, ss)
    assert sorted(system.ss) == sorted(ss)
    assert oracles.is_p_ordered(p, E, oracles.weights(system))
    m = data.draw(st.integers(1, E))
    served, fresh = system.reduce(m), build_system(p, m, system.ss[:m])
    assert served.ss == fresh.ss
    assert served._ts == fresh._ts and served.gamma == fresh.gamma
    vectors = st.lists(st.integers(0, p**m - 1), min_size=m, max_size=m)
    thetas = [oracles.apply(fresh, data.draw(vectors)) for _ in range(3)]
    # Row 0, as above: a random theta may make j = 0 exact.
    assert collect_statuses(
        served, oracles.solve_many(served, thetas), m - 1, 0
    ) == collect_statuses(fresh, oracles.solve_many(fresh, thetas), m - 1, 0)


@pytest.mark.parametrize("k", [1, 6, 11])
def test_build_system_rejects_a_corrupted_kernel_column(monkeypatch, k):
    # Column 11 of (5, 12) has t = 12, so its generator is B[:,11] itself.
    real = solver_module._newton_diagonalize

    def corrupted(ws, p, lam):
        L, ts, cols, order = real(ws, p, lam)
        cols[k][0] += 1
        return L, ts, cols, order

    monkeypatch.setattr(solver_module, "_newton_diagonalize", corrupted)
    with pytest.raises(AssertionError, match=f"generator {k} "):
        build_system(5, 12)


def test_sturm_count():
    assert oracles.sturm_count(5, 3) == 1
    assert oracles.sturm_count(5, 30) == 10
    assert oracles.sturm_count(7, 1) == 1
    assert oracles.sturm_count(5, 0) == 0


def test_katz_row_coeffs_r0():
    # Row 0 has the single basis form g_{0,0} = 1, and every family member
    # has constant term 1, so its coordinate is 1 and its q-coefficients are
    # (1, 0, 0, ...): the coordinate solution is the a_0 solution, and the
    # a_mu solutions for mu >= 1 vanish.
    basis = KatzBasis(3, build_system(5, 3, [7, 1, 2]))
    assert [oracles.basis_coords(basis, s, 0, 3) for s in (7, 1, 2)] == [(1,)] * 3
    system, sols = KatzBasis(0, build_system(5, 3)).solutions(0, 3)
    want = oracles.q_coefficient_solutions(system, 0, 4)
    assert sols == want[:1]
    assert want[1:] == [(0, 0, 0)] * 3


def test_solve_row_r0_exact_zero():
    row = solve_row(5, 0, 1)
    assert row.entries[0].exact and row.entries[0].value == 0


def test_solve_row_j0_inconclusive_for_positive_r():
    for p in (5, 7):
        for r in (3, 5, 8):
            row = solve_row(p, r, 8)
            lo, hi = block(p, r)
            if lo == hi:  # r = 5: b_{r,j} = 0, no entries
                assert row.entries == {}
            else:
                assert not row.entries[0].exact


@pytest.mark.parametrize("p, r, lam", [(11, 5, 4), (5, 1, 3), (5, 200, 2), (7, 5, 8)])
def test_solve_row_of_an_empty_block_has_no_entries(p, r, lam):
    # b_{r,j} = 0 for every j when the dimension does not grow from weight
    # (r-1)(p-1) to r(p-1); a sweep records no entries for such a row, and
    # solve_row gives none either, on a basis of its own or one given.
    # Past solve_row's early return, the block has no solutions, and no
    # solutions give no entries.
    lo, hi = block(p, r)
    assert lo == hi
    assert solve_row(p, r, lam).entries == {}
    basis = KatzBasis(r, build_system(p, lam))
    assert solve_row(p, r, lam, basis=basis).entries == {}
    system, solutions = basis.solutions(r, lam)
    assert solutions == []
    assert collect_statuses(system, solutions, lam - 1, r) == {}


def test_an_exact_weight_0_entry_is_refused_past_row_0():
    # b_{r,0} = 0 for r >= 1 (E*_0 / V(E*_0) = 1), so a solution whose
    # component 0 has valuation 1 < gamma_0 = 4 proves a fault at row 1; at
    # row 0 the entry is exact.  A real row's j = 0 entry is inconclusive,
    # as at every r >= 1 of every golden CSV.
    system = build_system(5, 4)
    assert system.gamma[0] == 4
    solutions = [(5, 0, 0, 0), (25, 1, 0, 0)]
    assert collect_statuses(system, solutions, 3, 0)[0].value == 1
    with pytest.raises(AssertionError, match="row 1: exact j = 0 entry"):
        collect_statuses(system, solutions, 3, 1)
    _, real = KatzBasis(3, system).solutions(3, 4)
    assert not collect_statuses(system, real, 3, 3)[0].exact


def test_particular_solutions_satisfy_systems():
    system, sols = KatzBasis(6, build_system(5, 8)).solutions(6, 8)
    _, coords_check = KatzBasis(6, system).solutions(6, 8)
    for a, b in zip(sols, coords_check):
        assert a == b  # deterministic
    # The solver contract: each solution solves its system (checked via theta
    # reconstruction in test_solve_returns_actual_solution; here via statuses).
    statuses = collect_statuses(system, sols, 5, 6)
    assert set(statuses) == set(range(6))


def test_ambiguity_invariance():
    # Perturbing particular solutions by kernel elements never changes an
    # exact entry.
    rng = random.Random(17)
    p, r, lam = 5, 6, 9
    system, sols = KatzBasis(r, build_system(p, lam)).solutions(r, lam)
    base = collect_statuses(system, sols, min(r, lam - 1), r)
    mod = system.modulus
    for _ in range(10):
        perturbed = []
        for sol in sols:
            delta = [0] * lam
            for g in oracles.kernel_gens(system):
                c = rng.randrange(mod)
                delta = [(d + c * gi) % mod for d, gi in zip(delta, g)]
            perturbed.append(tuple((a + d) % mod for a, d in zip(sol, delta)))
        got = collect_statuses(system, perturbed, min(r, lam - 1), r)
        for j, st in base.items():
            if st.exact:
                assert got[j].exact and got[j].value == st.value


def test_sturm_sufficiency_small_cases():
    # Extending mu beyond S never lowers any alpha_{r,j}.
    p, lam = 5, 8
    for r in (3, 6, 9):
        system = build_system(p, lam)
        _, sols = KatzBasis(r, system).solutions(r, lam)
        # q-coefficients a_0..a_{S+5} of the r-th component, past the Sturm
        # count S.
        count = oracles.sturm_count(p, r) + 6
        all_sols = oracles.q_coefficient_solutions(system, r, count)
        for j in range(min(r, lam - 1) + 1):
            alpha_s = min(padic_val(s[j], p, lam) for s in sols)
            alpha_ext = min(padic_val(s[j], p, lam) for s in all_sols)
            assert alpha_ext <= alpha_s
            # Above the ambiguity threshold the measured valuation depends
            # on which particular solution the solver picked, so only
            # decided entries must agree.
            if alpha_s < system.gamma[j]:
                assert alpha_ext == alpha_s


def test_monotone_refinement():
    # More weights never flip an exact value; they can only decide entries.
    p, r = 5, 6
    lo = solve_row(p, r, 7)
    hi = solve_row(p, r, 11)
    for j, st in lo.entries.items():
        if st.exact:
            assert hi.entries[j].exact
            assert hi.entries[j].value == st.value


def test_int_val():
    # The valuation of an integer is padic_val's at any cap above it; 0 has
    # none, only "at least the cap".
    assert padic_val(50, 5, 3) == 2
    assert padic_val(-50, 5, 3) == 2
    assert padic_val(7, 5, 1) == 0
    assert padic_val(0, 5, 3) == 3
    assert padic_val(125, 5, 3) == 3


def test_solve_row_rejects_large_j_max():
    with pytest.raises(ValueError):
        solve_row(5, 3, 2, j_max=5)


@pytest.mark.parametrize(
    "r, lam, j_max, reason",
    [
        (-1, 3, None, "row r = -1 must be >= 0"),
        (-5, 3, 0, "row r = -5 must be >= 0"),
        (3, 3, -1, r"j_max = -1 lies outside 0\.\.lam - 1"),
        (3, 0, None, "lam must be >= 1"),
    ],
)
def test_solve_row_rejects_a_bad_row_or_cut_off(r, lam, j_max, reason):
    # A negative row is not an empty block, and a negative j_max is not a
    # row with no entries: both are refused.
    with pytest.raises(ValueError, match=reason):
        solve_row(5, r, lam, j_max=j_max)


@pytest.mark.parametrize("lam", [7, 11])
def test_solve_row_rejects_a_system_at_another_lambda(lam):
    # A system is passed only inside its KatzBasis, so coordinates and system
    # share one precision E = 9: below E both are reduced to lam, and the row
    # is that of a fresh solve at lam; above E the basis refuses lam, where a
    # row labelled lam would hold entries computed at 9.
    basis = KatzBasis(6, build_system(5, 9))
    if lam > basis.E:
        with pytest.raises(ValueError, match=r"lam = 11 lies outside 1\.\.9"):
            solve_row(5, 6, lam, basis=basis)
    else:
        assert solve_row(5, 6, lam, basis=basis) == solve_row(5, 6, lam)
    assert solve_row(5, 6, 9, basis=basis) == solve_row(5, 6, 9)


@st.composite
def basis_requests(draw):
    """(p, n, r, E, lam, s): a KatzBasis for (p, n) on a system over Z/p^E,
    asked for row r at lam <= E and weight s, the first of the E naturals
    prime to p from s on that make up the system."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.integers(0, 12))
    r = draw(st.integers(0, n))
    E = draw(st.integers(1, 8))
    lam = draw(st.integers(1, E))
    s = draw(st.integers(1, 30).filter(lambda s: s % p))
    return p, n, r, E, lam, s


def _basis_on(p, n, E, s):
    """A KatzBasis for (p, n) on the E naturals prime to p from s on: they
    are distinct mod p^(E-1), so their coordinates are distinct mod p^E."""
    ss = [t for t in range(s, s + 2 * E) if t % p][:E]
    return KatzBasis(n, build_system(p, E, ss))


@settings(max_examples=60, deadline=None)
@given(basis_requests())
@example((17, 20, 20, 6, 4, 3))
@example((11, 5, 5, 3, 3, 1))
def test_katz_basis_fold_is_l_inverse_of_the_psi_coordinates(req):
    # The build keeps X, psi's coordinates of each family member, unfolded;
    # a row's solve folds L^-1 into its block inside VandermondeSystem.solve.
    # At E and at lam its solutions are those of the independent dense route
    # (oracles.solve_one: the dense inverse of the system's L applied across
    # the first lam weights, then B) on the block of psi's coordinates.
    p, n, r, E, lam, s = req
    basis = _basis_on(p, n, E, s)
    assert basis.E == E
    ss, N = basis.solutions(r, E)[0].ss, dim_mk(n * (p - 1))
    X = [psi(p, n, E, eis_ratio_by_s(p, t, E, N)).x for t in ss]
    assert [list(x) for x in basis._coords] == [list(x) for x in zip(*X)]
    lo, hi = block(p, r)
    for at in (E, lam):
        system, solutions = basis.solutions(r, at)
        thetas = [[x[b] % p**at for x in X[:at]] for b in range(lo, hi)]
        assert solutions == [oracles.solve_one(system, theta) for theta in thetas]


@settings(max_examples=60, deadline=None)
@given(basis_requests(), st.integers(1, 40))
@example((17, 20, 20, 6, 4, 3), 40)
@example((11, 5, 5, 3, 3, 1), 40)
def test_katz_basis_row_forms_match_g_form(req, count):
    # The columns of row r in the basis chain, built at E and reduced mod
    # p^lam, are g_{r,j} / E_{p-1}^r for the g_form forms g_{r,j}.
    p, n, r, E, lam, s = req
    ring = RingSpec(p, E)
    cols = list(columns(p, n, ring))
    count = min(count, len(cols))
    N, mod = len(cols), ring.modulus
    e_r = [1] + [0] * (N - 1)
    if r:
        e_r = oracles.power(oracles.level_one_trial(ring, N)[2], r, mod)
    lo, hi = block(p, r)
    small = RingSpec(p, lam)
    got = tuple(
        tuple(c % small.modulus for c in oracles.times(cols[j], e_r, mod)[:count])
        for j in range(lo, hi)
    )
    want = tuple(
        oracles.g_form(p, r, j, small, count).series.coeffs for j in range(lo, hi)
    )
    assert got == want


def test_a_row_solve_reads_only_the_fold(monkeypatch):
    # Once the basis is built, a row's solve computes no family member and
    # runs no peel: it folds L^-1 into its own block of the basis's X, and
    # reads only the entries k < lam there.  Every other entry is None in a
    # copy of the basis, so reading one would raise, and the rows of the
    # copy are those of the basis.
    basis = KatzBasis(20, build_system(11, 12))
    want = {
        (r, lam): solve_row(11, r, lam, basis=basis) for r in range(21) for lam in (3, 9, 12)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("called by a row's solve")

    monkeypatch.setattr(solver_module, "eis_ratios", refuse)
    monkeypatch.setattr(solver_module, "_peel", refuse)
    for (r, lam), row in want.items():
        lo, hi = block(11, r)
        only = copy.copy(basis)
        only._coords = [
            x[:lam] + [None] * (basis.E - lam) if lo <= b < hi else None
            for b, x in enumerate(basis._coords)
        ]
        assert solve_row(11, r, lam, basis=only) == row


def test_katz_basis_solves_through_the_one_peel(monkeypatch):
    # The basis system has one solver, expand._peel, which psi also calls:
    # a KatzBasis cannot be built around it.
    assert solver_module._peel is expand_module._peel

    def refuse(*args, **kwargs):
        raise AssertionError("the basis system was solved by _peel")

    monkeypatch.setattr(solver_module, "_peel", refuse)
    with pytest.raises(AssertionError, match="solved by _peel"):
        KatzBasis(20, build_system(11, 12))


def test_katz_basis_rejects_row_beyond_n():
    basis = KatzBasis(20, build_system(17, 2))
    # Row 21's block lies past the basis's coordinates: refused, not cut short.
    with pytest.raises(ValueError, match="row 21 is outside 0..20"):
        basis.solutions(21, 2)


def test_katz_basis_refuses_a_precision_or_prime_it_does_not_hold():
    # lam must lie in 1..E, on every row, and the basis is over its
    # system's p; lam may not surface as a KeyError or as RingSpec's "e must
    # be >= 1", and a row of another prime is refused.
    basis = KatzBasis(6, build_system(5, 4))
    for lam in (0, -1, 5):
        with pytest.raises(ValueError, match=rf"lam = {lam} lies outside 1\.\.4"):
            basis.solutions(6, lam)
        with pytest.raises(ValueError, match=rf"lam = {lam} lies outside 1\.\.4"):
            basis.solutions(0, lam)
    assert basis.p == 5
    with pytest.raises(ValueError, match="p = 5, not 7"):
        solve_row(7, 6, 4, basis=basis)


@pytest.mark.parametrize("r", [4, 5])
def test_solve_row_refuses_a_basis_for_another_prime(r):
    # Coordinates over p = 5 read as a p = 7 row would label wrong entries
    # exact (row 4's j = 3 as 1 where the value is 0); row 5's block is
    # empty at p = 7 and is refused all the same.
    basis = KatzBasis(12, build_system(5, 8))
    with pytest.raises(ValueError, match="basis is over p = 5, not 7"):
        solve_row(7, r, 6, basis=basis)


def test_katz_basis_builds_at_plan_then_steps(basis_builds, system_builds):
    # The sweep's first row builds its basis at max(lam, plan), so at exactly
    # lam with no plan; a row above E rebuilds at lam + PLAN_SLACK; every
    # other row reduces.  Each basis is built on a system factored at its E,
    # and serves it at lam like a fresh build.
    assert sweep_module.PLAN_SLACK == 2
    for plan, want in [(0, [3, 6, 15]), (10, [10, 15]), (20, [20])]:
        basis_builds.clear()
        system_builds.clear()
        basis = None
        for lam in (3, 2, 4, 6, 5, 13, 12):
            basis = sweep_module._basis_for(5, 6, lam, basis, plan)
            served, fresh = basis.solutions(0, lam)[0], build_system(5, lam)
            assert served.lam == lam
            assert served.ss == fresh.ss
            assert (oracles.matrices(served)[1], served._ts, served.gamma) == (
                oracles.matrices(fresh)[1],
                fresh._ts,
                fresh.gamma,
            )
            assert basis.solutions(0, lam)[0] is served
        assert basis_builds == want
        assert system_builds == basis_builds
        assert basis.E == want[-1]


def test_katz_basis_batches_the_weight_list(monkeypatch):
    # One build computes the family members at every weight of its system,
    # in the system's order, in one call, whose divisor sums take one sieve
    # across exactly those weights: the exponents k - 1 = 4s - 1 (p = 5),
    # over the divisors prime to p.  Solving rows computes nothing more.
    calls, sieves = [], []
    real, real_sieve = solver_module.eis_ratios, family_module.sigma_star_rows

    def counting(p, ss, lam, N):
        calls.append(list(ss))
        return real(p, ss, lam, N)

    def counting_sieve(p, ms, N, mod):
        sieves.append((p, list(ms)))
        return real_sieve(p, ms, N, mod)

    monkeypatch.setattr(solver_module, "eis_ratios", counting)
    monkeypatch.setattr(family_module, "sigma_star_rows", counting_sieve)
    basis = KatzBasis(6, build_system(5, 4))
    assert calls == [weight_list(5, 4)] == [[1, 2, 3, 4]]
    assert sieves == [(5, [3, 7, 11, 15])]
    for r in range(7):
        for lam in range(1, 5):
            solve_row(5, r, lam, basis=basis)
    assert (calls, sieves) == ([[1, 2, 3, 4]], [(5, [3, 7, 11, 15])])


def test_katz_basis_never_holds_the_column_chain(monkeypatch):
    # The build takes S_0..S_K off the chain, K = _chunk(11, 42, 6) = 25 for
    # its 6 weights, and drops them once their rows are copied out: at most
    # K + 1 columns are ever made or alive, where a list of the chain would
    # hold all N = 42.
    live, peak, made = [0], [0], [0]

    class Column(tuple):
        def __del__(self):
            live[0] -= 1

    real = solver_module.columns

    def counting(p, n, ring):
        for col in real(p, n, ring):
            live[0] += 1
            made[0] += 1
            peak[0] = max(peak[0], live[0])
            yield Column(col)

    monkeypatch.setattr(solver_module, "columns", counting)
    basis = KatzBasis(50, build_system(11, 6))
    assert len(basis._coords) == dim_mk(50 * 10) == 42
    assert live[0] == 0
    K = expand_module._chunk(11, 42, 6)
    assert K + 1 < 42
    assert peak[0] == made[0] == K + 1
    monkeypatch.undo()
    assert basis._coords == KatzBasis(50, build_system(11, 6))._coords
