"""Tests for the Vandermonde systems and the valuation recovery of row r."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import padic_val
from katzrates import solver as solver_module
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import block, dim_mk
from katzrates.classical import e_p_minus_1
from katzrates.expand import psi
from katzrates.family import eis_ratio_by_s
from katzrates.solver import (
    PLAN_SLACK,
    KatzBasis,
    UnsolvableSystem,
    build_system,
    collect_statuses,
    f_bound,
    row_solutions,
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
        (sol,) = system.solve_many([theta])
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
    assert collect_statuses(
        served, served.solve_many(thetas), lam - 1, 1
    ) == collect_statuses(fresh, fresh.solve_many(thetas), lam - 1, 1)
    # e_{lam-1} is outside the image once t_{lam-1} >= 1, which holds from
    # lam = 2; a random theta is solvable for both or for neither.
    unsolvable = [0] * (lam - 1) + [1]
    for theta in [unsolvable] * (lam > 1) + [data.draw(vectors)]:
        try:
            fresh.solve_many([theta])
        except UnsolvableSystem:
            with pytest.raises(UnsolvableSystem):
                served.solve_many([theta])
        else:
            assert theta is not unsolvable
            served.solve_many([theta])


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
    assert collect_statuses(
        served, served.solve_many(thetas), m - 1, 1
    ) == collect_statuses(fresh, fresh.solve_many(thetas), m - 1, 1)


@pytest.mark.parametrize("k", [1, 6, 11])
def test_build_system_rejects_a_corrupted_kernel_column(monkeypatch, k):
    # Column 11 of (5, 12) has t = 12, so its generator is B[:,11] itself.
    real = solver_module._newton_diagonalize

    def corrupted(ws, p, lam):
        A, ts, B, order = real(ws, p, lam)
        B[0][k] += 1
        return A, ts, B, order

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
    assert KatzBasis(5, 3).row_coords(7, 0, 3) == (1,)
    system, sols = row_solutions(5, 0, 3)
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
            assert not row.entries[0].exact


def test_particular_solutions_satisfy_systems():
    system, sols = row_solutions(5, 6, 8)
    _, coords_check = row_solutions(5, 6, 8, system=system)
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
    system, sols = row_solutions(p, r, lam)
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
        _, sols = row_solutions(p, r, lam, system=system)
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


@pytest.mark.parametrize("lam", [7, 11])
def test_solve_row_rejects_a_system_at_another_lambda(lam):
    # A system given fixes lam.  Mixed with coordinates mod 5^7 it raised a
    # false UnsolvableSystem; at 11 it gave a row labelled lam = 11 whose
    # entries were computed at 9.
    system = build_system(5, 9)
    with pytest.raises(ValueError, match=r"lam = \d+, but the system given is over Z/p\^9"):
        solve_row(5, 6, lam, system=system)
    assert solve_row(5, 6, 9, system=system) == solve_row(5, 6, 9)


@st.composite
def basis_requests(draw):
    """(p, n, r, E, lam, s): a KatzBasis for (p, n) first used at precision E,
    then asked for row r at lam <= E."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.integers(0, 12))
    r = draw(st.integers(0, n))
    E = draw(st.integers(1, 8))
    lam = draw(st.integers(1, E))
    s = draw(st.integers(1, 30).filter(lambda s: s % p))
    return p, n, r, E, lam, s


@settings(max_examples=60, deadline=None)
@given(basis_requests())
@example((17, 20, 20, 6, 4, 3))
@example((11, 5, 5, 3, 3, 1))
def test_katz_basis_row_coords_match_psi(req):
    p, n, r, E, lam, s = req
    basis = KatzBasis(p, n)
    basis.row_coords(s, r, E)
    assert basis.E == E
    N = dim_mk(n * (p - 1))
    lo, hi = block(p, r)
    want = psi(p, n, lam, eis_ratio_by_s(p, s, lam, N)).x[lo:hi]
    assert basis.row_coords(s, r, lam) == want


@settings(max_examples=60, deadline=None)
@given(basis_requests(), st.integers(1, 40))
@example((17, 20, 20, 6, 4, 3), 40)
@example((11, 5, 5, 3, 3, 1), 40)
def test_katz_basis_row_forms_match_g_form(req, count):
    # The columns of row r in the basis matrix, built at E and reduced mod
    # p^lam, are g_{r,j} / E_{p-1}^r for the g_form forms g_{r,j}.
    p, n, r, E, lam, s = req
    basis = KatzBasis(p, n)
    basis.row_coords(s, r, E)
    ring = RingSpec(p, basis.E)
    count = min(count, basis.N)
    e_r = e_p_minus_1(ring, basis.N) ** r
    lo, hi = block(p, r)
    columns = [QSeries(ring, basis.matrix.columns[j]) for j in range(lo, hi)]
    got = tuple(oracles.reduce(c * e_r, lam).truncate(count).coeffs for c in columns)
    small = RingSpec(p, lam)
    want = tuple(
        oracles.g_form(p, r, j, small, count).series.coeffs for j in range(lo, hi)
    )
    assert got == want


def test_katz_basis_rejects_row_beyond_n():
    with pytest.raises(ValueError):
        KatzBasis(17, 20).row_coords(1, 21, 2)


def test_katz_basis_builds_at_plan_then_steps(matrix_builds, system_builds):
    # The first request builds at max(lam, plan), so at exactly lam with no
    # plan; a request above E rebuilds at lam + PLAN_SLACK; every other
    # request reduces.  The system is factored at each E the basis is built
    # at, and served at lam like a fresh build.
    assert PLAN_SLACK == 2
    for plan, want in [(0, [3, 6, 15]), (10, [10, 15]), (20, [20])]:
        matrix_builds.clear()
        system_builds.clear()
        basis = KatzBasis(5, 6, plan)
        for lam in (3, 2, 4, 6, 5, 13, 12):
            basis.row_coords(1, 6, lam)
            served, fresh = basis.system(lam), build_system(5, lam)
            assert served.lam == lam
            assert served.ss == fresh.ss
            assert (oracles.matrices(served)[1], served._ts, served.gamma) == (
                oracles.matrices(fresh)[1],
                fresh._ts,
                fresh.gamma,
            )
            assert basis.system(lam) is served
        assert matrix_builds == want
        assert system_builds == matrix_builds
        assert basis.E == want[-1]


def test_katz_basis_batches_the_weight_list(monkeypatch):
    # One build computes the family members at every weight of
    # weight_list(p, E); any other weight is added on its own.
    calls = []
    real = solver_module.eis_ratio_by_s

    def counting(p, s, lam, N):
        calls.append(s)
        return real(p, s, lam, N)

    monkeypatch.setattr(solver_module, "eis_ratio_by_s", counting)
    basis = KatzBasis(5, 6, 4)
    for s in weight_list(5, 3):
        basis.row_coords(s, 6, 3)
    assert calls == [1, 2, 3, 4]
    basis.row_coords(7, 6, 3)
    assert calls == [1, 2, 3, 4, 7]
