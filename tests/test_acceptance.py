"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import random
from fractions import Fraction

import pytest

import oracles
from oracles import padic_val
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import block, dim_mk
from katzrates.expand import phi, psi
from katzrates.solver import (
    KatzBasis,
    build_system,
    collect_statuses,
    f_bound,
    solve_row,
)
from katzrates.sweep import d_p, run_sweep, theorem_b_audit


def check(name, cond):
    print(f"[{'PASS' if cond else 'FAIL'}] {name}")
    assert cond, name


@pytest.fixture(scope="module")
def sweep5():
    return run_sweep(5, 36)


@pytest.fixture(scope="module")
def sweep7():
    return run_sweep(7, 56)


@pytest.fixture(scope="module")
def sweep11():
    return run_sweep(11, 132)


@pytest.fixture(scope="module")
def sweep17():
    return run_sweep(17, 20)


def test_criterion_1_table_p5(sweep5):
    attained_i = {i for i, _ in sweep5.attained}
    check(
        "criterion 1: p=5, i<=36 gives d' = 2/15 attained at i=30",
        sweep5.d_prime == Fraction(2, 15) and 30 in attained_i,
    )


def test_criterion_2_table_p7(sweep7):
    attained_i = {i for i, _ in sweep7.attained}
    check(
        "criterion 2: p=7, i<=56 gives d' = 3/28 attained at i=56",
        sweep7.d_prime == Fraction(3, 28) and 56 in attained_i,
    )


def test_criterion_3_table_p17(sweep17):
    attained_i = {i for i, _ in sweep17.attained}
    check(
        "criterion 3: p=17, i<=20 gives d' = 1/18 attained at i=18",
        sweep17.d_prime == Fraction(1, 18) and 18 in attained_i,
    )


def test_criterion_4_table_p11(sweep11):
    attained_i = {i for i, _ in sweep11.attained}
    check(
        "criterion 4: p=11, i<=132 gives d' = 5/66 attained at i=132",
        sweep11.d_prime == Fraction(5, 66) and 132 in attained_i,
    )


def test_criterion_5_audits(sweep5, sweep7, sweep11, sweep17):
    ok = True
    for state in (sweep5, sweep7, sweep11, sweep17):
        c_viol, d_viol = theorem_b_audit(state)
        ok = ok and not c_viol and not d_viol
    equality = (
        sweep5.d_prime == d_p(5)
        and sweep5.attained
        and sweep7.d_prime == d_p(7)
        and sweep7.attained
    )
    check(
        "criterion 5: no lower-bound violations; equality attained for p=5,7",
        ok and equality,
    )


def test_criterion_6_round_trip():
    rng = random.Random(2024)
    ok = True
    for p in (5, 7, 11):
        for _ in range(200):
            n = rng.randrange(1, 13)
            C = rng.randrange(1, 9)
            N = dim_mk(n * (p - 1))
            ring = RingSpec(p, C)
            f = QSeries.from_coeffs(
                ring, [rng.randrange(ring.modulus) for _ in range(N)]
            )
            if phi(p, n, C, psi(p, n, C, f)) != f:
                ok = False
    check("criterion 6: phi(psi(f)) = f for 200 random f per p in {5,7,11}", ok)


def test_criterion_7_j_zero_behavior():
    ok = True
    for p in (5, 7):
        row0 = solve_row(p, 0, 1)
        ok = ok and row0.entries[0].exact and row0.entries[0].value == 0
        for r in range(1, 21):
            row = solve_row(p, r, 8, j_max=min(r, 7))
            lo, hi = block(p, r)
            # An empty block has b_{r,j} = 0 and no entries, as in a sweep.
            ok = ok and (row.entries == {} if lo == hi else not row.entries[0].exact)
    check(
        "criterion 7: j=0 is Exact(0) at r=0 and inconclusive for 1<=r<=20 "
        "with a nonempty block",
        ok,
    )


def test_criterion_8_kernel_bound():
    ok = True
    for lam in range(2, 13):
        system = build_system(5, lam)
        for j1 in range(1, lam + 1):
            bound = lam + 1 - j1 - f_bound(5, lam)
            if system.gamma[j1 - 1] < bound:
                ok = False
    check(
        "criterion 8: gamma_j >= lam + 1 - j - f(lam) for p=5, 2<=lam<=12",
        ok,
    )


def test_criterion_9_valuation_lemma():
    rng = random.Random(99)
    ok = True
    for p in (5, 7, 11):
        mod = p**40
        base = p + 1
        done = 0
        while done < 500:
            a, b = rng.randrange(1, 10**4 + 1), rng.randrange(1, 10**4 + 1)
            if a == b:
                continue
            lhs = padic_val((pow(base, a, mod) - pow(base, b, mod)) % mod, p, 40)
            if lhs - 1 != padic_val(a - b, p, 40):
                ok = False
            done += 1
    check(
        "criterion 9: nu((1+p)^a - (1+p)^b) - 1 = nu(a-b), 500 random pairs",
        ok,
    )


def test_criterion_10_ambiguity_invariance():
    rng = random.Random(5150)
    ok = True
    for _ in range(20):
        r = rng.randrange(1, 16)
        lam = rng.randrange(4, 10)
        system, sols = KatzBasis(r, build_system(5, lam)).solutions(r, lam)
        j_max = min(r, lam - 1)
        base = collect_statuses(system, sols, j_max, r)
        mod = system.modulus
        perturbed = []
        for sol in sols:
            shift = [0] * lam
            for g in oracles.kernel_gens(system):
                c = rng.randrange(mod)
                shift = [(d + c * gi) % mod for d, gi in zip(shift, g)]
            perturbed.append(tuple((a + d) % mod for a, d in zip(sol, shift)))
        got = collect_statuses(system, perturbed, j_max, r)
        for j, st in base.items():
            if st.exact and (not got[j].exact or got[j].value != st.value):
                ok = False
    check(
        "criterion 10: kernel perturbations change no exact entry (p=5, r<=15)",
        ok,
    )
