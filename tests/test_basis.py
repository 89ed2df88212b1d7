"""Tests for the splitting basis g_{i,j} and the coefficient matrix."""

import random
from itertools import islice
from math import gcd

import pytest

from oracles import basis_set, g_form, i_of_j, sigma
from katzrates.arithmetic import RingSpec
from katzrates.basis import (
    _blocks,
    block,
    column_exponents,
    columns,
    dim_mk,
    eps,
    period,
)


def test_dim_mk_examples():
    assert dim_mk(0) == 1
    assert dim_mk(2) == 0
    assert dim_mk(14) == 1
    assert dim_mk(12) == 2
    assert dim_mk(-4) == 0


def test_eps_examples():
    assert eps(4) == 0
    assert eps(6) == 1
    assert eps(0) == 0
    with pytest.raises(ValueError):
        eps(3)


def test_g_form_examples():
    ring = RingSpec(5, 3)
    g = g_form(5, 3, 0, ring, 6)
    assert (g.a, g.eps) == (3, 0)
    assert g.series == g_form(5, 3, 0, ring, 6).series  # deterministic
    d = g_form(5, 3, 1, ring, 6)
    assert (d.a, d.eps) == (0, 0)
    assert d.series.coeffs[0] == 0 and d.series.coeffs[1] == 1  # Delta
    d7 = g_form(7, 2, 1, ring=RingSpec(7, 3), N=6)
    assert (d7.a, d7.eps) == (0, 0)


def test_g_form_weight_identity():
    for p in (5, 7, 11):
        for j in range(0, 12):
            i = i_of_j(p, j)
            g = g_form(p, i, j, RingSpec(p, 2), j + 2)
            assert 4 * g.a + 12 * g.j + 6 * g.eps == i * (p - 1)
            assert all(c == 0 for c in g.series.coeffs[:j])
            assert g.series.coeffs[j] == 1


def test_g_form_rejects_invalid():
    # i=0 only carries the constant; and a must come out a nonnegative integer.
    with pytest.raises(ValueError):
        g_form(5, 0, 1, RingSpec(5, 2), 4)
    with pytest.raises(ValueError):
        g_form(5, 1, 1, RingSpec(5, 2), 4)  # 4 - 12 < 0


def test_i_of_j_examples():
    assert i_of_j(5, 0) == 0
    assert i_of_j(5, 1) == 3
    assert i_of_j(5, 2) == 6


def test_basis_set_examples():
    ring = RingSpec(5, 2)
    assert basis_set(5, 1, ring, 4) == []
    b3 = basis_set(5, 3, ring, 4)
    assert len(b3) == 1 and b3[0].j == 1
    b0 = basis_set(5, 0, ring, 4)
    assert len(b0) == 1 and b0[0].series.coeffs == (1, 0, 0, 0)


def test_basis_sets_empty_unless_multiple_of_3_for_p5():
    for i in range(1, 20):
        ring = RingSpec(5, 2)
        if i % 3:
            assert basis_set(5, i, ring, 4) == []
        else:
            assert basis_set(5, i, ring, 4) != []


def test_partition_property():
    # i_of_j is the unique containing range, and block sizes sum to d_{I(p-1)}.
    for p in (5, 7, 11, 13):
        for j in range(120):
            i = i_of_j(p, j)
            assert dim_mk((i - 1) * (p - 1)) <= j <= dim_mk(i * (p - 1)) - 1
            others = [
                ii
                for ii in range(0, i + 40)
                if ii != i
                and dim_mk((ii - 1) * (p - 1)) <= j <= dim_mk(ii * (p - 1)) - 1
            ]
            assert others == []
        for I in range(31):
            total = sum(
                dim_mk(i * (p - 1)) - max(dim_mk((i - 1) * (p - 1)), 0)
                for i in range(I + 1)
                if dim_mk(i * (p - 1)) > dim_mk((i - 1) * (p - 1))
            )
            assert total == dim_mk(I * (p - 1))
            blocks = [block(p, i) for i in range(I + 1)]
            assert blocks[0] == (0, 1)
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert blocks[-1][1] == total


def _exact_int_series(a4_pow, a6_pow, dj, N):
    """Independent exact-integer build of Delta^j E_4^a E_6^eps."""

    def conv(a, b):
        out = [0] * N
        for i in range(N):
            for k in range(N - i):
                out[i + k] += a[i] * b[k]
        return out

    e4 = [1] + [240 * sigma(3, n) for n in range(1, N)]
    e6 = [1] + [-504 * sigma(5, n) for n in range(1, N)]
    cube = conv(conv(e4, e4), e4)
    diff = [x - y for x, y in zip(cube, conv(e6, e6))]
    dlt = [x // 1728 for x in diff]

    acc = [1] + [0] * (N - 1)
    for _ in range(dj):
        acc = conv(acc, dlt)
    for _ in range(a4_pow):
        acc = conv(acc, e4)
    for _ in range(a6_pow):
        acc = conv(acc, e6)
    return acc


def test_g_form_integer_coefficients_cross_check():
    rng = random.Random(7)
    ring = RingSpec(5, 12)  # large e so reduction loses nothing at small N
    N = 6
    cases = []
    while len(cases) < 10:
        j = rng.randrange(0, 4)
        i = i_of_j(5, j)
        cases.append((i, j))
    for i, j in cases:
        g = g_form(5, i, j, ring, N)
        exact = _exact_int_series(g.a, g.eps, j, N)
        assert g.series.coeffs == tuple(c % ring.modulus for c in exact)


def test_build_matrix_unit_lower_triangular():
    # The N columns of the chain form a unit-lower-triangular N x N matrix.
    for p, n in [(5, 3), (5, 6), (7, 4), (11, 3)]:
        cols = list(columns(p, n, RingSpec(p, 3)))
        N = dim_mk(n * (p - 1))
        assert len(cols) == N
        for j, col in enumerate(cols):
            assert len(col) == N
            assert col[j] == 1
            assert all(col[r] == 0 for r in range(j))


def test_build_matrix_column_zero():
    # Column 0 is g_{0,0} = 1, in row block 0.
    cols = list(columns(5, 3, RingSpec(5, 2)))
    assert cols[0] == tuple([1] + [0] * (len(cols) - 1))
    assert column_exponents(5, 3)[0][2] == 0


def test_col_to_i_weakly_increasing_and_partitions():
    # Column j lies in the block i of its E_{p-1}^-i: the blocks partition
    # the columns in increasing i.
    col_to_i = [-i for *_, i in column_exponents(7, 6)]
    assert col_to_i == sorted(col_to_i)
    for i, lo, hi in _blocks(7, 6):
        for j in range(lo, hi):
            assert col_to_i[j] == i


def test_matrix_reduces_consistently_across_precision():
    hi = columns(5, 6, RingSpec(5, 6))
    lo = list(columns(5, 6, RingSpec(5, 2)))
    m = 5**2
    assert [tuple(x % m for x in ch) for ch in hi] == lo


def test_build_matrix_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        columns(5, -1, RingSpec(5, 2))


def test_build_matrix_makes_one_product_per_column(ks2_products, inverses):
    # Columns 1..P (P = 5) from Delta / q, E_4, E_6 and E_{p-1}^-1: 9
    # products besides one per column after the first (E_4^2 and E_4^3,
    # which Delta's E_4^3 and the columns share, Delta's E_6^2, E_{p-1}^-2,
    # the steps (Delta / q) E_{p-1}^-1 and ^-2, and R_2..R_4), 3 of them
    # squares, and one inverse, E_{p-1}'s; then each column j > P is one
    # product of column j - P with column P.  The chain of distinct exponent
    # steps took 17 products, 6 squares and 3 inverses (of E_4 and E_6 as
    # well); the basis forms one by one took 488 products.
    cols = list(columns(11, 132, RingSpec(11, 26)))
    assert len(cols) == 111
    assert len(ks2_products) == 110 + 9
    assert len([rec for rec in ks2_products if rec[-1] is None]) == 3
    assert inverses == [110]


@pytest.mark.parametrize("p", [p for p in range(5, 38) if all(p % d for d in range(2, p))])
def test_a_full_chain_inverts_only_e_p_minus_1(p, inverses):
    # The chain takes negative powers of E_{p-1} alone, at N - 1 slots; E_4
    # and E_6 enter only through nonnegative powers.  n covers three periods.
    n = 1
    while dim_mk(n * (p - 1)) <= 3 * period(p):
        n += 1
    N = len(list(columns(p, n, RingSpec(p, 4))))
    assert inverses == [N - 1]


def test_build_matrix_multiplies_only_the_live_slots(ks2_products):
    # Column j needs N - j slots: those of column j-1 from q^(j-1) on and
    # those of the step from q^1 on.  Each step is made at N - 1 slots, from
    # Delta / q, and split and packed once, so its halves must be masked to
    # the live slots.  A column's product is the last one the chain makes
    # before it yields the column; any other is a step's, at N - 1 slots,
    # or, before column 1, one of the three that Delta = (E_4^3 - E_6^2) /
    # 1728 takes at N slots (E_4^2, E_4^3 and E_6^2).
    chain = columns(11, 132, RingSpec(11, 26))
    N = len(next(chain))
    made = []
    for _ in chain:
        made.append([rec[1:] for rec in ks2_products if rec[0] == "basis"])
        ks2_products.clear()
    products = [ps[-1] for ps in made]
    assert [count for count, *_ in products] == list(range(N - 1, 0, -1))
    assert [count for count, *_ in made[0][:3]] == [N] * 3
    assert {count for ps in [made[0][3:], *made[1:]] for count, *_ in ps[:-1]} == {N - 1}
    for count, *halves in products:
        even, odd = (count + 1) // 2, count // 2
        assert halves[0] <= even and halves[1] <= odd
        assert halves[2] <= even and halves[3] <= odd


PRIMES_BELOW_200 = [p for p in range(5, 200) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_step_keys_repeat_with_the_period(p):
    # The step from column j-1 to column j multiplies by Delta E_4^da E_6^de
    # E_{p-1}^-di; its key (da, de, di) at j + P is the key at j, so column
    # j + P is column j times column P.
    P = period(p)
    assert P == (p - 1) // gcd(12, p - 1)
    n = 1
    while dim_mk(n * (p - 1)) < 3 * P + 2:
        n += 1
    exps = column_exponents(p, n)
    assert len(exps) == dim_mk(n * (p - 1))
    keys = [tuple(c - b for c, b in zip(exps[j], exps[j - 1])) for j in range(1, len(exps))]
    assert all(keys[k + P] == keys[k] for k in range(len(keys) - P))
    for j in range(len(exps) - P):
        assert exps[j + P] == tuple(a + b for a, b in zip(exps[j], exps[P]))


def test_columns_are_made_as_they_are_asked_for(ks2_products):
    ring = RingSpec(11, 5)
    cols = list(columns(11, 12, ring))
    full = list(ks2_products)
    ks2_products.clear()
    head = list(islice(columns(11, 12, ring), 4))
    assert head == cols[:4]
    # The full chain's first products, through column 3's (over N - 3
    # slots), and none after it.
    N = len(cols)
    assert ks2_products == full[: len(ks2_products)]
    assert ks2_products[-1][:2] == ("basis", N - 3)


def test_columns_check_their_arguments_before_the_first_column():
    with pytest.raises(ValueError, match="n must be >= 0"):
        columns(5, -1, RingSpec(5, 2))
    with pytest.raises(ValueError, match="ring prime"):
        columns(5, 3, RingSpec(7, 2))
