"""Tests for the splitting basis g_{i,j} and the coefficient matrix."""

import random

import pytest

from oracles import basis_set, g_form, i_of_j, sigma
from katzrates.arithmetic import QSeries, RingSpec
from katzrates.basis import block, build_matrix, dim_mk, eps


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
    for p, n in [(5, 3), (5, 6), (7, 4), (11, 3)]:
        m = build_matrix(p, n, RingSpec(p, 3))
        assert m.N == dim_mk(n * (p - 1))
        for j in range(m.N):
            col = m.columns[j]
            assert col[j] == 1
            assert all(col[r] == 0 for r in range(j))


def test_build_matrix_column_zero():
    m = build_matrix(5, 3, RingSpec(5, 2))
    assert m.columns[0] == tuple([1] + [0] * (m.N - 1))
    assert m.col_to_i[0] == 0


def test_col_to_i_weakly_increasing_and_partitions():
    m = build_matrix(7, 6, RingSpec(7, 3))
    assert list(m.col_to_i) == sorted(m.col_to_i)
    for i, lo, hi in m.blocks:
        for j in range(lo, hi):
            assert m.col_to_i[j] == i


def test_matrix_reduces_consistently_across_precision():
    hi = build_matrix(5, 6, RingSpec(5, 6))
    lo = build_matrix(5, 6, RingSpec(5, 2))
    m = 5**2
    for ch, cl in zip(hi.columns, lo.columns):
        assert tuple(x % m for x in ch) == cl


def test_build_matrix_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        build_matrix(5, -1, RingSpec(5, 2))


def test_build_matrix_makes_one_product_per_column(monkeypatch):
    # One multiplier per distinct exponent step, built by series products
    # (17 here, with Delta's); the columns are packed products outside
    # QSeries, one each.  No E_{p-1}^{-i} power chain and no basis forms:
    # those took 488 products.
    calls = []
    real = QSeries.__mul__

    def counting(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    m = build_matrix(11, 132, RingSpec(11, 26))
    assert m.N == 111
    assert len(calls) <= 32


def test_build_matrix_multiplies_only_the_live_slots(ks2_products):
    # Column j needs N - j slots: those of column j-1 from q^(j-1) on and
    # those of the step from q^1 on.  Each step is split and packed once, at
    # N - 1 slots, so its halves must be masked to the live slots.
    m = build_matrix(11, 132, RingSpec(11, 26))
    columns = [rec[1:] for rec in ks2_products if rec[0] == "basis"]
    assert [count for count, *_ in columns] == list(range(m.N - 1, 0, -1))
    for count, *halves in columns:
        even, odd = (count + 1) // 2, count // 2
        assert halves[0] <= even and halves[1] <= odd
        assert halves[2] <= even and halves[3] <= odd
