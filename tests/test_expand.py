"""Tests for the partial Katz expansion maps psi and phi."""

import random
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from katzrates import basis as basis_module
from katzrates import classical
from katzrates import expand as expand_module
from katzrates import sweep as sweep_module
from katzrates.arithmetic import QSeries, RingSpec, combine, forward_substitute, prepare_rows
from katzrates.basis import _blocks, block, columns, dim_mk, period
from katzrates.expand import KatzTuple, PrecisionMismatch, phi, psi
from katzrates.solver import KatzBasis, build_system


def tuple_from_coords(p, n, C, x):
    """The Katz tuple whose full coordinate vector is x."""
    return KatzTuple(p=p, n=n, ring=RingSpec(p, C), x=tuple(x))


def random_series(rng, p, C, N):
    ring = RingSpec(p, C)
    return QSeries.from_coeffs(ring, [rng.randrange(ring.modulus) for _ in range(N)])


def test_psi_of_constant():
    t = psi(5, 3, 2, QSeries.from_coeffs(RingSpec(5, 2), [1], dim_mk(12)))
    assert block(5, 0) == (0, 1)
    assert t.x == (1,) + (0,) * (dim_mk(12) - 1)


def test_psi_picks_out_matrix_column():
    # Feeding column j of the matrix back in must return unit coordinate j.
    p, n, C = 5, 3, 4
    ring = RingSpec(p, C)
    cols = list(columns(p, n, ring))
    f = QSeries(ring, cols[1])  # g_{3,1} E_{p-1}^{-3} = Delta E^{-3}
    t = psi(p, n, C, f)
    assert t.x == tuple(1 if j == 1 else 0 for j in range(len(cols)))
    assert t.x[slice(*block(p, 3))] == (1,)


def test_phi_of_unit_tuple_is_column():
    p, n, C = 7, 4, 3
    cols = list(columns(p, n, RingSpec(p, C)))
    N = len(cols)
    for j in range(N):
        x = [1 if jj == j else 0 for jj in range(N)]
        t = tuple_from_coords(p, n, C, x)
        assert phi(p, n, C, t).coeffs == cols[j]


def test_phi_reduces_coordinates():
    # phi is M.x with x read mod p^C, whatever representatives it is given.
    rng = random.Random(5)
    p, n, C = 7, 6, 3
    mod = p**C
    x = [rng.randrange(mod) for _ in range(dim_mk(n * (p - 1)))]
    t = tuple_from_coords(p, n, C, x)
    for shift in (-3 * mod, 2 * mod):
        shifted = KatzTuple(p=t.p, n=t.n, ring=t.ring, x=tuple(c + shift for c in t.x))
        assert phi(p, n, C, shifted) == phi(p, n, C, t)


def test_phi_of_trivial_tuple_is_one():
    p, n, C = 5, 3, 3
    N = dim_mk(n * (p - 1))
    t = tuple_from_coords(p, n, C, [1] + [0] * (N - 1))
    assert phi(p, n, C, t) == QSeries.from_coeffs(RingSpec(p, C), [1], N)


def test_round_trip_random():
    rng = random.Random(42)
    for p in (5, 7):
        for _ in range(25):
            n = rng.randrange(1, 13)
            C = rng.randrange(1, 9)
            N = dim_mk(n * (p - 1))
            f = random_series(rng, p, C, N)
            t = psi(p, n, C, f)
            assert phi(p, n, C, t) == f


def test_psi_phi_inverse_both_ways():
    rng = random.Random(3)
    p, n, C = 5, 6, 4
    N = dim_mk(n * (p - 1))
    x = [rng.randrange(5**C) for _ in range(N)]
    t = tuple_from_coords(p, n, C, x)
    assert psi(p, n, C, phi(p, n, C, t)).x == t.x


def test_psi_linearity():
    rng = random.Random(9)
    p, n, C = 7, 5, 5
    N = dim_mk(n * (p - 1))
    mod = 7**C
    f = random_series(rng, p, C, N)
    g = random_series(rng, p, C, N)
    alpha = rng.randrange(mod)
    h = QSeries(f.ring, tuple((alpha * a + b) % mod for a, b in zip(f.coeffs, g.coeffs)))
    lhs = psi(p, n, C, h)
    tf, tg = psi(p, n, C, f), psi(p, n, C, g)
    assert lhs.x == tuple((alpha * a + b) % mod for a, b in zip(tf.x, tg.x))


def test_precision_stability():
    rng = random.Random(11)
    p, n = 5, 6
    N = dim_mk(n * (p - 1))
    f_hi = random_series(rng, p, 8, N)
    hi = psi(p, n, 8, f_hi)
    for C in (1, 3, 5):
        lo = psi(p, n, C, oracles.reduce(f_hi, C))
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
    f = QSeries.from_coeffs(RingSpec(p, C), coeffs, dim_mk(n * (p - 1)))
    assert phi(p, n, C, psi(p, n, C, f)) == f


def test_psi_checks_its_input_before_any_product(ks2_products):
    N = dim_mk(10 * 12)
    with pytest.raises(PrecisionMismatch, match="ring"):
        psi(13, 10, 4, QSeries.from_coeffs(RingSpec(13, 5), [1], N))
    with pytest.raises(PrecisionMismatch, match="truncation"):
        psi(13, 10, 4, QSeries.from_coeffs(RingSpec(13, 4), [1], N - 1))
    with pytest.raises(ValueError, match="n must be >= 0"):
        psi(13, -1, 4, QSeries.from_coeffs(RingSpec(13, 4), [1], 1))
    assert ks2_products == []


def test_psi_and_the_chain_head_make_the_pinned_products(ks2_products, inverses):
    # psi at (11, 132, 40): the chain's Delta, its factors and K = 10
    # columns, then one product per chunk after the first; E_{p-1}'s inverse
    # in the chain and the peel's U.  The first two columns of 29/870
    # (N = 2031): E_4^2, E_4^3 and E_6^2 for Delta, E_4^4 from E_4^2, one
    # step and one column.
    rng = random.Random(1)
    N = dim_mk(132 * 10)
    psi(11, 132, 40, random_series(rng, 11, 40, N))
    squares = [rec for rec in ks2_products if rec[-1] is None]
    assert (len(ks2_products), len(squares), len(inverses)) == (30, 3, 2)
    ks2_products.clear(), inverses.clear()
    list(islice(columns(29, 870, RingSpec(29, 62)), 2))
    squares = [rec for rec in ks2_products if rec[-1] is None]
    assert (len(ks2_products), len(squares), len(inverses)) == (6, 3, 1)


@pytest.mark.parametrize("p, n, E, products", [(11, 132, 26, 119), (5, 144, 60, 53)])
def test_the_sweep_batches_peel_in_one_chunk(ks2_products, inverses, p, n, E, products):
    # The batches of the sweeps to 11/132 (N = 111, the plan's 26 weights)
    # and 5/144 (N = 49, 60 weights) take the whole chain in one chunk:
    # every product makes a column, as the basis matrix's do
    # (test_build_matrix_makes_one_product_per_column), and the one inverse
    # is E_{p-1}'s.  No S_K / q^K is inverted and no member is multiplied.
    KatzBasis(n, build_system(p, E))
    assert (len(ks2_products), len(inverses)) == (products, 1)
    assert {rec[0] for rec in ks2_products} == {"basis"}


@pytest.mark.parametrize(
    "p, n, B, K",
    [
        # The sweep batches of the benchmark rows, B the plan's weights: one
        # chunk each.
        (11, 132, 26, 115),
        (5, 144, 60, 49),
        (7, 28, 11, 15),
        (7, 56, 18, 29),
        # Mid rows, raised until the next multiple's chain head passes 3NB.
        (13, 182, 30, 163),
        (17, 306, 38, 136),
        # The frontier, where the cap holds K far below N.
        (23, 552, 50, 154),
        (29, 870, 62, 189),
        (31, 992, 66, 205),
        # psi at the katz-expand sizes of the benchmark session: the
        # multiple of the period nearest sqrt(N).
        (5, 144, 1, 7),
        (11, 132, 1, 10),
        (13, 168, 1, 13),
    ],
)
def test_the_chunk_size_on_the_traffic(p, n, B, K):
    N = dim_mk(n * (p - 1))
    if B > 1:
        assert sweep_module.planned_precision(p, n) == B
    assert expand_module._chunk(p, N, B) == K


@pytest.mark.parametrize("p, n, C", [(5, 144, 60), (11, 132, 40), (13, 168, 30)])
def test_psi_sieves_the_level_one_series_once(monkeypatch, p, n, C):
    # E_4, E_6 and E_{p-1} come from one divisor-sum sieve over the exponents
    # [3, 5, p-2] (at p = 5, [3, 5, 3]): Delta is made from the same E_4 and
    # E_6, not from a sieve of its own.
    calls = []
    real = classical.sigma_star_rows

    def spy(excluded, ms, N, mod):
        calls.append((excluded, list(ms)))
        return real(excluded, ms, N, mod)

    monkeypatch.setattr(classical, "sigma_star_rows", spy)
    psi(p, n, C, random_series(random.Random(p), p, C, dim_mk(n * (p - 1))))
    assert calls == [(None, [3, 5, p - 2])]


def test_components_are_read_off_the_coordinates():
    # A tuple stores its coordinates once, and the components i = 0..n split
    # them in order: component i's coordinates are x[lo:hi], (lo, hi) =
    # block(p, i).  So a tuple with other coordinates realizes another series.
    p, n, C = 7, 6, 3
    N = dim_mk(n * (p - 1))
    f = random_series(random.Random(8), p, C, N)
    t = psi(p, n, C, f)
    blocks = [t.x[slice(*block(p, i))] for i in range(n + 1)]
    assert sum(blocks, ()) == t.x
    zero = KatzTuple(p=t.p, n=t.n, ring=t.ring, x=(0,) * N)
    assert phi(p, n, C, zero) == QSeries.from_coeffs(RingSpec(p, C), [0], N)


@pytest.mark.parametrize("size", [0, 1, 3], ids=["empty", "short", "long"])
def test_phi_rejects_a_tuple_of_another_length(size, ks2_products):
    # At (5, 3) there are N = 2 coordinates; any other count is refused
    # before a product, as a ValueError that is not a PrecisionMismatch.
    p, n, C = 5, 3, 3
    t = tuple_from_coords(p, n, C, range(1, size + 1))
    with pytest.raises(ValueError, match=f"has {size} coordinates, not N = 2") as exc:
        phi(p, n, C, t)
    assert not isinstance(exc.value, PrecisionMismatch)
    assert ks2_products == []


@pytest.mark.parametrize("field, value", [("p", 7), ("n", 4), ("ring", RingSpec(5, 4))])
def test_phi_rejects_a_tuple_for_other_parameters(field, value, ks2_products):
    p, n, C = 5, 3, 3
    t = tuple_from_coords(p, n, C, [1, 2])
    fields = {"p": t.p, "n": t.n, "ring": t.ring, "x": t.x}
    with pytest.raises(PrecisionMismatch):
        phi(p, n, C, KatzTuple(**{**fields, field: value}))
    assert ks2_products == []


def test_psi_asserts_the_period_of_the_chunks(monkeypatch, ks2_products):
    # A chain whose exponents did not repeat with the period would make the
    # peeled chunks wrong; basis.columns checks them before any product, so
    # psi and a KatzBasis build refuse them before they make a column.
    real = basis_module.column_exponents

    def broken(p, n):
        exps = real(p, n)
        exps[-1] = (exps[-1][0] + 1, *exps[-1][1:])
        return exps

    p, n, C = 11, 12, 3
    f = QSeries.from_coeffs(RingSpec(p, C), [1], dim_mk(n * (p - 1)))
    system = build_system(p, C)
    monkeypatch.setattr(basis_module, "column_exponents", broken)
    with pytest.raises(AssertionError, match="column 10 is not column 5 times column 5"):
        psi(p, n, C, f)
    with pytest.raises(AssertionError, match="column 10 is not column 5 times column 5"):
        KatzBasis(n, system)
    assert ks2_products == []


@lru_cache(maxsize=None)
def _oracle_columns(p, n):
    """oracles.direct_columns at precision 8; any lower precision reduces it."""
    return oracles.direct_columns(p, n, RingSpec(p, 8))


def _check_against_oracles(p, n, C, seed):
    """psi against the one-entry-at-a-time forward substitution on the rows
    of the direct columns, and phi against sum_j x_j column_j."""
    mod = p**C
    cols = [tuple(c % mod for c in col) for col in _oracle_columns(p, n)]
    N = len(cols)
    rng = random.Random(seed)
    f = QSeries(RingSpec(p, C), tuple(rng.randrange(mod) for _ in range(N)))
    lower = [[col[r] for col in cols[:r]] for r in range(N)]
    assert list(psi(p, n, C, f).x) == oracles.forward_substitute(lower, f.coeffs, mod)
    x = [rng.randrange(mod) for _ in range(N)]
    want = tuple(sum(xj * col[r] for xj, col in zip(x, cols)) % mod for r in range(N))
    assert phi(p, n, C, tuple_from_coords(p, n, C, x)).coeffs == want


# The primes of the oracle tests, each with an n past which psi peels three
# chunks or more.  Their periods are 1, 1, 5, 1, 4 and 35 (above sqrt(N)).
N_MAX = {5: 40, 7: 30, 11: 40, 13: 30, 17: 30, 71: 14}


def _boundary_cases():
    """Per prime, every n from 0 to the least n <= N_MAX[p] at which psi
    peels three chunks, K = _chunk(p, N, 1): so N = 1, N < K, N = K,
    N = K + 1, K + 1 < N <= 2K and N > 2K, each where it occurs."""
    cases = []
    for p, n_max in N_MAX.items():
        for n in range(n_max + 1):
            cases.append((p, n))
            N = dim_mk(n * (p - 1))
            if N > 2 * expand_module._chunk(p, N, 1):
                break
    return cases


BOUNDARY = _boundary_cases()


def test_boundary_cases_cover_every_chunk_shape():
    # The chain head at K = N - 1 holds as many entries as one chunk's, so
    # the chooser never stops its raise there: it takes N = K + 1 only where
    # it starts at K = N - 1 and one chunk's chain head is over its cap
    # (p = 71, N = 36); test_the_chunk_size_moves_only_the_cost forces it at
    # the other primes.
    shapes = {p: set() for p in N_MAX}
    for p, n in BOUNDARY:
        N = dim_mk(n * (p - 1))
        K = expand_module._chunk(p, N, 1)
        assert K % period(p) == 0 and K >= period(p)
        if N == 1:
            shapes[p].add("N = 1")
        if 1 < N < K:
            shapes[p].add("N < K")
        if N == K + 1:
            shapes[p].add("N = K + 1")
        if N > 2 * K:
            shapes[p].add("three chunks")
    for p in N_MAX:
        assert {"N = 1", "three chunks"} <= shapes[p]
    for p in (11, 17, 71):
        assert "N < K" in shapes[p]
    assert "N = K + 1" in shapes[71]


@pytest.mark.parametrize("p, n", BOUNDARY)
def test_psi_and_phi_match_the_oracles_at_the_chunk_boundaries(p, n):
    _check_against_oracles(p, n, 3, seed=p * 100 + n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(N_MAX)).flatmap(
        lambda p: st.tuples(
            st.just(p), st.integers(0, N_MAX[p]), st.integers(1, 8), st.integers(0, 2**32)
        )
    )
)
def test_psi_and_phi_match_the_oracles(case):
    _check_against_oracles(*case)


@pytest.mark.parametrize("p, n, C", [(5, 144, 60), (11, 132, 40), (13, 168, 30)])
def test_psi_and_phi_match_the_matrix_route(p, n, C):
    # The katz-expand precisions of the benchmark session: psi against one
    # forward substitution on the whole basis matrix, phi against one packed
    # combination of all its columns.
    cols = list(columns(p, n, RingSpec(p, C)))
    N, mod = len(cols), p**C
    rng = random.Random(p * 1000 + n)
    f = random_series(rng, p, C, N)
    lower = oracles.strictly_lower_rows(cols)
    X = forward_substitute(iter(lower), ([c] for c in f.coeffs), mod, N)
    assert list(psi(p, n, C, f).x) == [x for (x,) in X]
    x = [rng.randrange(mod) for _ in range(N)]
    want = tuple(combine(x, prepare_rows(cols, mod), N, mod))
    assert phi(p, n, C, tuple_from_coords(p, n, C, x)).coeffs == want


# (p, n, B, K) for each shape of the peel of a batch of B series: K is the
# chooser's, _chunk(p, N, B), where None, and forced where the chooser never
# takes the shape (it takes one chunk over K = N - 1).
PEEL_SHAPES = {
    "N<K": (11, 12, 5, None),
    "N=K+1": (13, 10, 5, 10),
    "boundary-in-block": (71, 12, 3, None),
    "three-chunks": (13, 30, 3, None),
    "plan-11-132": (11, 132, 26, None),
}


def _peel_chunk(p, n, B, K):
    N = dim_mk(n * (p - 1))
    return N, K or expand_module._chunk(p, N, B)


def test_peel_shapes_are_as_named():
    N, K = _peel_chunk(*PEEL_SHAPES["N<K"])
    assert N < K
    N, K = _peel_chunk(*PEEL_SHAPES["N=K+1"])
    assert N == K + 1
    # Two chunk boundaries, K and 2K, each inside a basis block.
    p, n, B, K = PEEL_SHAPES["boundary-in-block"]
    N, K = _peel_chunk(p, n, B, K)
    assert N > 2 * K
    for c in (1, 2):
        assert any(lo < c * K < hi for _, lo, hi in _blocks(p, n))
    # A batch the chooser peels in three chunks at period 1.
    N, K = _peel_chunk(*PEEL_SHAPES["three-chunks"])
    assert 2 * K < N <= 3 * K
    # The sweep's batch at 11/132, the plan's E = 26 weights: one chunk.
    assert _peel_chunk(*PEEL_SHAPES["plan-11-132"]) == (111, 115)


@pytest.mark.parametrize("shape", sorted(PEEL_SHAPES))
def test_peel_matches_the_oracles_on_each_batch_shape(monkeypatch, shape):
    # The batch against the forward substitution one entry at a time on the
    # rows of the direct columns, member by member; its first member alone,
    # a batch of one with its own K, against psi.
    p, n, B, K = PEEL_SHAPES[shape]
    C = 3
    mod, ring = p**C, RingSpec(p, C)
    cols = [tuple(c % mod for c in col) for col in _oracle_columns(p, n)]
    rng = random.Random(p * 1000 + n)
    members = [[rng.randrange(mod) for _ in cols] for _ in range(B)]
    with monkeypatch.context() as m:
        if K is not None:
            m.setattr(expand_module, "_chunk", lambda p, N, B: K)
        X = expand_module._peel(ring, columns(p, n, ring), [*zip(*members)])
    lower = oracles.strictly_lower_rows(cols)
    want = [oracles.forward_substitute(lower, f, mod) for f in members]
    assert [list(x) for x in zip(*X)] == want
    assert list(psi(p, n, C, QSeries(ring, tuple(members[0]))).x) == want[0]


@pytest.mark.parametrize("p, n", [(5, 30), (11, 40), (13, 20)])
def test_the_chunk_size_moves_only_the_cost(monkeypatch, p, n):
    # M X = F has one solution mod p^C, so _chunk only sets the peel's cost:
    # forced to every multiple of P from P to the first one >= N, the peel
    # gives the oracle's X for batches of 1, 3 and 8 random series, and phi
    # the matrix's product with random coordinates.
    C = 3
    mod, ring = p**C, RingSpec(p, C)
    cols = [tuple(c % mod for c in col) for col in _oracle_columns(p, n)]
    N, P = len(cols), period(p)
    lower = oracles.strictly_lower_rows(cols)
    rng = random.Random(p * 1000 + n)
    batches = [[[rng.randrange(mod) for _ in cols] for _ in range(B)] for B in (1, 3, 8)]
    want = [[oracles.forward_substitute(lower, f, mod) for f in batch] for batch in batches]
    coords = [rng.randrange(mod) for _ in range(N)]
    image = tuple(sum(xj * col[r] for xj, col in zip(coords, cols)) % mod for r in range(N))
    sizes = range(P, N + P, P)
    assert sizes[-1] >= N
    for K in sizes:
        monkeypatch.setattr(expand_module, "_chunk", lambda p, N, B: K)
        for batch, solved in zip(batches, want):
            X = expand_module._peel(ring, columns(p, n, ring), [*zip(*batch)])
            assert [list(x) for x in zip(*X)] == solved
        assert phi(p, n, C, tuple_from_coords(p, n, C, coords)).coeffs == image
