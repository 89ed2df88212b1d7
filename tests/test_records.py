"""What the package's value records promise: the frozen ones refuse
assignment, compare and hash by value, and name every field in their repr;
a SweepState is mutable, compares by value and is unhashable."""

import copy
import pickle
import time
from fractions import Fraction

import pytest

from katzrates.arithmetic import QSeries, RingSpec
from katzrates.expand import KatzTuple
from katzrates.solver import SweepEntry, ValuationRow, build_system
from katzrates.sweep import SweepState

R = RingSpec(5, 3)

# Each frozen record: a builder of a fresh instance, a builder of one that
# differs in a field, and its field names in order.
FROZEN = {
    "RingSpec": (lambda: RingSpec(5, 3), lambda: RingSpec(5, 4), ("p", "e")),
    "QSeries": (
        lambda: QSeries(RingSpec(5, 3), (1, 2, 3)),
        lambda: QSeries(RingSpec(5, 3), (1, 2, 4)),
        ("ring", "coeffs"),
    ),
    "KatzTuple": (
        lambda: KatzTuple(p=5, n=3, ring=RingSpec(5, 3), x=(1, 2)),
        lambda: KatzTuple(p=5, n=3, ring=RingSpec(5, 4), x=(1, 2)),
        ("p", "n", "ring", "x"),
    ),
    "VandermondeSystem": (
        lambda: build_system(5, 4),
        lambda: build_system(5, 4).reduce(3),
        ("p", "lam", "ss", "gamma", "_ts", "_lower", "_uinvs", "_bcols", "_vals"),
    ),
    "SweepEntry": (
        lambda: SweepEntry(i=2, j=1, value=3, gamma=4),
        lambda: SweepEntry(i=2, j=1, value=None, gamma=4),
        ("i", "j", "value", "gamma"),
    ),
    "ValuationRow": (
        lambda: ValuationRow(r=2, lam=4, entries={1: SweepEntry(2, 1, 3, 4)}),
        lambda: ValuationRow(r=2, lam=4, entries={}),
        ("r", "lam", "entries"),
    ),
}
UNHASHABLE = {"ValuationRow"}  # its entries are a dict


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_assignment(name):
    make, _, fields = FROZEN[name]
    record = make()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_compares_and_hashes_by_value(name):
    make, other, _ = FROZEN[name]
    a, b, c = make(), make(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != (a,) and a != None  # noqa: E711
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_a_record_repr_names_every_field(name):
    make, _, fields = FROZEN[name]
    record = make()
    text = repr(record)
    assert text.startswith(f"{name}(") and text.endswith(")")
    for field in fields:
        assert f"{field}={getattr(record, field)!r}" in text


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_survives_copy_and_pickle(name):
    record = FROZEN[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_sweep_state_is_mutable_and_unhashable():
    state = SweepState(p=5)
    assert state._fields == ("p", "lam_current", "d_prime", "entries", "rows_done")
    assert (state.lam_current, state.d_prime) == (1, Fraction(1))
    assert (state.entries, state.attained, state.rows_done) == ([], set(), 0)
    other = SweepState(p=5)
    assert state == other
    assert state.entries is not other.entries  # no default is shared
    state.rows_done = 9
    state.entries.append(SweepEntry(1, 0, 0, 2))
    assert state != other
    other.rows_done = 9
    other.entries = [SweepEntry(1, 0, 0, 2)]
    assert state == other
    with pytest.raises(TypeError):
        hash(state)
    text = repr(state)
    for field in state._fields:
        assert f"{field}={getattr(state, field)!r}" in text
    assert pickle.loads(pickle.dumps(state)) == state


def test_a_ring_does_not_compute_its_modulus_when_built():
    # p^e for e = 10^9 has 2.3 * 10^9 bits: building the ring must not make it.
    start = time.perf_counter()
    ring = RingSpec(5, 10**9)
    assert ring == RingSpec(5, 10**9) and hash(ring) == hash(RingSpec(5, 10**9))
    assert repr(ring) == "RingSpec(p=5, e=1000000000)"
    assert time.perf_counter() - start < 1.0
    assert RingSpec(5, 3).modulus == 125
