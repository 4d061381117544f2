from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkring.freemodule import format_terms
from qkring.intmath import CyclotomicInt, IntPoly
from reference import chebyshev_t, horner


def test_chebyshev_small():
    assert chebyshev_t(0) == IntPoly.of(2)
    assert chebyshev_t(1) == IntPoly.of(0, 1)
    assert chebyshev_t(2) == IntPoly.of(-2, 0, 1)
    assert chebyshev_t(3) == IntPoly.of(0, -3, 0, 1)


def test_chebyshev_at_two():
    # c = 2 corresponds to z = 1, where z^i + z^-i = 2 for every i
    for i in range(101):
        assert horner(chebyshev_t(i), 2) == 2


@given(st.integers(0, 25))
def test_chebyshev_z_specialization(i):
    z = Fraction(3, 2)
    c = z + 1 / z
    assert horner(chebyshev_t(i), c) == z ** i + z ** (-i)


def test_chebyshev_rejects_negative():
    with pytest.raises(ValueError):
        chebyshev_t(-1)


def test_intpoly_algebra():
    p = IntPoly.of(1, 1)  # 1 + x
    assert p * p == IntPoly.of(1, 2, 1)
    assert p - p == IntPoly()
    assert (p * p).compose(IntPoly.of(-1, 1)) == IntPoly.of(0, 0, 1)
    assert p + p == IntPoly.of(2, 2)
    assert len(IntPoly.of(0, 0, 1).coeffs) - 1 == 2
    assert IntPoly.of(1, 0, 0).coeffs == (1,)  # trailing zeros trimmed


def test_cyclo_examples_k2():
    # k = 2: zeta = i
    z = CyclotomicInt.root_power(2, 1)
    one = CyclotomicInt.from_int(2, 1)
    assert z * z == CyclotomicInt.from_int(2, -1)
    assert (one + z) * (one - z) == CyclotomicInt.from_int(2, 2)
    a = CyclotomicInt(2, (3, -5))
    assert a * one == a


def test_cyclo_root_reduction():
    for k in (1, 2, 4, 8):
        assert CyclotomicInt.root_power(k, k) == -CyclotomicInt.from_int(k, 1)
        assert CyclotomicInt.root_power(k, 2 * k) == CyclotomicInt.from_int(k, 1)
        assert CyclotomicInt.root_power(k, -1) == -CyclotomicInt.root_power(k, k - 1)


def test_cyclo_mismatched_k_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.from_int(2, 1) * CyclotomicInt.from_int(4, 1)


def _cyclos(k):
    return st.lists(st.integers(-9, 9), min_size=k, max_size=k).map(
        lambda cs: CyclotomicInt(k, tuple(cs)))


@given(st.sampled_from([1, 2, 4, 8]), st.data())
def test_cyclo_ring_axioms(k, data):
    a = data.draw(_cyclos(k))
    b = data.draw(_cyclos(k))
    c = data.draw(_cyclos(k))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * CyclotomicInt.from_int(k, 1) == a


@given(st.sampled_from([2, 4, 8]), st.data())
def test_cyclo_conjugation(k, data):
    a = data.draw(_cyclos(k))
    b = data.draw(_cyclos(k))
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    # a * conj(a) is invariant under conjugation (a real value)
    na = a * a.conj()
    assert na.conj() == na


def test_format_terms():
    assert format_terms([(1, "x"), (-2, "y"), (3, "")]) == "x - 2*y + 3"
    assert format_terms([(0, "x")]) == "0"
    assert format_terms([(-1, "x")]) == "-x"
