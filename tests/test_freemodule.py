"""The shared product kernel against a dense contraction of each ring's table,
and its check that both operands belong to one ring."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring import intmath, kring, lens, repring
from qkring.freemodule import Element
from qkring.intmath import CyclotomicInt
from qkring.lens import LensElement
from qkring.repring import GroupParams, RepElement

# ring name -> (ring descriptor, constructor from a full coefficient tuple)
RINGS = {
    "R": (lambda: repring._ring(4), lambda cs: RepElement(GroupParams(4), cs)),
    "K": (lambda: kring._ring(4), lambda cs: Element(kring._ring(4), cs)),
    "lens": (lambda: lens._ring(4), lambda cs: LensElement(4, cs)),
    "Z[zeta]": (lambda: intmath._ring(8), lambda cs: CyclotomicInt(8, cs)),
}


def _factors(rank):
    """Dense vectors, or sparse ones with at most three nonzero entries."""
    dense = st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)
    sparse = st.dictionaries(st.integers(0, rank - 1), st.integers(-9, 9), max_size=3).map(
        lambda terms: [terms.get(i, 0) for i in range(rank)])
    return st.one_of(sparse, dense).map(tuple)


def dense_product(table, a, b):
    """Sum over every (i, j) of a_i * b_j * table[i][j], zeros included."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for t, c in table[i][j]:
                out[t] += x * y * c
    return tuple(out)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=25)
@given(data=st.data())
def test_product_matches_dense_contraction(name, data):
    ring, make = RINGS[name]
    rank = len(ring().labels)
    a, b = data.draw(_factors(rank)), data.draw(_factors(rank))
    assert (make(a) * make(b)).coeffs == dense_product(ring().table, a, b)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_mismatched_rings_rejected(op):
    a, b = repring.one(GroupParams(4)), repring.one(GroupParams(5))
    with pytest.raises(ValueError, match=r"^mismatched parameters: R\(Q_16\) vs R\(Q_32\)$"):
        op(a, b)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_equal_rings_need_not_be_one_object(op):
    # descriptors are equal by name, so a rebuilt one is still accepted
    a = repring.one(GroupParams(4))
    twin = Element(a.ring.replace(), a.coeffs)
    assert twin.ring is not a.ring and twin.ring == a.ring
    assert op(a, twin).coeffs == op(a, a).coeffs


def test_record_replace_rebuilds_through_the_constructor():
    params = GroupParams(4)
    assert params.replace(n=5) == GroupParams(5)
    assert params.replace() == params and params.replace() is not params
    with pytest.raises(ValueError, match=r"^quaternion groups need n >= 3$"):
        params.replace(n=2)
    with pytest.raises(TypeError):
        params.replace(m=5)
    a = repring.one(params)
    assert Element(a.ring, a.coeffs).replace(coeffs=[0] * 7) == Element(a.ring, (0,) * 7)
