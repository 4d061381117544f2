"""Value semantics of the package's record classes: construction and
defaults, equality and hashing, immutability, repr text and the argument
checks each constructor makes."""

from functools import lru_cache

import pytest

from qkring import intmath
from qkring.cohomology import CohGroup
from qkring.freemodule import Element, Ring
from qkring.intmath import CyclotomicInt, IntPoly
from qkring.intmatrix import SmithForm, smith_normal_form
from qkring.kring import MinimalityCertificate, relation, relations_for
from qkring.report import Check, Record, Report
from qkring.repring import GroupParams, RepElement
from qkring.truncation import TableCell, consistency_report, truncated_quotient
from reference import ClassFunction


def records():
    """One instance of each frozen record class, built by its usual route."""
    return [
        intmath._ring(2),
        Element(intmath._ring(2), (1, 2)),
        CyclotomicInt(2, (1, -1)),
        IntPoly((1, 2)),
        Check("a", True),
        Report("t", (Check("a", False, "x"),)),
        GroupParams(3),
        ClassFunction(GroupParams(3), (CyclotomicInt.from_int(2, 1),)),
        relations_for(3)[0],
        MinimalityCertificate("relation1", 1, 2, {(1, 0, 0): 1}),
        truncated_quotient(3, 0),
        TableCell(3, 0, 8, 8),
        CohGroup((2, 2)),
        consistency_report(3, 0),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_raise(record):
    name = next(n for n in ("name", "coeffs", "n", "label", "title", "factors", "params")
                if hasattr(record, n))
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_equal_to_itself(record):
    assert record == record
    assert not record != record


def test_smith_form_is_mutable_and_unhashable():
    snf = smith_normal_form([[2, 0], [0, 4]])
    assert snf == SmithForm([[2, 0], [0, 4]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(TypeError, match="unhashable"):
        hash(snf)
    snf.D = [[1]]
    assert snf.D == [[1]]
    assert snf != smith_normal_form([[2, 0], [0, 4]])


def test_ring_compares_and_hashes_by_name_only():
    a = Ring("R", 1, ("1",), lambda: [[((0, 1),)]])
    b = Ring("R", 2, ("1", "x"), None)
    assert a == b and hash(a) == hash(b)
    assert a != Ring("S", 1, ("1",), a.build)
    assert {a: 1}[b] == 1
    assert repr(b) == "Ring(name='R')"


def test_ring_caches_its_table():
    calls = []
    ring = Ring("R", 1, ("1",), lambda: calls.append(1) or [[((0, 1),)]])
    assert ring.table is ring.table
    assert calls == [1]
    assert vars(ring)["table"] is ring.table


def test_field_values_decide_equality_and_hash():
    assert GroupParams(4) == GroupParams(4) and hash(GroupParams(4)) == hash(GroupParams(4))
    assert GroupParams(4) != GroupParams(5)
    assert IntPoly((1, 2, 0)) == IntPoly.of(1, 2)
    assert hash(IntPoly((1, 2, 0))) == hash(IntPoly.of(1, 2))
    assert Check("a", True) == Check("a", True, "")
    assert Check("a", True) != Check("a", True, "x")
    assert CyclotomicInt(2, (1, 1)) == CyclotomicInt(2, [1, 1])
    assert hash(CyclotomicInt(2, (1, 1))) == hash(CyclotomicInt(2, (1, 1)))
    assert TableCell(3, 0, 8, 8) != TableCell(3, 0, 8, 16)
    assert CohGroup([2, 2]) == CohGroup((2, 2))


def test_group_params_key_an_lru_cache():
    calls = []

    @lru_cache(maxsize=None)
    def size(params):
        calls.append(params.n)
        return params.group_order

    assert size(GroupParams(4)) == size(GroupParams(4)) == 16
    assert size(GroupParams(5)) == 32
    assert calls == [4, 5]


class OtherRule(Record):
    """A record with the fields of ``kring.Rule``, of another class."""

    __slots__ = ("label", "pattern", "rhs")


def test_different_classes_with_equal_fields_are_unequal():
    ring = intmath._ring(2)
    assert Element(ring, (1, 0)) != CyclotomicInt(2, (1, 0))
    assert CyclotomicInt(2, (1, 0)) != Element(ring, (1, 0))
    rule = relations_for(3)[0]
    assert OtherRule(rule.label, rule.pattern, rule.rhs) != rule
    assert Check("a", True) != ("a", True, "")


def test_defaults():
    assert Check("a", True).detail == ""
    assert Check(name="a", passed=False).detail == ""
    with pytest.raises(TypeError):
        Report("t")
    assert IntPoly().coeffs == ()
    assert IntPoly() == IntPoly((0, 0))


def test_keyword_construction():
    assert TableCell(n=3, N=0, order=8, expected=8) == TableCell(3, 0, 8, 8)
    assert Element(ring=intmath._ring(2), coeffs=(1, 2)) == Element(intmath._ring(2), (1, 2))
    assert IntPoly(coeffs=(1,)) == IntPoly.of(1)
    with pytest.raises(TypeError):
        TableCell(3, 0, 8)
    with pytest.raises(TypeError):
        GroupParams(3, 4)
    with pytest.raises(TypeError):
        GroupParams(m=3)


def test_repr_text():
    params = GroupParams(3)
    assert repr(intmath._ring(2)) == "Ring(name='Z[zeta_4]')"
    assert (repr(CyclotomicInt(2, (1, -1)))
            == "CyclotomicInt(ring=Ring(name='Z[zeta_4]'), coeffs=(1, -1))")
    assert (repr(RepElement(params, (1, 0, 0, 0, 2)))
            == "RepElement(ring=Ring(name='R(Q_8)'), coeffs=(1, 0, 0, 0, 2))")
    assert repr(IntPoly((1, 2, 0))) == "IntPoly(coeffs=(1, 2))"
    assert (repr(smith_normal_form([[2, 0], [0, 4]]))
            == "SmithForm(D=[[2, 0], [0, 4]], U=[[1, 0], [0, 1]], V=[[1, 0], [0, 1]])")
    assert repr(Check("a", True)) == "Check(name='a', passed=True, detail='')"
    assert (repr(Report("t", (Check("a", False, "x"),)))
            == "Report(title='t', checks=(Check(name='a', passed=False, detail='x'),))")
    assert repr(params) == "GroupParams(n=3)"
    assert (repr(ClassFunction(params, (CyclotomicInt.from_int(2, 1),)))
            == "ClassFunction(params=GroupParams(n=3), values=(CyclotomicInt("
               "ring=Ring(name='Z[zeta_4]'), coeffs=(1, 0)),))")
    rules = relations_for(3)
    assert (repr(relation(rules, "relation1"))
            == "Rule(label='relation1', pattern=(2, 0, 0), rhs=(((1, 0, 0), -2),))")
    assert (repr(relation(rules, "relation3"))
            == "Rule(label='relation3', pattern=(0, 0, 3), rhs=(((0, 0, 1), -8), ((0, 0, 2), -6)))")
    assert (repr(rules[0])
            == "Rule(label='relation4', pattern=(1, 0, 1), rhs=(((1, 0, 0), -2),))")
    assert (repr(MinimalityCertificate("relation1", 1, 2, {(1, 0, 0): 1}))
            == "MinimalityCertificate(label='relation1', degree=1, exponent=2, "
               "residue={(1, 0, 0): 1})")
    assert repr(TableCell(3, 0, 8, 8)) == "TableCell(n=3, N=0, order=8, expected=8)"
    assert repr(CohGroup((2, 2))) == "CohGroup(factors=(2, 2))"
    q = truncated_quotient(3, 0)
    assert repr(q) == (
        "TruncatedQuotient(params=GroupParams(n=3), N=0, "
        "lattice=((5, 1, 1, 1, -4), (1, 5, 1, 1, -4), (1, 1, 5, 1, -4), (1, 1, 1, 5, -4), "
        "(-4, -4, -4, -4, 8)), basis=((1, 1, 1, 4), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 8)), "
        "snf=SmithForm(D=[[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 8]], "
        "U=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "
        "V=[[1, -1, -1, -4], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))")


def test_constructor_checks():
    with pytest.raises(ValueError, match=r"^expected 2 coefficients, got 3$"):
        Element(intmath._ring(2), (1, 2, 3))
    with pytest.raises(ValueError, match=r"^expected 5 coefficients, got 4$"):
        RepElement(GroupParams(3), (1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"^quaternion groups need n >= 3$"):
        GroupParams(2)
    with pytest.raises(ValueError, match=r"^cyclic factors must be >= 0$"):
        CohGroup((2, -1))


def test_constructors_normalise_their_sequences():
    assert Element(intmath._ring(2), [1, 2]).coeffs == (1, 2)
    assert CohGroup([2, 2]).factors == (2, 2)
    assert IntPoly([0, 1, 0, 0]).coeffs == (0, 1)
