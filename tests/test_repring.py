import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring.intmath import CyclotomicInt
from qkring.repring import (ETA3, GroupParams, RepElement, _character_table,
                            basis_elements, basis_labels, canonical_d,
                            class_sizes, eta1, eta2, one, phi_element,
                            verify_orthogonality, verify_structure_constants)
from reference import (ClassFunction, character_of, character_table, decompose,
                       inner_product, pointwise)

P3, P4, P6 = GroupParams(3), GroupParams(4), GroupParams(6)


def el(params, one=0, eta1=0, eta2=0, eta3=0, d=()):
    """Shorthand builder: el(P4, one=1, eta1=1, d={1: 2})."""
    coeffs = [one, eta1, eta2, eta3] + [0] * (params.k - 1)
    for i, c in dict(d).items():
        coeffs[3 + i] = c
    return RepElement(params, coeffs)


def test_params():
    assert (P3.k, P3.m, P3.group_order) == (2, 4, 8)
    assert (P4.k, P4.m, P4.group_order) == (4, 8, 16)
    with pytest.raises(ValueError):
        GroupParams(2)


@pytest.mark.parametrize("n", [3.0, "3", True])
def test_params_reject_a_non_integer_n(n):
    # 3.0 == 3 and hashes alike, so it would share the caches keyed by n
    with pytest.raises(TypeError):
        GroupParams(n)


def test_canonical_d_endpoints():
    assert canonical_d(P4, 0) == el(P4, one=1, eta1=1)
    assert canonical_d(P4, 4) == el(P4, eta2=1, eta3=1)
    assert canonical_d(P4, 11) == el(P4, d={1: 0, 3: 1})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canonical_d_folding(n):
    params = GroupParams(n)
    m = params.m
    for i in range(-3 * m, 3 * m + 1):
        target = canonical_d(params, i)
        assert canonical_d(params, -i) == target
        assert canonical_d(params, m - i) == target


def test_multiply_examples():
    d1 = canonical_d(P4, 1)
    assert d1 * d1 == el(P4, one=1, eta1=1, d={2: 1})
    d1_small = canonical_d(P3, 1)
    assert d1_small * d1_small == el(P3, one=1, eta1=1, eta2=1, eta3=1)
    assert basis_elements(P4)[ETA3] * canonical_d(P4, 2) == canonical_d(P4, 2)


def test_eta_products():
    for params in (P3, P4):
        assert eta1(params) * eta1(params) == one(params)
        assert eta2(params) * eta2(params) == one(params)
        eta3 = basis_elements(params)[ETA3]
        assert eta3 * eta3 == one(params)
        assert eta1(params) * eta2(params) == eta3


def test_eta_action_on_d_span():
    for params in (P3, P4, P6):
        for i in range(1, params.k):
            di = canonical_d(params, i)
            assert eta1(params) * di == di
            assert eta2(params) * di == basis_elements(params)[ETA3] * di
            assert eta2(params) * di == canonical_d(params, params.k - i)


def _rep_elements(n):
    size = GroupParams(n).basis_size
    return st.lists(st.integers(-9, 9), min_size=size, max_size=size).map(
        lambda cs: RepElement(GroupParams(n), tuple(cs)))


@settings(max_examples=30)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_ring_axioms(n, data):
    a = data.draw(_rep_elements(n))
    b = data.draw(_rep_elements(n))
    c = data.draw(_rep_elements(n))
    params = GroupParams(n)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one(params) == a


def test_class_data():
    for params in (P3, P4, P6):
        sizes = class_sizes(params)
        assert len(sizes) == params.basis_size
        assert sum(sizes) == params.group_order
        assert sizes[:2] == [1, 1] and sizes[-2:] == [params.k, params.k]


def test_character_dimensions():
    for params in (P3, P4, P6):
        dims = (1, 1, 1, 1) + (2,) * (params.k - 1)
        for chi, dim in zip(character_table(params), dims):
            assert chi.values[0] == CyclotomicInt.from_int(params.k, dim)


def test_character_values():
    # eta1 takes value 1 on the class of x (forced by eta1*d_i = d_i)
    table = character_table(P4)
    assert table[1].values[2] == CyclotomicInt.from_int(4, 1)
    # d_1 on the central class x^k: zeta^k + zeta^-k = -2
    assert table[4].values[1] == CyclotomicInt.from_int(4, -2)
    # two-dimensional characters vanish on [y] and [xy]
    assert table[4].values[-1].is_zero() and table[4].values[-2].is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_sparse_table_expands_to_the_dense_table(n):
    params = GroupParams(n)
    values, ids, conj = _character_table(n)
    assert [[values[x] for x in chi] for chi in ids] == [
        list(chi.values) for chi in character_table(params)]
    assert all(values[conj[x]] == value.conj() for x, value in enumerate(values))


@pytest.mark.parametrize("n", range(3, 11))
def test_sparse_table_holds_each_value_once(n):
    values, ids, conj = _character_table(n)
    k = GroupParams(n).k
    assert len(values) == len(set(values)) == len(conj) == k + 3
    assert {x for chi in ids for x in chi} == set(range(k + 3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orthogonality(n):
    assert verify_orthogonality(GroupParams(n)).all_passed


def test_decompose_round_trip_basis():
    for params in (P3, P4):
        for b in basis_elements(params):
            assert decompose(character_of(b)) == b
    assert decompose(character_of(el(P4))) == el(P4)


@settings(max_examples=25)
@given(st.sampled_from([3, 4]), st.data())
def test_decompose_round_trip_random(n, data):
    r = data.draw(_rep_elements(n))
    assert decompose(character_of(r)) == r


def test_decompose_pointwise_square():
    # character of d_1*d_1 computed pointwise, k=2
    chi = character_of(canonical_d(P3, 1))
    assert decompose(pointwise(chi, chi)) == el(P3, one=1, eta1=1, eta2=1, eta3=1)


def test_decompose_rejects_non_character():
    k = P3.k
    delta = ClassFunction(P3, tuple(
        CyclotomicInt.from_int(k, 1 if i == 0 else 0)
        for i in range(P3.basis_size)))
    with pytest.raises(ValueError):
        decompose(delta)


def test_inner_product_unit():
    table = character_table(P4)
    assert inner_product(table[0], table[0]) == 1
    assert inner_product(table[0], table[4]) == 0


@pytest.mark.parametrize("n,pairs", [(3, 25), (4, 49), (6, 361)])
def test_structure_constants(n, pairs):
    report = verify_structure_constants(GroupParams(n))
    assert len(report.checks) == pairs
    assert report.all_passed


def test_phi_element():
    phi = phi_element(P3)
    assert phi == el(P3, one=-2, d={1: 1})
    assert phi.dimension() == 0
    assert (phi * phi).dimension() == 0


def test_str():
    assert str(el(P4, one=1, eta1=-4, d={2: 1})) == "1 - 4*eta1 + d_2"
    assert str(el(P3)) == "0"
    assert basis_labels(P4) == ["1", "eta1", "eta2", "eta3", "d_1", "d_2", "d_3"]


# --- the sparse oracle against the outside view and dense references -------

def _virtual_pair(n):
    return st.tuples(_rep_elements(n), _rep_elements(n))


@settings(max_examples=20)
@given(st.sampled_from([3, 4, 5, 6]), st.data())
def test_inner_product_of_characters_is_coefficient_dot(n, data):
    # orthonormality of the irreducible characters, seen from outside
    a, b = data.draw(_virtual_pair(n))
    assert inner_product(character_of(a), character_of(b)) == sum(
        x * y for x, y in zip(a.coeffs, b.coeffs))


@settings(max_examples=20)
@given(st.sampled_from([3, 4, 5, 6]), st.data())
def test_character_of_product_is_pointwise(n, data):
    a, b = data.draw(_virtual_pair(n))
    assert character_of(a * b) == pointwise(character_of(a), character_of(b))


def _negacyclic_product(x, y):
    """x * y in Z[t]/(t^k + 1), on plain coefficient tuples."""
    k = len(x)
    out = [0] * k
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            e = a + b
            if e < k:
                out[e] += xa * yb
            else:
                out[e - k] -= xa * yb
    return out


def _dense_gram_check(params, f, g):
    """(passed, detail) of <f, g> = delta, computed densely with no Z[zeta]
    table: conj(zeta^e) = -zeta^(k-e), and products are negacyclic."""
    k, order = params.k, params.group_order
    total = [0] * k
    for size, x, y in zip(class_sizes(params), f.values, g.values):
        y = y.coeffs
        conj = [y[0]] + [-y[k - e] for e in range(1, k)]
        for t, c in enumerate(_negacyclic_product(x.coeffs, conj)):
            total[t] += size * c
    if any(total[1:]):
        return False, f"{CyclotomicInt(k, total)} is not a rational integer"
    value, r = divmod(total[0], order)
    if r:
        return False, (f"inner product {total[0]}/{order} is not an integer; "
                       "the class function is not a virtual character")
    return value == (1 if f is g else 0), f"value {value}"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gram_entries_match_dense_reference(n):
    params = GroupParams(n)
    table = character_table(params)
    expected = [_dense_gram_check(params, f, g) for f in table for g in table]
    checks = verify_orthogonality(params).checks
    assert [(c.passed, c.detail) for c in checks] == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structure_verdicts_match_dense_reference(n):
    params = GroupParams(n)
    table = character_table(params)
    expected = [character_of(a * b) == pointwise(fa, fb)
                for a, fa in zip(basis_elements(params), table)
                for b, fb in zip(basis_elements(params), table)]
    checks = verify_structure_constants(params).checks
    assert [c.passed for c in checks] == expected
