import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring import kring, lens
from qkring.adams import psi_series
from qkring.kring import fp_mul, relation, relations_for
from qkring.lens import (LensElement, eta_power, lens_one,
                         lens_zero, restrict, verify_relations_vanish,
                         verify_restriction_hom, w_element)
from qkring.repring import (GroupParams, RepElement, basis_elements,
                            canonical_d, eta1, phi_element)
import reference
from reference import dense, embed_to_R, horner, nf_basis


def test_eta_relation():
    k = 2
    assert eta_power(k, 2 * k - 1) * eta_power(k, 1) == lens_one(k)
    assert eta_power(k, 5) == eta_power(k, 1)
    assert eta_power(k, -1) == eta_power(k, 2 * k - 1)


def test_w_square_convolution():
    # k = 2: w = eta + eta^3 - 2, w^2 = 6 - 4*eta + 2*eta^2 - 4*eta^3
    w = w_element(2)
    assert w.coeffs == (-2, 1, 0, 1)
    assert (w * w).coeffs == (6, -4, 2, -4)


def test_multiplicative_unit():
    a = LensElement(4, (1, -2, 0, 3, 0, 0, 1, 0))
    assert a * lens_one(4) == a


def test_mismatched_k_rejected():
    with pytest.raises(ValueError):
        lens_one(2) * lens_one(4)


def _lens_elements(k):
    return st.lists(st.integers(-9, 9), min_size=2 * k, max_size=2 * k).map(
        lambda cs: LensElement(k, tuple(cs)))


@settings(max_examples=30)
@given(st.sampled_from([2, 4]), st.data())
def test_lens_ring_axioms(k, data):
    a = data.draw(_lens_elements(k))
    b = data.draw(_lens_elements(k))
    c = data.draw(_lens_elements(k))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_restrict_basis_images():
    p = GroupParams(4)
    k = p.k
    assert restrict(canonical_d(p, 1)) == eta_power(k, 1) + eta_power(k, -1)
    assert restrict(eta1(p)) == lens_one(k)
    assert restrict(phi_element(p)) == w_element(k)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_restrict_matches_the_loop_reference(n):
    params = GroupParams(n)
    rng = random.Random(n)
    random_elements = [RepElement(params, [rng.randint(-9, 9) for _ in range(params.basis_size)])
                       for _ in range(50)]
    for r in basis_elements(params) + random_elements:
        assert restrict(r) == reference.restrict(r), r


def test_restrict_kernel():
    for n in (3, 4, 5, 6):
        assert restrict(embed_to_R(nf_basis(n)[1])).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_restriction_hom(n):
    assert verify_restriction_hom(n).all_passed


@settings(max_examples=25)
@given(st.sampled_from([3, 4]), st.data())
def test_restriction_hom_random(n, data):
    params = GroupParams(n)
    size = params.basis_size
    coeffs = st.lists(st.integers(-9, 9), min_size=size, max_size=size)
    a = RepElement(params, tuple(data.draw(coeffs)))
    b = RepElement(params, tuple(data.draw(coeffs)))
    assert restrict(a * b) == restrict(a) * restrict(b)


def test_restriction_hom_on_basis_grid():
    params = GroupParams(5)
    basis = basis_elements(params)
    for a in basis:
        for b in basis:
            assert restrict(a * b) == restrict(a) * restrict(b)


@pytest.mark.parametrize("n,calls", [(3, 105), (4, 131)])
def test_restriction_hom_restricts_each_element_once(monkeypatch, n, calls):
    # (k+3) basis images, one image of each of the (k+3)^2 basis products,
    # and three restrictions per random trial (a, b and a*b), 25 trials
    count = 0

    def counted(r):
        nonlocal count
        count += 1
        return restrict(r)

    monkeypatch.setattr(lens, "restrict", counted)
    assert verify_restriction_hom(n, seed=7).all_passed
    size = GroupParams(n).basis_size
    assert count == calls == size + size ** 2 + 75


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_relations_vanish(n):
    report = verify_relations_vanish(n)
    assert report.all_passed


def test_psi_image_identity_all_degrees():
    # in the lens ring, psi^i(w) = eta^i + eta^-i - 2 for every i, not just odd
    for n in (3, 4, 5, 6):
        k = GroupParams(n).k
        w = w_element(k)
        two = 2 * lens_one(k)
        for i in range(1, 2 * k + 1):
            assert horner(dense(psi_series(i)), w) == eta_power(k, i) + eta_power(k, -i) - two


def test_relation6_sides_agree_in_lens():
    for n in (3, 4, 5, 6):
        k = GroupParams(n).k
        rel = relation(relations_for(n), "relation6")
        from qkring.lens import _substitution
        sub = _substitution(k)
        assert sub.of_formal({rel.pattern: 1}) == sub.of_formal(dict(rel.rhs))


def test_str():
    assert str(w_element(2)) == "-2 + eta + eta^3"
    assert str(lens_zero(2)) == "0"


def _formal_polys(k):
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, k + 2))
    return st.dictionaries(monos, st.integers(-9, 9).filter(bool), max_size=6)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lens_substitution_is_restricted_embedding_on_relations(n):
    k = GroupParams(n).k
    for rel in relations_for(n):
        f = rel.difference()
        assert lens._substitution(k).of_formal(f) == restrict(kring._embedding(n).of_formal(f))


@settings(max_examples=25)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_lens_substitution_is_restricted_embedding(n, data):
    k = GroupParams(n).k
    f = data.draw(_formal_polys(k))
    assert lens._substitution(k).of_formal(f) == restrict(kring._embedding(n).of_formal(f))


@pytest.mark.parametrize("k", [2, 4, 8])
def test_lens_monomial_is_the_literal_product(k):
    sub = lens._substitution(k)
    v2 = eta_power(k, k) - lens_one(k)
    for mono in kring._monomials(0, 4):
        a, b, c = mono
        assert sub.monomial(mono) == lens_zero(k) ** a * v2 ** b * w_element(k) ** c
        assert sub.of_formal({mono: -3}) == -3 * sub.monomial(mono)


@settings(max_examples=25)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_substitution_is_multiplicative(n, data):
    k = GroupParams(n).k
    f = data.draw(_formal_polys(k))
    g = data.draw(_formal_polys(k))
    for sub in (kring._embedding(n), lens._substitution(k)):
        assert sub.of_formal(fp_mul(f, g)) == sub.of_formal(f) * sub.of_formal(g)
