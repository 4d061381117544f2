import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring import adams, kring
from qkring.adams import g_poly, psi_oracles, psi_series, to_pairs, verify_oracles
from qkring.freemodule import fp_format
from qkring.intmath import IntPoly
from qkring.repring import GroupParams, phi_element
from reference import chebyshev_t, dense, horner, in_phi, psi_closed_form, psi_oracle


def test_psi_small_values():
    assert psi_series(1) == in_phi(1)
    assert psi_series(2) == in_phi(4, 1)
    assert psi_series(3) == in_phi(9, 6, 1)
    assert psi_series(4) == in_phi(16, 20, 8, 1)
    assert psi_series(5) == in_phi(25, 50, 35, 10, 1)


def test_psi_series_walk_matches_closed_form():
    # the term-ratio walk and the closed binomial series give the same psi^i
    for i in range(1, 301):
        assert psi_series(i) == psi_closed_form(i), i


def test_psi_oracle_small_values():
    assert psi_oracle(1) == in_phi(1)
    assert psi_oracle(2) == in_phi(4, 1)
    assert psi_oracle(4) == in_phi(16, 20, 8, 1)


def test_psi_series_matches_oracle():
    for i in range(1, 101):
        assert psi_series(i) == psi_oracle(i)


def test_psi_shape():
    for i in range(1, 101):
        p = psi_series(i)
        assert sorted(p) == [(0, 0, j) for j in range(1, i + 1)]
        assert p[0, 0, 1] == i * i
        assert p[0, 0, i] == 1


def test_psi_rejects_bad_degree():
    with pytest.raises(ValueError):
        psi_series(0)
    with pytest.raises(ValueError):
        psi_oracle(0)


def test_g_small_values():
    assert g_poly(2) == in_phi(8, 6, 1)
    assert g_poly(4) == in_phi(16, 44, 34, 10, 1)


def test_g_quadratic_coefficient():
    for k in (2, 4, 8, 16):
        assert g_poly(k)[0, 0, 2] == k * (2 * k * k + 1) // 3


def test_g_shape():
    for k in (2, 3, 4, 5, 8):
        g = g_poly(k)
        assert sorted(g) == [(0, 0, j) for j in range(1, k + 2)]
        assert g[0, 0, k + 1] == 1
        assert g[0, 0, 1] == 4 * k


def test_g_identity_powers_of_two():
    for k in (2, 4, 8, 16, 32, 64):
        assert verify_oracles(k).all_passed


def test_g_identity_generic_k():
    # the polynomial identity needs no power-of-two hypothesis
    for k in (3, 5, 6, 7, 10):
        assert verify_oracles(k).all_passed


def test_g_rejects_small_k():
    with pytest.raises(ValueError):
        g_poly(1)


def _two_adic(c):
    """Largest e with 2^e dividing the nonzero integer c."""
    return (c & -c).bit_length() - 1


def test_two_adic_jump():
    # linear coefficient has valuation n, quadratic has n-2
    for n in range(3, 9):
        k = 2 ** (n - 2)
        g = g_poly(k)
        assert _two_adic(g[0, 0, 1]) == n
        assert _two_adic(g[0, 0, 2]) == n - 2


def _composes(i, j):
    """psi^i(psi^j) == psi^(ij)."""
    return dense(psi_series(i)).compose(dense(psi_series(j))) == dense(psi_series(i * j))


def test_compose_examples():
    assert _composes(2, 3)
    assert _composes(1, 7)
    assert _composes(3, 2)
    lhs, rhs = dense(psi_series(2)).compose(dense(psi_series(3))), dense(psi_series(6))
    assert all(lhs.coeff(d) == rhs.coeff(d) for d in range(1, 5))


@settings(max_examples=20)
@given(st.integers(1, 6), st.integers(1, 6))
def test_compose_property(i, j):
    assert _composes(i, j)


def test_evaluate_integer():
    # psi^2 at w = 3 is 9 + 12 = 21
    assert horner(dense(psi_series(2)), 3) == 21
    assert horner(IntPoly(), 5) == 0


def test_to_pairs():
    assert to_pairs(g_poly(4)) == [[1, "16"], [2, "44"], [3, "34"], [4, "10"], [5, "1"]]
    assert to_pairs({(0, 0, 2): 1, (0, 0, 1): -3}) == [[1, "-3"], [2, "1"]]
    assert to_pairs({}) == []


def test_format():
    assert fp_format(psi_series(3)) == "phi^3 + 6*phi^2 + 9*phi"
    assert fp_format({}) == "0"


def test_psi_and_g_are_formal_polynomials_in_phi():
    # keyed by (0, 0, j) with j >= 1, and holding only nonzero coefficients,
    # so that an equal polynomial is an equal dict
    for poly in [psi_series(i) for i in range(1, 40)] + [g_poly(k) for k in range(2, 20)]:
        assert all(a == b == 0 and c >= 1 and x for (a, b, c), x in poly.items())


def test_evaluate_without_a_unit():
    # with no constant term, evaluation needs no 1 of the target ring: Horner
    # on R's phi alone agrees with the embedding's evaluation
    for n in (3, 4, 5):
        phi = phi_element(GroupParams(n))
        for i in (1, 2, 3, 5):
            assert horner(dense(psi_series(i)), phi) == kring._embedding(n).of_formal(
                psi_series(i))


def test_oracle_requires_the_constant_term_two(monkeypatch):
    # planting w + 2 as 3 + w gives s_1 - 2 the constant term 1
    class Planted(IntPoly):
        @classmethod
        def of(cls, *coeffs):
            return IntPoly((3, 1) if coeffs == (2, 1) else coeffs)

    monkeypatch.setattr(adams, "IntPoly", Planted)
    with pytest.raises(ArithmeticError, match=r"^nonzero constant term 1$"):
        next(psi_oracles())


def test_psi_oracles_walk_matches_composed_chebyshev():
    # the reference is the construction the walk replaced: t_i(w + 2) - 2
    walk = psi_oracles()
    for i in range(1, 41):
        composed = chebyshev_t(i).compose(IntPoly.of(2, 1)) - IntPoly.of(2)
        assert composed.coeff(0) == 0
        assert next(walk) == in_phi(*composed.coeffs[1:]) == psi_oracle(i)


def test_non_integral_coefficients_raise_in_lowest_terms(monkeypatch):
    # with psi^2's first quotient read as 8/16, not 8/2, its coefficient of w
    # is 1/2; with every binomial read as 1, g_8 has (2*16 + 2) / (2 * 5) on phi^3
    true_integral = adams._integral

    def wrong_ratio(num, den, what):
        return true_integral(num, 16 if what == "psi^2: coefficient of w^1" else den, what)

    monkeypatch.setattr(adams, "_integral", wrong_ratio)
    with pytest.raises(ArithmeticError, match=r"^psi\^2: coefficient of w\^1 is 1/2, "
                                              r"not an integer$"):
        adams.psi_series(2)
    monkeypatch.setattr(adams, "_integral", true_integral)
    monkeypatch.setattr(adams, "comb", lambda a, b: 1)
    with pytest.raises(ArithmeticError, match=r"^g_8: coefficient of phi\^3 is 17/5, "
                                              r"not an integer$"):
        adams.g_poly(4)
