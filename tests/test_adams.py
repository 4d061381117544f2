import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring.adams import PhiPoly, g_poly, psi_oracles, psi_series, verify_oracles
from qkring.intmath import IntPoly
from reference import chebyshev_t, horner, psi_closed_form, psi_oracle


def test_psi_small_values():
    assert psi_series(1) == PhiPoly.of(1)
    assert psi_series(2) == PhiPoly.of(4, 1)
    assert psi_series(3) == PhiPoly.of(9, 6, 1)
    assert psi_series(4) == PhiPoly.of(16, 20, 8, 1)
    assert psi_series(5) == PhiPoly.of(25, 50, 35, 10, 1)


def test_psi_series_walk_matches_closed_form():
    # the term-ratio walk and the closed binomial series give the same psi^i
    for i in range(1, 301):
        assert psi_series(i) == psi_closed_form(i), i


def test_psi_oracle_small_values():
    assert psi_oracle(1) == PhiPoly.of(1)
    assert psi_oracle(2) == PhiPoly.of(4, 1)
    assert psi_oracle(4) == PhiPoly.of(16, 20, 8, 1)


def test_psi_series_matches_oracle():
    for i in range(1, 101):
        assert psi_series(i) == psi_oracle(i)


def test_psi_shape():
    for i in range(1, 101):
        p = psi_series(i)
        assert len(p.coeffs) - 1 == i
        assert p.coeff(1) == i * i
        assert p.coeff(i) == 1


def test_psi_rejects_bad_degree():
    with pytest.raises(ValueError):
        psi_series(0)
    with pytest.raises(ValueError):
        psi_oracle(0)


def test_g_small_values():
    assert g_poly(2) == PhiPoly.of(8, 6, 1)
    assert g_poly(4) == PhiPoly.of(16, 44, 34, 10, 1)


def test_g_quadratic_coefficient():
    for k in (2, 4, 8, 16):
        assert g_poly(k).coeff(2) == k * (2 * k * k + 1) // 3


def test_g_shape():
    for k in (2, 3, 4, 5, 8):
        g = g_poly(k)
        assert len(g.coeffs) - 1 == k + 1
        assert g.coeff(k + 1) == 1
        assert g.coeff(1) == 4 * k


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
        assert _two_adic(g.coeff(1)) == n
        assert _two_adic(g.coeff(2)) == n - 2


def _composes(i, j):
    """psi^i(psi^j) == psi^(ij)."""
    return psi_series(i).compose(psi_series(j)) == psi_series(i * j)


def test_compose_examples():
    assert _composes(2, 3)
    assert _composes(1, 7)
    assert _composes(3, 2)
    lhs, rhs = psi_series(2).compose(psi_series(3)), psi_series(6)
    assert all(lhs.coeff(d) == rhs.coeff(d) for d in range(1, 5))


@settings(max_examples=20)
@given(st.integers(1, 6), st.integers(1, 6))
def test_compose_property(i, j):
    assert _composes(i, j)


def test_evaluate_integer():
    # psi^2 at w = 3 is 9 + 12 = 21
    assert horner(psi_series(2), 3) == 21
    assert horner(PhiPoly(), 5) == 0


def test_to_pairs():
    assert g_poly(4).to_pairs() == [[1, "16"], [2, "44"], [3, "34"], [4, "10"], [5, "1"]]


def test_format():
    assert str(psi_series(3)) == "phi^3 + 6*phi^2 + 9*phi"
    assert psi_series(2).format("w") == "w^2 + 4*w"
    assert str(PhiPoly()) == "0"


def test_phipoly_is_an_intpoly():
    p = PhiPoly.of(4, 1)
    assert isinstance(p, IntPoly) and p.coeffs == (0, 4, 1)
    assert len(PhiPoly().coeffs) - 1 == -1
    with pytest.raises(ArithmeticError):
        PhiPoly((1, 2))
    for q in (p + p, p - p, -p, 3 * p, p * 2, p * p, p.compose(p)):
        assert type(q) is PhiPoly
    assert p * p == PhiPoly.of(0, 16, 8, 1)
    assert p.compose(p) == PhiPoly.of(16, 20, 8, 1) == psi_series(4)
    with pytest.raises(ArithmeticError):
        p.compose(IntPoly.of(1, 1))  # 4*(x + 1) + (x + 1)^2 has constant term 5


def test_evaluate_without_a_unit():
    # with no constant term, evaluation needs no 1 of the target ring
    phi = PhiPoly.of(1)
    assert horner(psi_series(5), phi) == psi_series(5)
    assert horner(psi_series(3), psi_series(2)) == psi_series(6)


def test_psi_oracles_walk_matches_composed_chebyshev():
    # the reference is the construction the walk replaced: t_i(w + 2) - 2
    walk = psi_oracles()
    for i in range(1, 41):
        composed = chebyshev_t(i).compose(IntPoly.of(2, 1)) - IntPoly.of(2)
        assert next(walk) == PhiPoly(composed.coeffs) == psi_oracle(i)


def test_non_integral_coefficients_raise_in_lowest_terms(monkeypatch):
    # with psi^2's first quotient read as 8/16, not 8/2, its coefficient of w
    # is 1/2; with every binomial read as 1, g_8 has (2*16 + 2) / (2 * 5) on phi^3
    from qkring import adams

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
