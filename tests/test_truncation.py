from math import gcd, lcm

import pytest

from qkring import truncation
from qkring.intmatrix import determinant, smith_normal_form
from qkring.repring import GroupParams, RepElement, basis_elements, one, phi_element
from qkring.truncation import (TableCell, corollary2_table, order_of,
                               phi_order, pow2_str, torsion_order,
                               truncated_quotient)
from reference import smith_failure


def test_lattice_shape():
    q = truncated_quotient(3, 0)
    assert len(q.lattice) == 5 and all(len(r) == 5 for r in q.lattice)
    assert sum(1 for d in q.snf.diagonal if d != 0) == 4
    q = truncated_quotient(4, 1)
    assert len(q.lattice) == 7
    assert sum(1 for d in q.snf.diagonal if d != 0) == 6


def test_lattice_rows_are_phi_power_multiples():
    # N indexes the sphere S^(4N+3); the ideal is generated by phi^(N+2),
    # the smallest power that survives at N = 0 is phi itself
    params = GroupParams(3)
    q = truncated_quotient(3, 0)
    square = phi_element(params) ** 2
    assert q.lattice[0] == square.coeffs
    for b, row in zip(basis_elements(params), q.lattice):
        assert row == (square * b).coeffs


def test_snf_certificate():
    # the Smith form factors the reduced Hermite basis, not the raw lattice
    for (n, N) in [(3, 0), (3, 2), (4, 1), (5, 0)]:
        q = truncated_quotient(n, N)
        assert smith_failure(q.snf, [list(r) for r in q.basis]) is None


def _in_span_of_hermite(v, H):
    for j, row in enumerate(H):
        q, r = divmod(v[j], row[j])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("n,N", [(3, 0), (3, 3), (4, 1), (4, 4), (5, 2)])
def test_basis_spans_the_projected_lattice(n, N):
    sympy = pytest.importorskip("sympy")
    q = truncated_quotient(n, N)
    projected = [list(r[1:]) for r in q.lattice]
    basis = [list(r) for r in q.basis]
    # the lattice lies in span(basis) ...
    assert all(_in_span_of_hermite(row, basis) for row in projected)
    # ... and every basis row is an integer combination of the rows b != 1
    coeffs = sympy.Matrix(basis) * sympy.Matrix(projected[1:]).inv()
    assert all(c.is_integer for c in coeffs)


def _route_of_the_raw_lattice(q):
    """Orders and torsion from the Smith form of the raw (k+3)-square
    lattice, as computed before the reduced basis was introduced."""
    snf = smith_normal_form([list(r) for r in q.lattice])
    assert smith_failure(snf, [list(r) for r in q.lattice]) is None
    size = q.params.basis_size

    def order(element):
        e = element.coeffs
        t = 1
        for j in range(size):
            d = snf.diagonal[j]
            a = sum(e[i] * snf.V[i][j] for i in range(size))
            if d == 0:
                if a:
                    return None
            else:
                t = lcm(t, d // gcd(d, a))
        return t

    torsion = 1
    for d in snf.diagonal:
        if d:
            torsion *= d
    return order, torsion


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("N", range(7))
def test_matches_the_raw_lattice_route(n, N):
    q = truncated_quotient(n, N)
    order, torsion = _route_of_the_raw_lattice(q)
    assert torsion_order(q) == torsion
    phi = phi_element(q.params)
    elements = basis_elements(q.params) + [phi, phi ** 2, 0 * phi,
                                           phi - 3 * basis_elements(q.params)[-1]]
    for e in elements:
        assert order_of(e, q) == order(e)


@pytest.mark.parametrize("n,N", [(3, 0), (3, 2), (3, 4), (4, 0), (4, 2), (4, 3)])
def test_elementary_divisors_match_sympy(n, N):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix
    q = truncated_quotient(n, N)
    factors = normalforms.invariant_factors(Matrix([list(r) for r in q.lattice]), domain=ZZ)
    assert [int(d) for d in factors if d] == q.snf.diagonal


@pytest.mark.parametrize("n,N", [(5, 8), (6, 4), (7, 9)])
def test_smith_form_entries_stay_small(n, N):
    # the raw lattice's transforms reached 163,826 bits at (5, 8) and
    # 273,380 bits at (6, 4)
    snf = truncated_quotient(n, N).snf
    bits = max(abs(x).bit_length() for m in (snf.D, snf.U, snf.V) for row in m for x in row)
    assert bits <= 64
    assert phi_order(n, N) == 2 ** (n + 2 * N)


def test_order_of_nonzero_dimension_is_infinite():
    q = truncated_quotient(4, 1)
    phi = phi_element(q.params)
    assert order_of(phi + one(q.params), q) is None
    assert order_of(RepElement(q.params, (0, 0, 0, 0, 1, 0, 0)), q) is None
    assert order_of(RepElement(q.params, (-2, 0, 0, 0, 1, 0, 0)), q) == 64


def test_rows_of_nonzero_dimension_are_rejected(monkeypatch):
    monkeypatch.setattr(truncation, "phi_element", one)
    with pytest.raises(ArithmeticError, match="nonzero dimension"):
        truncated_quotient(3, 0)


def test_singular_rows_are_rejected(monkeypatch):
    monkeypatch.setattr(truncation, "determinant", lambda rows: 0)
    with pytest.raises(ArithmeticError, match="full rank"):
        truncated_quotient(3, 0)


def test_order_examples():
    assert phi_order(4, 0) == 16
    assert phi_order(3, 0) == 8
    assert phi_order(3, 1) == 32
    assert phi_order(4, 2) == 256
    assert phi_order(5, 0) == 32


def test_order_of_unit_infinite():
    q = truncated_quotient(3, 0)
    assert order_of(one(q.params), q) is None


def test_order_of_zero():
    q = truncated_quotient(3, 0)
    assert order_of(0 * phi_element(q.params), q) == 1


def test_order_mismatched_params():
    q = truncated_quotient(3, 0)
    with pytest.raises(ValueError):
        order_of(one(GroupParams(4)), q)


def test_proposition_order_is_4k():
    for n in range(3, 7):
        assert phi_order(n, 0) == 4 * GroupParams(n).k


def test_corollary_grid():
    cells = corollary2_table(6, 3)
    assert len(cells) == 16
    for cell in cells:
        assert cell.expected == 2 ** (cell.n + 2 * cell.N)
        assert cell.match, (cell.n, cell.N, cell.order)


def test_order_jump_is_4():
    for n in range(3, 7):
        for N in range(3):
            assert phi_order(n, N + 1) == 4 * phi_order(n, N)


def _torsion_by_determinant(n, N):
    """Independent oracle: the index [I : phi^(N+2) R] as a determinant.

    The dimension-0 sublattice I has basis {eta_j - 1, d_i - 2}, in which a
    dimension-0 element's coordinates are simply its eta/d coefficients.
    The generator rows phi^p * b satisfy one dependency (multiplying the
    regular representation by phi^p gives 0) whose coefficient on b = 1 is
    1, so dropping that row leaves a genuine lattice basis.
    """
    params = GroupParams(n)
    power = phi_element(params) ** (N + 2)
    rows = [list((power * b).coeffs[1:]) for b in basis_elements(params)[1:]]
    return abs(determinant(rows))


@pytest.mark.parametrize("n,N,expected", [
    (3, 0, 128), (3, 1, 4096), (4, 0, 256), (4, 1, 16384),
    (5, 0, 512), (6, 0, 1024),
])
def test_torsion_order(n, N, expected):
    q = truncated_quotient(n, N)
    assert torsion_order(q) == expected
    assert _torsion_by_determinant(n, N) == expected


def test_torsion_of_identity_lattice():
    snf = smith_normal_form([[1, 0], [0, 1]])
    prod = 1
    for d in snf.diagonal:
        if d:
            prod *= d
    assert prod == 1


def test_table_cell_json():
    cell = TableCell(3, 1, 32, 32)
    assert cell.to_json() == {"n": 3, "N": 1, "order": "2^5",
                              "expected": "2^5", "match": True}
    assert pow2_str(None) == "infinite"
    assert pow2_str(12) == "12"


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        truncated_quotient(3, -1)
    with pytest.raises(ValueError):
        corollary2_table(2, 0)
