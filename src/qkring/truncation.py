"""Element orders in the truncated rings R(Q_{4k}) / phi^(N+2) R(Q_{4k}).

In the quotient of index N the powers phi, ..., phi^(N+1) survive and
phi^(N+2) is killed, so the N = 0 column reproduces the order 4k of phi in
R/phi^2 R, and the order of phi is 2^(n+2N).  By Atiyah's theorem,
K^0(S^(4M+3)/Q_{4k}) = R(Q_{4k}) / (phi^(M+1)), so the quotient of index N
is K^0(S^(4N+7)/Q_{4k}); ``consistency_report`` checks its torsion order
against that space's cohomology, which ``cohomology`` tabulates.

The ideal is encoded as the integer lattice spanned by phi^(N+2) * b over
the k+3 basis elements b.  Every such row has dimension 0, because phi
does, so coordinate 0 (the trivial representation) is fixed by the others
and is dropped.  Multiplying the regular representation by phi^(N+2) gives
0, a dependency with coefficient 1 on b = 1, so the k+2 projected rows
b != 1 span the projected lattice; their determinant D is its index, and
D * Z^(k+2) lies inside it.  Orders are read off the Smith normal form of
the reduced Hermite basis of the lattice modulo D, a (k+2)-square matrix
whose Smith transforms stay small (under 64 bits for n <= 10, N <= 16),
where those of the raw lattice reached hundreds of thousands of bits.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .intmatrix import determinant, hermite_basis_mod, smith_normal_form
from .report import Record
from .repring import GroupParams, RepElement, basis_elements, phi_element


class TruncatedQuotient(Record):
    __slots__ = ("params", "N",
                 "lattice",  # rows: phi^(N+2) * b in irreducible-basis coordinates
                 "basis",  # reduced Hermite basis of the lattice in coordinates 1..k+2
                 "snf")  # SmithForm of ``basis``


def truncated_quotient(n: int, N: int) -> TruncatedQuotient:
    if N < 0:
        raise ValueError("N must be >= 0")
    params = GroupParams(n)
    power = phi_element(params) ** (N + 2)
    products = [power * b for b in basis_elements(params)]
    if any(p.dimension() for p in products):
        raise ArithmeticError(f"a row of phi^{N + 2} * R has nonzero dimension")
    rows = tuple(p.coeffs for p in products)
    index = abs(determinant([list(r[1:]) for r in rows[1:]]))
    if index == 0:
        raise ArithmeticError(f"the rows of phi^{N + 2} * R do not have full rank")
    basis = tuple(map(tuple, hermite_basis_mod([r[1:] for r in rows], index)))
    snf = smith_normal_form([list(r) for r in basis])
    return TruncatedQuotient(params, N, rows, basis, snf)


def order_of(element: RepElement, q: TruncatedQuotient):
    """Least t >= 1 with t * element in the relation lattice; None if no such t.

    Every lattice vector has dimension 0, so an element of nonzero dimension
    has no finite order.  A dimension-0 element is fixed by its coordinates
    1..k+2, those of ``q.basis``; with U*B*V = D, the condition t*e in
    rowspace(B) becomes per-column divisibility of t * (e*V) by the
    diagonal of D.
    """
    if element.params != q.params:
        raise ValueError("element and quotient have different group parameters")
    if element.dimension() != 0:
        return None
    e = element.coeffs[1:]
    V = q.snf.V
    t = 1
    for j, d in enumerate(q.snf.diagonal):
        a = sum(e[i] * V[i][j] for i in range(len(e)))
        t = lcm(t, d // gcd(d, a))
    return t


def phi_order(n: int, N: int):
    q = truncated_quotient(n, N)
    return order_of(phi_element(q.params), q)


def expected_phi_order(n: int, N: int) -> int:
    """The paper's order of phi in the truncation of index N: 2^(n+2N)."""
    return 2 ** (n + 2 * N)


def torsion_order(q: TruncatedQuotient) -> int:
    """Product of the nonzero elementary divisors: the size of the torsion
    part of the quotient group, which is the index D of the lattice."""
    return prod(d for d in q.snf.diagonal if d)


class TableCell(Record):
    __slots__ = ("n", "N", "order", "expected")

    @property
    def match(self) -> bool:
        return self.order == self.expected

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "order": pow2_str(self.order),
            "expected": pow2_str(self.expected),
            "match": self.match,
        }


def pow2_str(x) -> str:
    """An order as text: "2^e" for a power of two, "infinite" for None."""
    if x is None:
        return "infinite"
    if x > 0 and x & (x - 1) == 0:
        return f"2^{x.bit_length() - 1}"
    return str(x)


def corollary2_table(n_max: int, N_max: int):
    """order(phi) for 3 <= n <= n_max, 0 <= N <= N_max, with expected 2^(n+2N)."""
    if n_max < 3 or N_max < 0:
        raise ValueError("need n_max >= 3 and N_max >= 0")
    return [table_cell(n, N) for n in range(3, n_max + 1) for N in range(N_max + 1)]


def table_cell(n: int, N: int) -> TableCell:
    """order(phi) in the truncation of index N, with its expected value."""
    return TableCell(n, N, phi_order(n, N), expected_phi_order(n, N))


class ConsistencyReport(Record):
    """order(phi) in R/phi^(N+2) R against 2^(n+2N), and the torsion order of
    that quotient against the cohomology product through degree 4N+6."""

    __slots__ = ("n", "N", "phi_order", "phi_expected", "torsion",
                 "predicted")  # product of |H^(2j)| over 2 <= 2j <= 4N+6

    @property
    def phi_match(self) -> bool:
        return self.phi_order == self.phi_expected

    @property
    def torsion_match(self) -> bool:
        return self.torsion == self.predicted

    @property
    def passed(self) -> bool:
        return self.phi_match and self.torsion_match

    def lines(self):
        return [
            f"order(phi): computed {pow2_str(self.phi_order)}, "
            f"expected 2^(n+2N) = {pow2_str(self.phi_expected)}, "
            f"match: {'yes' if self.phi_match else 'NO'}",
            f"reduced torsion of the truncation: {self.torsion}",
            f"cohomology product through degree {4 * self.N + 6}: {self.predicted}, "
            f"match: {'yes' if self.torsion_match else 'NO'}",
        ]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "phi_order": pow2_str(self.phi_order),
            "phi_expected": pow2_str(self.phi_expected),
            "phi_match": self.phi_match,
            "torsion": str(self.torsion),
            "cohomology_degree": 4 * self.N + 6,
            "cohomology_product": str(self.predicted),
            "torsion_match": self.torsion_match,
        }


def consistency_report(n: int, N: int) -> ConsistencyReport:
    """Check the truncated ring of index N against 2^(n+2N) and against the
    cohomology of S^(4N+7)/Q_{4k}, the space whose K^0 it is."""
    from .cohomology import predicted_reduced_order  # order and table never load it

    params = GroupParams(n)
    q = truncated_quotient(n, N)
    return ConsistencyReport(
        n=n,
        N=N,
        phi_order=order_of(phi_element(params), q),
        phi_expected=expected_phi_order(n, N),
        torsion=torsion_order(q),
        predicted=predicted_reduced_order(N + 1, params.k),
    )
