"""Adams-operation polynomials and the degree-(k+1) relation polynomial.

Two independent constructions of psi^i are kept side by side:

* ``psi_series`` -- the closed binomial series
      psi^i(w) = sum_{j=1..i} [C(i,j) * C(i+j-1,j) / C(2j-1,j)] * w^j,
  whose coefficients must all reduce to integers;
* ``psi_oracle`` -- t_i(w + 2) - 2 from the exact recurrence t_i, which
  encodes psi^i(w) = z^i + z^-i - 2 at w = z + 1/z - 2.

Their equality is a standing regression test, not a one-time derivation.
The relation polynomial g_{2k} = psi^(k+1) - psi^(k-1) likewise has its own
closed series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freemodule import format_terms
from .intmath import IntPoly, binomial, chebyshev_t, _trim


@dataclass(frozen=True)
class PhiPoly:
    """Integer polynomial with zero constant term; coeffs[j-1] goes with phi^j."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def of(cls, *coeffs: int) -> "PhiPoly":
        return cls(coeffs)

    @classmethod
    def from_intpoly(cls, p: IntPoly) -> "PhiPoly":
        if p.coeff(0) != 0:
            raise ArithmeticError(f"nonzero constant term {p.coeff(0)}")
        return cls(p.coeffs[1:])

    def to_intpoly(self) -> IntPoly:
        return IntPoly((0,) + self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> int:
        """Coefficient of phi^j (j >= 1)."""
        return self.coeffs[j - 1] if 1 <= j <= len(self.coeffs) else 0

    def __add__(self, other: "PhiPoly") -> "PhiPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return PhiPoly(tuple(self.coeff(j) + other.coeff(j) for j in range(1, n + 1)))

    def __sub__(self, other: "PhiPoly") -> "PhiPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return PhiPoly(tuple(self.coeff(j) - other.coeff(j) for j in range(1, n + 1)))

    def __neg__(self) -> "PhiPoly":
        return PhiPoly(tuple(-c for c in self.coeffs))

    def __rmul__(self, scalar: int) -> "PhiPoly":
        return PhiPoly(tuple(scalar * c for c in self.coeffs))

    def compose(self, other: "PhiPoly") -> "PhiPoly":
        """self(other(phi)); zero constant terms are preserved."""
        return PhiPoly.from_intpoly(self.to_intpoly().compose(other.to_intpoly()))

    def evaluate(self, x):
        """Evaluate at a ring element.

        Only +, * and integer scaling of the target ring are used; with no
        constant term there is never a need for the ring's unit.
        """
        acc = 0 * x
        power = None
        for j, c in enumerate(self.coeffs, start=1):
            power = x if j == 1 else power * x
            if c:
                acc = acc + c * power
        return acc

    def to_pairs(self):
        """[[exponent, coefficient-as-decimal-string], ...], ascending."""
        return [[j, str(c)] for j, c in enumerate(self.coeffs, start=1) if c]

    @classmethod
    def from_pairs(cls, pairs) -> "PhiPoly":
        coeffs = {}
        for exp, text in pairs:
            exp = int(exp)
            if exp < 1:
                raise ValueError("phi-polynomials have no constant term")
            coeffs[exp] = int(text)
        top = max(coeffs, default=0)
        return cls(tuple(coeffs.get(j, 0) for j in range(1, top + 1)))

    def format(self, var: str = "phi") -> str:
        terms = [(c, var if j == 1 else f"{var}^{j}")
                 for j, c in enumerate(self.coeffs, start=1)]
        return format_terms(reversed(terms))

    def __str__(self) -> str:
        return self.format()


def psi_series(i: int) -> PhiPoly:
    """psi^i from the closed binomial series; every coefficient must be integral."""
    if i < 1:
        raise ValueError("psi^i requires i >= 1")
    coeffs = []
    for j in range(1, i + 1):
        q = Fraction(binomial(i, j) * binomial(i + j - 1, j), binomial(2 * j - 1, j))
        if q.denominator != 1:
            raise ArithmeticError(f"psi^{i}: coefficient of w^{j} is {q}, not an integer")
        coeffs.append(int(q))
    return PhiPoly(tuple(coeffs))


def psi_oracle(i: int) -> PhiPoly:
    """psi^i built independently as t_i(w + 2) - 2."""
    if i < 1:
        raise ValueError("psi^i requires i >= 1")
    shifted = chebyshev_t(i).compose(IntPoly.of(2, 1))
    if shifted.coeff(0) != 2:
        raise ArithmeticError(f"t_{i}(w+2) has constant term {shifted.coeff(0)}, expected 2")
    return PhiPoly(shifted.coeffs[1:])


def g_poly(k: int) -> PhiPoly:
    """The degree-(k+1) relation polynomial

        g_{2k} = 4k*phi + sum_{j=2..k} [(2k^2+j-1)/((j-1)(2j-1))] * C(k+j-2, 2j-3) * phi^j
                 + phi^(k+1).

    Monic, zero constant term, linear coefficient 4k.  Any k >= 2 is
    accepted; the group-level modules only ever pass powers of two.
    """
    if k < 2:
        raise ValueError("g_poly requires k >= 2")
    coeffs = [0] * (k + 1)
    coeffs[0] = 4 * k
    for j in range(2, k + 1):
        q = Fraction(2 * k * k + j - 1, (j - 1) * (2 * j - 1)) * binomial(k + j - 2, 2 * j - 3)
        if q.denominator != 1:
            raise ArithmeticError(f"g_{2*k}: coefficient of phi^{j} is {q}, not an integer")
        coeffs[j - 1] = int(q)
    coeffs[k] = 1
    return PhiPoly(tuple(coeffs))


def verify_g_identity(k: int) -> bool:
    """g_{2k} == psi^(k+1) - psi^(k-1), exactly."""
    return g_poly(k) == psi_series(k + 1) - psi_series(k - 1)


def compose_check(i: int, j: int, degree_bound: int | None = None) -> bool:
    """psi^i(psi^j) == psi^(i*j), compared up to degree_bound (full if None)."""
    if i < 1 or j < 1:
        raise ValueError("Adams degrees must be >= 1")
    lhs = psi_series(i).compose(psi_series(j))
    rhs = psi_series(i * j)
    if degree_bound is None:
        return lhs == rhs
    return all(lhs.coeff(d) == rhs.coeff(d) for d in range(1, degree_bound + 1))
