"""Adams-operation polynomials and the degree-(k+1) relation polynomial.

Two independent constructions of psi^i are kept side by side:

* ``psi_series`` -- the closed binomial series
      psi^i(w) = sum_{j=1..i} [C(i,j) * C(i+j-1,j) / C(2j-1,j)] * w^j,
  whose coefficients must all reduce to integers;
* ``psi_oracles`` -- s_i - 2 for i = 1, 2, ..., where s_i = t_i(w + 2)
  comes from running the Chebyshev-style recurrence in w itself:
  s_0 = 2, s_1 = w + 2, s_{i+1} = (w + 2)*s_i - s_{i-1}.  With
  t_0 = 2, t_1 = c, t_{i+1} = c*t_i - t_{i-1} one has
  t_i(z + 1/z) = z^i + z^-i, so this encodes psi^i(w) = z^i + z^-i - 2 at
  w = z + 1/z - 2.

Their equality is a standing regression test, not a one-time derivation.
The relation polynomial g_{2k} = psi^(k+1) - psi^(k-1) likewise has its own
closed series.  ``verify_oracles`` checks both identities and returns a
``Report`` whose failing checks name their witnesses.
"""

from __future__ import annotations

from math import gcd

from .intmath import IntPoly, binomial
from .report import Check, Report


class PhiPoly(IntPoly):
    """Integer polynomial in phi with zero constant term; coeffs[j] goes with
    phi^j, so coeffs[0] is always 0 (or coeffs is empty).

    All arithmetic, ``coeff`` and ``compose`` are IntPoly's;
    they return PhiPoly, and this class only checks the constant.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(coeffs)
        if self.coeff(0):
            raise ArithmeticError(f"nonzero constant term {self.coeff(0)}")

    @classmethod
    def of(cls, *coeffs: int) -> "PhiPoly":
        """Coefficients of phi, phi^2, ...: PhiPoly.of(4, 1) is 4*phi + phi^2."""
        return cls((0,) + coeffs)

    def to_pairs(self):
        """[[exponent, coefficient-as-decimal-string], ...], ascending."""
        return [[j, str(c)] for j, c in enumerate(self.coeffs) if c]

    def format(self, var: str = "phi") -> str:
        return super().format(var)


def _integral(num: int, den: int, what: str) -> int:
    """num / den (den > 0), which must be an integer; otherwise ArithmeticError
    names ``what`` and the quotient in lowest terms."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise ArithmeticError(f"{what} is {num // g}/{den // g}, not an integer")
    return q


def psi_series(i: int) -> PhiPoly:
    """psi^i from the closed binomial series; every coefficient must be integral."""
    if i < 1:
        raise ValueError("psi^i requires i >= 1")
    coeffs = []
    for j in range(1, i + 1):
        coeffs.append(_integral(binomial(i, j) * binomial(i + j - 1, j),
                                binomial(2 * j - 1, j), f"psi^{i}: coefficient of w^{j}"))
    return PhiPoly.of(*coeffs)


def psi_oracles():
    """psi^1, psi^2, ... built independently of ``psi_series``, as s_i - 2.

    Each step of s_{i+1} = (w + 2)*s_i - s_{i-1} is a shift and a linear
    combination, so the first i terms cost O(i^2) coefficient operations in
    all, with no polynomial composition.  The generator is unbounded.
    """
    two, w_plus_2 = IntPoly.of(2), IntPoly.of(2, 1)
    prev, cur = two, w_plus_2
    while True:
        # PhiPoly raises ArithmeticError unless s_i has constant term 2
        yield PhiPoly((cur - two).coeffs)
        prev, cur = cur, w_plus_2 * cur - prev


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
        coeffs[j - 1] = _integral((2 * k * k + j - 1) * binomial(k + j - 2, 2 * j - 3),
                                  (j - 1) * (2 * j - 1), f"g_{2*k}: coefficient of phi^{j}")
    coeffs[k] = 1
    return PhiPoly.of(*coeffs)


def verify_oracles(k: int) -> Report:
    """psi_series = psi_oracles for i <= 2k+1, and g_{2k} = psi^(k+1) -
    psi^(k-1) exactly.  A failure shows the first i where the series and
    the oracle differ, or g_{2k} - psi^(k+1) + psi^(k-1)."""
    psi_split = next((f"psi^{i}: series {series}, oracle {oracle}" for i, oracle
                      in zip(range(1, 2 * k + 2), psi_oracles())
                      if (series := psi_series(i)) != oracle), "")
    g_diff = g_poly(k) - psi_series(k + 1) + psi_series(k - 1)
    return Report(f"adams oracle, k={k}", (
        Check(f"psi_series = psi_oracles for i <= {2 * k + 1}", not psi_split, psi_split),
        Check(f"g_{2 * k} = psi^{k + 1} - psi^{k - 1}", not g_diff.coeffs,
              f"g_{2 * k} - psi^{k + 1} + psi^{k - 1} = {g_diff}"),
    ))
