"""Adams-operation polynomials and the degree-(k+1) relation polynomial.

Two independent constructions of psi^i are kept side by side:

* ``psi_series`` -- the series
      psi^i(w) = sum_{j=1..i} [C(i,j) * C(i+j-1,j) / C(2j-1,j)] * w^j,
  walked by its term ratio: from c_0 = 2, the constant term of
  psi^i(w) + 2 = t_i(w + 2), each coefficient is the one before times
  (i-j+1)(i+j-1) / (2j(2j-1)), and every quotient must be an integer;
* ``psi_oracles`` -- s_i - 2 for i = 1, 2, ..., where s_i = t_i(w + 2)
  comes from running the Chebyshev-style recurrence in w itself:
  s_0 = 2, s_1 = w + 2, s_{i+1} = (w + 2)*s_i - s_{i-1}.  With
  t_0 = 2, t_1 = c, t_{i+1} = c*t_i - t_{i-1} one has
  t_i(z + 1/z) = z^i + z^-i, so this encodes psi^i(w) = z^i + z^-i - 2 at
  w = z + 1/z - 2.

Their equality is a standing regression test, not a one-time derivation.
The series recurs in j within one psi^i and the oracle recurs in i, so
neither is built from the other and each checks the other.
The relation polynomial g_{2k} = psi^(k+1) - psi^(k-1) likewise has its own
closed series.  ``verify_oracles`` checks both identities and returns a
``Report`` whose failing checks name their witnesses.

Each polynomial is returned as a formal polynomial in phi, the dictionary
{(0, 0, j): c} over its nonzero coefficients c of phi^j, which kring and
lens evaluate as it is and ``freemodule`` sums and formats; ``to_pairs``
gives its JSON form.  Only the oracle's recurrence runs on dense
``IntPoly``s.
"""

from __future__ import annotations

from math import comb, gcd

from .freemodule import fp_format, fp_sum
from .intmath import IntPoly
from .report import Check, Report


def _in_phi(coeffs) -> dict:
    """The formal polynomial sum of c * phi^j over coeffs = (c_1, c_2, ...),
    holding only the nonzero c."""
    return {(0, 0, j): c for j, c in enumerate(coeffs, 1) if c}


def to_pairs(poly: dict):
    """[[exponent, coefficient-as-decimal-string], ...] of a polynomial in
    phi, ascending."""
    return [[mono[2], str(c)] for mono, c in sorted(poly.items())]


def _integral(num: int, den: int, what: str) -> int:
    """num / den (den > 0), which must be an integer; otherwise ArithmeticError
    names ``what`` and the quotient in lowest terms."""
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise ArithmeticError(f"{what} is {num // g}/{den // g}, not an integer")
    return q


def psi_series(i: int) -> dict:
    """psi^i from the series, walked by its term ratio.

    c_0 = 2 and c_j = c_{j-1} * (i-j+1)(i+j-1) / (2j(2j-1)).  Each step's
    quotient is the coefficient of w^j itself, so ``_integral`` names that
    coefficient when it is not an integer, as the closed form would.
    """
    if i < 1:
        raise ValueError("psi^i requires i >= 1")
    coeffs, c = [], 2
    for j in range(1, i + 1):
        c = _integral(c * (i - j + 1) * (i + j - 1), 2 * j * (2 * j - 1),
                      f"psi^{i}: coefficient of w^{j}")
        coeffs.append(c)
    return _in_phi(coeffs)


def psi_oracles():
    """psi^1, psi^2, ... built independently of ``psi_series``, as s_i - 2.

    The s_i are dense ``IntPoly``s.  Each step of s_{i+1} = (w + 2)*s_i -
    s_{i-1} is a shift and a linear combination, so the first i terms cost
    O(i^2) coefficient operations in all, with no polynomial composition.
    An s_i whose constant term is not 2 raises ArithmeticError with the
    constant term of s_i - 2.  The generator is unbounded.
    """
    w_plus_2 = IntPoly.of(2, 1)
    prev, cur = IntPoly.of(2), w_plus_2
    while True:
        if cur.coeff(0) != 2:
            raise ArithmeticError(f"nonzero constant term {cur.coeff(0) - 2}")
        yield _in_phi(cur.coeffs[1:])
        prev, cur = cur, w_plus_2 * cur - prev


def g_poly(k: int) -> dict:
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
        coeffs[j - 1] = _integral((2 * k * k + j - 1) * comb(k + j - 2, 2 * j - 3),
                                  (j - 1) * (2 * j - 1), f"g_{2*k}: coefficient of phi^{j}")
    coeffs[k] = 1
    return _in_phi(coeffs)


def verify_oracles(k: int) -> Report:
    """psi_series = psi_oracles for i <= 2k+1, and g_{2k} = psi^(k+1) -
    psi^(k-1) exactly.  A failure shows the first i where the series and
    the oracle differ, or g_{2k} - psi^(k+1) + psi^(k-1)."""
    psi_split = next((f"psi^{i}: series {fp_format(series)}, oracle {fp_format(oracle)}"
                      for i, oracle in zip(range(1, 2 * k + 2), psi_oracles())
                      if (series := psi_series(i)) != oracle), "")
    g_diff = fp_sum(g_poly(k), {m: -c for m, c in psi_series(k + 1).items()},
                    psi_series(k - 1))
    return Report(f"adams oracle, k={k}", (
        Check(f"psi_series = psi_oracles for i <= {2 * k + 1}", not psi_split, psi_split),
        Check(f"g_{2 * k} = psi^{k + 1} - psi^{k - 1}", not g_diff,
              f"g_{2 * k} - psi^{k + 1} + psi^{k - 1} = {fp_format(g_diff)}"),
    ))
