"""Integral cohomology of BQ_{4k}, and the order identity it gives for the
truncated rings.

The table is 4-periodic above degree 0:

    H^0 = Z,  H^(4s+2) = Z_2 + Z_2,  H^(4s) = Z_{4k} (s >= 1),  H^odd = 0.

By Atiyah, K^0(S^(4M+3)/Q_{4k}) = R(Q_{4k}) / (phi^(M+1)): the sphere is
S((M+1) d_1), and lambda_{-1}(d_1) = 2 - d_1 = -phi because Q_{4k} lies in
SU(2).  The space's cohomology is that of BQ_{4k} below its top degree
4M+3, where the odd groups vanish, and the top class Z receives no nonzero
differential from torsion.  So the Atiyah-Hirzebruch spectral sequence
collapses, and the reduced K^0 has order prod |H^(2j)| over
2 <= 2j <= 4M+2.  The truncation of index N, R/phi^(N+2) R, is the case
M = N+1, so its torsion order must equal the product through degree 4N+6.
``truncation.consistency_report`` checks that identity, which tests the
lattice index D, and the order of phi.
"""

from __future__ import annotations

from math import prod

from .report import Record


class CohGroup(Record):
    """Finitely generated abelian group as a tuple of cyclic orders (0 = Z)."""

    __slots__ = ("factors",)

    def __post_init__(self):
        # stored first: a generator argument would be used up by the check
        object.__setattr__(self, "factors", tuple(self.factors))
        if any(f < 0 for f in self.factors):
            raise ValueError("cyclic factors must be >= 0")

    def order(self):
        """Group order, or None when a factor is infinite cyclic."""
        return None if 0 in self.factors else prod(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join("Z" if f == 0 else f"Z_{f}" for f in self.factors)


def h_group(p: int, k: int) -> CohGroup:
    """H^p(BQ_{4k}; Z) from the table."""
    if p < 0:
        raise ValueError("cohomological degree must be >= 0")
    if k < 2:
        raise ValueError("k must be >= 2")
    if p == 0:
        return CohGroup((0,))
    if p % 2 == 1:
        return CohGroup(())
    if p % 4 == 2:
        return CohGroup((2, 2))
    return CohGroup((4 * k,))


def predicted_reduced_order(N: int, k: int) -> int:
    """Product of |H^(2j)| over even degrees 2 <= 2j <= 4N+2, the order of
    the reduced K^0(S^(4N+3)/Q_{4k}).

    Closed form 4^(N+1) * (4k)^N; computed here from the table itself.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return prod(h_group(p, k).order() for p in range(2, 4 * N + 3, 2))
