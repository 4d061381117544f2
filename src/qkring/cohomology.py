"""Integral cohomology of BQ_{4k} and order bookkeeping against K-theory.

The table is 4-periodic above degree 0:

    H^0 = Z,  H^(4s+2) = Z_2 + Z_2,  H^(4s) = Z_{4k} (s >= 1),  H^odd = 0.

Because the odd groups vanish, the relevant spectral sequence degenerates
and only group orders matter, so this module never builds it: it just
multiplies table entries and compares them with the truncated-ring
computations.  The comparisons are informational; the one hard expectation
is the order of phi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .repring import GroupParams, phi_element
from .truncation import order_of, pow2_str, torsion_order, truncated_quotient


@dataclass(frozen=True)
class CohGroup:
    """Finitely generated abelian group as a tuple of cyclic orders (0 = Z)."""

    factors: tuple

    def __post_init__(self):
        if any(f < 0 for f in self.factors):
            raise ValueError("cyclic factors must be >= 0")
        object.__setattr__(self, "factors", tuple(self.factors))

    def order(self):
        """Group order, or None when a factor is infinite cyclic."""
        if any(f == 0 for f in self.factors):
            return None
        out = 1
        for f in self.factors:
            out *= f
        return out

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
    """Product of |H^(2j)| over even degrees 2 <= 2j <= 4N+2.

    Closed form 4^(N+1) * (4k)^N; computed here from the table itself.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    out = 1
    for p in range(2, 4 * N + 3, 2):
        out *= h_group(p, k).order()
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    N: int
    phi_order: int
    phi_expected: int
    torsion: int
    predicted: int  # cohomology product through degree 4N+2
    predicted_next: int  # same product one truncation level up

    @property
    def phi_match(self) -> bool:
        return self.phi_order == self.phi_expected

    @property
    def torsion_matches_predicted(self) -> bool:
        return self.torsion == self.predicted

    @property
    def torsion_matches_next(self) -> bool:
        return self.torsion == self.predicted_next

    def lines(self):
        out = [
            f"order(phi): computed {pow2_str(self.phi_order)}, "
            f"expected 2^(n+2N) = {pow2_str(self.phi_expected)}, "
            f"match: {'yes' if self.phi_match else 'NO'}",
            f"reduced torsion of the truncation: {self.torsion}",
            f"cohomology product through degree {4 * self.N + 2}: {self.predicted}"
            f" ({'match' if self.torsion_matches_predicted else 'mismatch'}, informational)",
            f"cohomology product one level up: {self.predicted_next}"
            f" ({'match' if self.torsion_matches_next else 'mismatch'}, informational)",
        ]
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "phi_order": pow2_str(self.phi_order),
            "phi_expected": pow2_str(self.phi_expected),
            "phi_match": self.phi_match,
            "torsion": str(self.torsion),
            "predicted_reduced": str(self.predicted),
            "torsion_matches_predicted": self.torsion_matches_predicted,
            "predicted_reduced_next": str(self.predicted_next),
            "torsion_matches_next": self.torsion_matches_next,
        }


def consistency_report(n: int, N: int) -> ConsistencyReport:
    """Compare truncated-ring sizes against the cohomology bookkeeping."""
    params = GroupParams(n)
    q = truncated_quotient(n, N)
    return ConsistencyReport(
        n=n,
        N=N,
        phi_order=order_of(phi_element(params), q),
        phi_expected=2 ** (n + 2 * N),
        torsion=torsion_order(q),
        predicted=predicted_reduced_order(N, params.k),
        predicted_next=predicted_reduced_order(N + 1, params.k),
    )
