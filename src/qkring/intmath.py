"""Exact integer arithmetic substrate.

Dense integer polynomials with composition, which the Adams oracle's
recurrence runs on, and cyclotomic integers for a power-of-two root of
unity.  Everything is pure and exact; no floats anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .freemodule import Element, Ring
from .report import Record


def _trim(coeffs) -> tuple:
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class IntPoly(Record):
    """Dense integer polynomial; coeffs[i] is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @classmethod
    def of(cls, *coeffs: int) -> "IntPoly":
        return cls(coeffs)

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def compose(self, other: "IntPoly") -> "IntPoly":
        """self(other(x)), by Horner's scheme."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * other + IntPoly.of(c)
        return acc


@lru_cache(maxsize=None)
def _ring(k: int) -> Ring:
    if k < 1:
        raise ValueError("k must be >= 1")
    labels = ["1"] + ["z" if j == 1 else f"z^{j}" for j in range(1, k)]
    # zeta^i * zeta^j = zeta^(i + j), and zeta^k = -1 is the one and only rule,
    # so row i is a slice of the powers, and the rows share entries
    powers = [((e, 1),) for e in range(k)] + [((e, -1),) for e in range(k)]
    return Ring(f"Z[zeta_{2 * k}]", k, labels, lambda: [powers[i:i + k] for i in range(k)])


class CyclotomicInt(Element):
    """Element of Z[zeta] with zeta a primitive 2k-th root of unity.

    Stored as k integer coefficients of 1, zeta, ..., zeta^(k-1); since 2k is
    a power of two in every use here, zeta^k = -1 is the one and only
    reduction rule and the representation is canonical.  The table is built
    from that rule alone, never from R(Q_{4k}), so the character oracle stays
    independent of the ring it checks.
    """

    __slots__ = ()

    def __init__(self, k: int, coeffs):
        super().__init__(_ring(k), coeffs)

    # Bound here, not only inherited: bench/shim.py counts calls to these
    # names by looking them up in this class's own __dict__.
    __add__, __mul__, __rmul__ = Element.__add__, Element.__mul__, Element.__mul__

    @property
    def k(self) -> int:
        return self.ring.param

    @classmethod
    def from_int(cls, k: int, value: int) -> "CyclotomicInt":
        return cls(k, (value,) + (0,) * (k - 1))

    @classmethod
    def root_power(cls, k: int, e: int) -> "CyclotomicInt":
        """zeta**e, reduced by zeta^(k+j) = -zeta^j."""
        e %= 2 * k
        coeffs = [0] * k
        if e < k:
            coeffs[e] = 1
        else:
            coeffs[e - k] = -1
        return cls(k, tuple(coeffs))

    def conj(self) -> "CyclotomicInt":
        """Complex conjugation zeta -> zeta^-1 = -zeta^(k-1)."""
        c = self.coeffs
        return self._new((c[0],) + tuple(-c[self.k - j] for j in range(1, self.k)))
