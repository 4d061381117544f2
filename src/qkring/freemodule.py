"""Free Z-modules of finite rank with a bilinear product.

R(Q_{4k}), the presented K-ring, the lens ring Z[eta]/(eta^(2k) - 1) and the
cyclotomic integers Z[zeta] are each a free Z-module multiplied by a table
of structure constants, which a ``Ring`` builds when it is first read.  The
element classes of R, the lens ring and Z[zeta] subclass ``Element``, which
does the module operations and the product.  The K-ring has no element
class: its normal forms are formal polynomials, and its table is what the
embedding into R is certified on.

Formal polynomials in the generators v1, v2 and phi of the presented ring
are dictionaries keyed by exponent triples (a, b, c) for v1^a * v2^b * phi^c,
holding only nonzero coefficients.  kring rewrites them, kring and lens
evaluate them, and the Adams polynomials of adams are such dictionaries in
phi alone; ``fp_sum``, ``fp_mul`` and ``fp_format`` serve all three.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

from .report import Record


def format_terms(terms) -> str:
    """Join (coefficient, symbol) pairs into '3*x^2 - y + 4' style text.

    A pair with an empty symbol is a plain constant.  Zero coefficients are
    skipped; an empty result renders as '0'.
    """
    out = []
    for coeff, sym in terms:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if not sym:
            body = str(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{mag}*{sym}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out) if out else "0"


Mono = tuple  # (a, b, c) exponents of v1, v2, phi


def fp_add_term(fp: dict, mono: Mono, coeff: int):
    new = fp.get(mono, 0) + coeff
    if new:
        fp[mono] = new
    else:
        fp.pop(mono, None)


def fp_sum(*fps) -> dict:
    out: dict = {}
    for fp in fps:
        for mono, c in fp.items():
            fp_add_term(out, mono, c)
    return out


def fp_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), x in f.items():
        for (a2, b2, c2), y in g.items():
            fp_add_term(out, (a1 + a2, b1 + b2, c1 + c2), x * y)
    return out


def mono_name(mono: Mono) -> str:
    a, b, c = mono
    parts = []
    if a:
        parts.append("v1" if a == 1 else f"v1^{a}")
    if b:
        parts.append("v2" if b == 1 else f"v2^{b}")
    if c:
        parts.append("phi" if c == 1 else f"phi^{c}")
    return "*".join(parts) if parts else "1"


def fp_format(fp: dict) -> str:
    # display order: phi-degree, then v1, then v2, descending
    monos = sorted(fp, key=lambda m: (m[2], m[0], m[1]), reverse=True)
    return format_terms((fp[m], "" if m == (0, 0, 0) else mono_name(m)) for m in monos)


class Ring(Record):
    """Basis labels and lazily built structure constants of one ring.

    Descriptors are equal when their names are ("R(Q_16)", parameter
    included).  ``param`` is what the element classes expose; basis element
    0 is the unit.  ``build()`` returns ``table``: ``table[i][j]`` holds the
    pairs ``(t, c)`` with b_i * b_j = sum of c * b_t; it is cached in the
    instance ``__dict__``.
    """

    __slots__ = ("name", "param", "labels", "build", "__dict__")
    _compared = ("name",)

    @cached_property
    def table(self):
        return self.build()


def commutative_table(rank: int, product):
    """Sparse table of a commutative product; ``product(i, j)`` gives the
    entry of b_i * b_j, its pairs (t, c) in increasing t with c nonzero, and
    is asked only for i <= j.  Entries (j, i) and (i, j) are one object."""
    table = [[()] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            table[i][j] = table[j][i] = product(i, j)
    return table


class Element(Record):
    """Immutable integer vector over the basis of ``ring``."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(ring.labels):
            raise ValueError(f"expected {len(ring.labels)} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def _new(self, coeffs):
        """An element of the same class and ring; skips the subclass constructor."""
        out = object.__new__(type(self))
        object.__setattr__(out, "ring", self.ring)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def _check(self, other: "Element"):
        # operands nearly always share one cached descriptor; the identity
        # test skips the name comparison
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"mismatched parameters: {self.ring.name} vs {other.ring.name}")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self._new(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self._new(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Element":
        return self._new(-a for a in self.coeffs)

    def __mul__(self, other):
        """Integer scaling, or the ring product contracted with the table.

        The right factor's nonzero (index, coefficient) pairs are collected
        once, and each nonzero left coefficient reads only those entries of
        its table row, so sparse factors (a character value has at most two
        nonzero Z[zeta] terms, the lens ring's w three) cost the product of
        their supports, not whole rows.
        """
        if isinstance(other, int):
            return self._new(a * other for a in self.coeffs)
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        left, right, table = self.coeffs, other.coeffs, self.ring.table
        rank = len(left)
        support = [(j, right[j]) for j in compress(range(rank), right)]
        out = [0] * rank
        for i in compress(range(rank), left):
            x, row = left[i], table[i]
            for j, y in support:
                xy = x * y
                for t, c in row[j]:
                    out[t] += xy * c
        return self._new(out)

    __rmul__ = __mul__  # reached only with an integer on the left

    def __pow__(self, e: int) -> "Element":
        if e < 0:
            raise ValueError(f"negative powers are not defined in {self.ring.name}")
        acc = self._new((1,) + (0,) * (len(self.coeffs) - 1))
        for _ in range(e):
            acc = acc * self
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return format_terms((c, label if i else "")
                            for i, (c, label) in enumerate(zip(self.coeffs, self.ring.labels)))
