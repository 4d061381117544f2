"""The lens-space target ring Z[eta]/(eta^(2k) - 1) and the restriction map.

The cyclic subgroup generated by x in Q_{4k} induces a ring homomorphism
from R(Q_{4k}) onto this ring: 1 and eta1 go to 1, eta2 and eta3 go to
eta^k, and d_i goes to eta^i + eta^(-i).  In particular phi = d_1 - 2 maps
exactly onto w = eta + eta^(-1) - 2, and every presentation relation dies in
the image, as does g_{2k}(w).  Here the Adams identity
psi^i(w) = eta^i + eta^(-i) - 2 holds for every i >= 1, not only odd i.
Both certifiers return a ``Report`` whose failing checks name their witnesses.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .adams import psi_series
from .freemodule import Element, Ring
from .kring import Substitution, relations_for
from .report import Check, Report
from .repring import ETA1, ETA2, ETA3, GroupParams, RepElement, basis_elements, multiply


class LensElement(Element):
    """Element of Z[eta]/(eta^(2k) - 1), stored as 2k coefficients."""

    __slots__ = ()

    def __init__(self, k: int, coeffs):
        super().__init__(_ring(k), coeffs)

    @property
    def k(self) -> int:
        return self.ring.param


@lru_cache(maxsize=None)
def _ring(k: int) -> Ring:
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 2 * k
    labels = ["1", "eta"] + [f"eta^{e}" for e in range(2, m)]
    # eta^i * eta^j = eta^((i + j) mod 2k): eta^(2k) = 1 is the one and only
    # relation, so row i is the powers rotated by i, and the rows share entries
    powers = [((e, 1),) for e in range(m)]
    return Ring(f"Z[eta]/(eta^{m} - 1)", k, labels,
                lambda: [powers[i:] + powers[:i] for i in range(m)])


def lens_zero(k: int) -> LensElement:
    return LensElement(k, (0,) * (2 * k))


def lens_one(k: int) -> LensElement:
    return eta_power(k, 0)


def eta_power(k: int, e: int) -> LensElement:
    coeffs = [0] * (2 * k)
    coeffs[e % (2 * k)] = 1
    return LensElement(k, tuple(coeffs))


def w_element(k: int) -> LensElement:
    """w = eta + eta^(-1) - 2, the image of phi."""
    return eta_power(k, 1) + eta_power(k, -1) - 2 * lens_one(k)


def lens_multiply(a: LensElement, b: LensElement) -> LensElement:
    """The product a * b, which contracts the table of eta^i * eta^j."""
    return a * b


def restrict(r: RepElement) -> LensElement:
    """Restriction along the cyclic subgroup generated by x."""
    k = r.params.k
    out = [0] * (2 * k)
    out[0] += r.coeffs[0] + r.coeffs[ETA1]
    out[k] += r.coeffs[ETA2] + r.coeffs[ETA3]
    for i in range(1, k):
        c = r.coeffs[3 + i]
        if c:
            out[i] += c
            out[2 * k - i] += c
    return LensElement(k, tuple(out))


def _substitution(k: int) -> Substitution:
    """v1 -> 0, v2 -> eta^k - 1, phi -> w, the restricted generators; not
    cached, as a run calls it once and the result builds each w^j once."""
    one = lens_one(k)
    return Substitution(one, lens_zero(k), eta_power(k, k) - one, w_element(k))


def verify_restriction_hom(n: int, seed: int = 0) -> Report:
    """restrict(a*b) = restrict(a)*restrict(b) on all basis pairs plus 25
    pairs of random virtual elements drawn with ``seed``; a failure names the
    first failing pair and shows both sides."""
    params = GroupParams(n)

    def pairs():  # (trial number or None for a basis pair, a, b)
        basis = basis_elements(params)
        for a in basis:
            for b in basis:
                yield None, a, b
        rng = random.Random(seed)
        size = params.basis_size
        for t in range(25):
            a = RepElement(params, tuple(rng.randint(-9, 9) for _ in range(size)))
            b = RepElement(params, tuple(rng.randint(-9, 9) for _ in range(size)))
            yield t, a, b

    detail = ""
    for t, a, b in pairs():
        image, product = restrict(multiply(a, b)), lens_multiply(restrict(a), restrict(b))
        if image != product:
            # a basis element prints as its label
            name = f"{a}*{b}" if t is None else f"random trial {t} (a = {a}, b = {b})"
            detail = (f"{name}: restrict(a*b) = {image}, "
                      f"restrict(a)*restrict(b) = {product}")
            break
    return Report(f"restriction homomorphism, n={n}", (
        Check("restrict is a ring homomorphism", not detail, detail),))


def verify_relations_vanish(n: int) -> Report:
    """Images of the presentation relations and of g_{2k} must vanish, and
    psi^i(w) must equal eta^i + eta^(-i) - 2 for 1 <= i <= 2k."""
    k = GroupParams(n).k
    rset = relations_for(n)
    sub = _substitution(k)
    checks = [Check.vanishes(rel.label, sub.of_formal(rel.difference()))
              for rel in rset.relations + (rset.relation3,)]
    psi = [None] + [sub.of_phipoly(psi_series(i)) for i in range(1, 2 * k + 1)]
    checks.append(Check.vanishes(f"g_{2 * k}(w) = 0", psi[k + 1] - psi[k - 1]))
    two = 2 * lens_one(k)
    for i in range(1, 2 * k + 1):
        expected = eta_power(k, i) + eta_power(k, -i) - two
        checks.append(Check.vanishes(f"psi^{i}(w) = eta^{i} + eta^-{i} - 2",
                                     psi[i] - expected))
    return Report(f"lens-ring restriction, n={n}", tuple(checks))
