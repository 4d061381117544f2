"""The presented ring Z[v1, v2, phi] modulo the minimal relation set.

Generators correspond to reduced bundles v1 = eta1 - 1, v2 = eta2 - 1,
phi = d_1 - 2.  The presentation relations are

    (1) v1^2   = -2*v1
    (2) v2^2   = -2*v2
    (4) v1*phi = -2*v1
    (5) v2*phi = psi^(k-1)(phi) - phi - 2*v2
    (6) v1*v2  = phi^2 + 4*phi - 2*v1 - 2*v2        (n = 3)
        v1*v2  = psi^k(phi) - 2*v2                  (n >= 4)

together with the derived reduction g_{2k}(phi) = 0, kept only as the
rewrite rule for phi^(k+1) (it is provably redundant as a presentation
relation: see ``verify_relation3_redundant``).

Formal polynomials in the generators are dictionaries keyed by exponent
triples (a, b, c) for v1^a * v2^b * phi^c.  Oriented left-to-right, every
rule strictly decreases (number of v-factors, total degree) in
lexicographic order, which is what makes ``reduce`` terminate.  (Total
degree alone does not work: the right side of relation 5 contains
phi^(k-1).)  Normal forms live on the basis {1, v1, v2, phi, ..., phi^k};
their product contracts a table of reduced basis products, built on the
first product for each n.

Correctness is certified against R(Q_{4k}): the basis-change matrix of the
embedding is unimodular and normal-form multiplication commutes with the
embedding on all basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod
from operator import mul

from .adams import PhiPoly, g_poly, psi_series
from .freemodule import Element, Ring, commutative_table, format_terms
from .intmatrix import determinant
from .report import Check, Report
from .repring import GroupParams, RepElement, canonical_d, eta1, eta2, one, phi_element

Mono = tuple  # (a, b, c) exponents of v1, v2, phi

PRESENTATION_LABELS = ("relation1", "relation2", "relation4", "relation5", "relation6")
PHI_TOP = "phi_top"


# ---------------------------------------------------------------------------
# formal polynomials
# ---------------------------------------------------------------------------

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


def fp_neg(fp: dict) -> dict:
    return {m: -c for m, c in fp.items()}


def fp_sub(f: dict, g: dict) -> dict:
    return fp_sum(f, fp_neg(g))


def fp_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), x in f.items():
        for (a2, b2, c2), y in g.items():
            fp_add_term(out, (a1 + a2, b1 + b2, c1 + c2), x * y)
    return out


def fp_from_phipoly(p: PhiPoly) -> dict:
    return {(0, 0, j): c for j, c in enumerate(p.coeffs) if c}


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


# ---------------------------------------------------------------------------
# relation set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    label: str
    lhs: tuple  # ((mono, coeff), ...)
    rhs: tuple

    def lhs_fp(self) -> dict:
        return dict(self.lhs)

    def rhs_fp(self) -> dict:
        return dict(self.rhs)

    def difference(self) -> dict:
        return fp_sub(self.lhs_fp(), self.rhs_fp())

    def __str__(self) -> str:
        return f"{fp_format(self.lhs_fp())} = {fp_format(self.rhs_fp())}"


@dataclass(frozen=True)
class Rule:
    label: str
    pattern: Mono
    rhs: tuple  # ((mono, coeff), ...)

    def applies_to(self, mono: Mono) -> bool:
        return all(m >= p for m, p in zip(mono, self.pattern))


@dataclass(frozen=True)
class RelationSet:
    n: int
    k: int
    relations: tuple  # presentation Relations 1, 2, 4, 5, 6
    relation3: Relation  # derived: g_{2k}(phi) = 0
    rules: tuple  # oriented rewrite rules, priority order

    def relation(self, label: str) -> Relation:
        for r in self.relations:
            if r.label == label:
                return r
        raise KeyError(label)

    def rule_labels(self):
        return tuple(r.label for r in self.rules)


def _freeze(fp: dict) -> tuple:
    return tuple(sorted(fp.items()))


@lru_cache(maxsize=None)
def relations_for(n: int) -> RelationSet:
    """Build the oriented relation set for Q_{2^n}, psi-polynomials expanded."""
    params = GroupParams(n)
    k = params.k

    v1, v2, phi = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    rhs1 = {v1: -2}
    rhs2 = {v2: -2}
    rhs4 = {v1: -2}
    rhs5 = fp_sum(fp_from_phipoly(psi_series(k - 1)), {phi: -1, v2: -2})
    if n == 3:
        rhs6 = {(0, 0, 2): 1, phi: 4, v1: -2, v2: -2}
    else:
        rhs6 = fp_sum(fp_from_phipoly(psi_series(k)), {v2: -2})

    g = g_poly(k)
    relations = (
        Relation("relation1", _freeze({(2, 0, 0): 1}), _freeze(rhs1)),
        Relation("relation2", _freeze({(0, 2, 0): 1}), _freeze(rhs2)),
        Relation("relation4", _freeze({(1, 0, 1): 1}), _freeze(rhs4)),
        Relation("relation5", _freeze({(0, 1, 1): 1}), _freeze(rhs5)),
        Relation("relation6", _freeze({(1, 1, 0): 1}), _freeze(rhs6)),
    )
    relation3 = Relation("relation3", _freeze(fp_from_phipoly(g)), ())
    # phi^(k+1) -> phi^(k+1) - g, the reduction that keeps phi-powers <= k
    phi_top_rhs = {(0, 0, j): -g.coeff(j) for j in range(1, k + 1) if g.coeff(j)}
    rules = (
        Rule("relation4", (1, 0, 1), _freeze(rhs4)),
        Rule("relation1", (2, 0, 0), _freeze(rhs1)),
        Rule("relation5", (0, 1, 1), _freeze(rhs5)),
        Rule("relation2", (0, 2, 0), _freeze(rhs2)),
        Rule("relation6", (1, 1, 0), _freeze(rhs6)),
        Rule(PHI_TOP, (0, 0, k + 1), _freeze(phi_top_rhs)),
    )
    return RelationSet(n, k, relations, relation3, rules)


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def _measure(mono: Mono):
    a, b, c = mono
    return (a + b, a + b + c, mono)


def apply_rule_once(mono: Mono, rule: Rule) -> dict:
    """Replace one occurrence of the rule's pattern inside the monomial."""
    if not rule.applies_to(mono):
        raise ValueError(f"{rule.label} does not apply to {mono_name(mono)}")
    rem = tuple(m - p for m, p in zip(mono, rule.pattern))
    out: dict = {}
    for rmono, c in rule.rhs:
        fp_add_term(out, tuple(r + s for r, s in zip(rem, rmono)), c)
    return out


def rewrite(expr: dict, rset: RelationSet, labels=None) -> dict:
    """Apply oriented rules until none of the allowed ones fires.

    With the full rule set the result is supported on the normal-form basis;
    with a restricted label set it may retain stuck monomials, which is
    exactly what the redundancy and minimality checks look at.
    """
    rules = rset.rules if labels is None else tuple(
        r for r in rset.rules if r.label in labels)
    work = {m: c for m, c in expr.items() if c}
    while True:
        pick = None
        for mono in sorted(work, key=_measure, reverse=True):
            for rule in rules:
                if rule.applies_to(mono):
                    pick = (mono, rule)
                    break
            if pick:
                break
        if pick is None:
            return work
        mono, rule = pick
        coeff = work.pop(mono)
        for tgt, c in apply_rule_once(mono, rule).items():
            fp_add_term(work, tgt, coeff * c)


# ---------------------------------------------------------------------------
# normal-form elements
# ---------------------------------------------------------------------------

def _basis_monos(k: int):
    """Monomials of the normal-form basis 1, v1, v2, phi, ..., phi^k, in order."""
    return [(0, 0, 0), (1, 0, 0), (0, 1, 0)] + [(0, 0, j) for j in range(1, k + 1)]


class KElement(Element):
    """Normal form over the basis {1, v1, v2, phi, ..., phi^k}."""

    __slots__ = ()

    def __init__(self, n: int, c0: int, a1: int, a2: int, phi):
        super().__init__(_ring(n), (c0, a1, a2) + tuple(phi))

    @property
    def n(self) -> int:
        return self.ring.param

    @property
    def c0(self) -> int:
        return self.coeffs[0]

    @property
    def a1(self) -> int:
        return self.coeffs[1]

    @property
    def a2(self) -> int:
        return self.coeffs[2]

    @property
    def phi(self) -> tuple:
        """Coefficients of phi^1, ..., phi^k."""
        return self.coeffs[3:]

    def to_fp(self) -> dict:
        return {mono: c for mono, c in zip(_basis_monos(len(self.phi)), self.coeffs) if c}

    def to_json_dict(self) -> dict:
        return {"c0": str(self.c0), "v1": str(self.a1), "v2": str(self.a2),
                "phi": [str(c) for c in self.phi]}

    @classmethod
    def from_json_dict(cls, n: int, data: dict) -> "KElement":
        return cls(n, int(data["c0"]), int(data["v1"]), int(data["v2"]),
                   tuple(int(c) for c in data["phi"]))

    def __str__(self) -> str:
        return fp_format(self.to_fp())


@lru_cache(maxsize=None)
def _ring(n: int) -> Ring:
    order = GroupParams(n).group_order
    return Ring(f"K(BQ_{order})", n, nf_basis_labels(n), partial(_table, n))


def _table(n: int):
    """Structure constants: each product of two basis monomials, reduced.
    Pairs with the same product monomial, such as phi * phi^3 and
    phi^2 * phi^2, share one reduction."""
    monos = _basis_monos(GroupParams(n).k)
    reduced = lru_cache(maxsize=None)(lambda mono: reduce({mono: 1}, n).coeffs)
    return commutative_table(len(monos), lambda i, j: reduced(
        tuple(x + y for x, y in zip(monos[i], monos[j]))))


def _k_basis(n: int, idx: int) -> KElement:
    coeffs = [0] * GroupParams(n).basis_size
    coeffs[idx] = 1
    return KElement(n, *coeffs[:3], coeffs[3:])


def k_zero(n: int) -> KElement:
    return KElement(n, 0, 0, 0, (0,) * GroupParams(n).k)


def k_one(n: int) -> KElement:
    return _k_basis(n, 0)


def k_v1(n: int) -> KElement:
    return _k_basis(n, 1)


def k_v2(n: int) -> KElement:
    return _k_basis(n, 2)


def k_phi_power(n: int, j: int) -> KElement:
    k = GroupParams(n).k
    if not 1 <= j <= k:
        raise ValueError(f"phi^{j} is not a basis element for k={k}")
    return _k_basis(n, 2 + j)


def nf_basis(n: int):
    return [_k_basis(n, i) for i in range(GroupParams(n).basis_size)]


def nf_basis_labels(n: int):
    k = GroupParams(n).k
    return ["1", "v1", "v2", "phi"] + [f"phi^{j}" for j in range(2, k + 1)]


def reduce(expr: dict, n: int) -> KElement:
    """Full normal form of a formal polynomial in v1, v2, phi."""
    rset = relations_for(n)
    index = {mono: i for i, mono in enumerate(_basis_monos(rset.k))}
    coeffs = [0] * len(index)
    for mono, c in rewrite(expr, rset).items():
        if mono not in index:
            raise ArithmeticError(f"stuck monomial {mono_name(mono)} survived reduction")
        coeffs[index[mono]] = c
    return KElement(n, *coeffs[:3], coeffs[3:])


def multiply_nf(a: KElement, b: KElement) -> KElement:
    """The product a * b, which contracts the table of reduced basis products."""
    return a * b


# ---------------------------------------------------------------------------
# substitution of images; the embedding into R(Q_{4k})
# ---------------------------------------------------------------------------

class Substitution:
    """Evaluation of formal polynomials, reduced or not, at images of v1, v2
    and phi in some ring, with the powers of each image cached.  ``unit`` is
    that ring's 1, the zeroth power of every image."""

    def __init__(self, unit, v1, v2, phi):
        self._pows = tuple([unit, image] for image in (v1, v2, phi))

    def _power(self, var: int, e: int):
        cache = self._pows[var]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    def of_formal(self, fp: dict):
        unit = self._pows[0][0]
        acc = 0 * unit
        for mono, coeff in fp.items():
            # a product with the unit costs as much as any other, so zeroth
            # powers are left out of the term
            factors = [self._power(var, e) for var, e in enumerate(mono) if e] or [unit]
            acc = acc + coeff * prod(factors[1:], start=factors[0])
        return acc

    def of_phipoly(self, p: PhiPoly):
        return self.of_formal(fp_from_phipoly(p))


@lru_cache(maxsize=None)
def _embedding(n: int) -> Substitution:
    """v1 -> eta1 - 1, v2 -> eta2 - 1, phi -> d_1 - 2 in R(Q_{4k})."""
    params = GroupParams(n)
    unit = one(params)
    return Substitution(unit, eta1(params) - unit, eta2(params) - unit, phi_element(params))


@lru_cache(maxsize=None)
def _basis_columns(n: int) -> tuple:
    """Columns of the basis-change matrix, whose rows are the images of
    1, v1, v2, phi, ..., phi^k."""
    emb = _embedding(n)
    rows = (emb.of_formal({mono: 1}).coeffs for mono in _basis_monos(GroupParams(n).k))
    return tuple(zip(*rows))


def embed_to_R(elem: KElement) -> RepElement:
    """Image of a normal-form element: its coefficients times the basis-change matrix."""
    return RepElement(GroupParams(elem.n), (sum(map(mul, elem.coeffs, column))
                                            for column in _basis_columns(elem.n)))


def basis_change_matrix(n: int):
    """Rows: embeddings of 1, v1, v2, phi, ..., phi^k in the irreducible basis.

    Returns (matrix, unimodular flag); |det| = 1 proves that the presented
    ring is additively isomorphic to R(Q_{4k}).
    """
    rows = [list(row) for row in zip(*_basis_columns(n))]
    return rows, abs(determinant(rows)) == 1


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def verify_relations_in_R(n: int) -> Report:
    """Each relation, moved to LHS - RHS, must embed to exactly 0 in R(Q_{4k}).

    Also checked: the derived relation g_{2k}(phi) = 0, the identities
    d_i - 2 = psi^i(phi) for every odd i <= k-1, and (n >= 4)
    d_k - d_0 = psi^k(phi).
    """
    params = GroupParams(n)
    emb = _embedding(n)
    rset = relations_for(n)
    checks = [Check.vanishes(rel.label, emb.of_formal(rel.difference()))
              for rel in rset.relations + (rset.relation3,)]
    two = 2 * one(params)
    for i in range(1, params.k, 2):
        image = (canonical_d(params, i) - two) - emb.of_phipoly(psi_series(i))
        checks.append(Check.vanishes(f"d_{i} - 2 = psi^{i}(phi)", image))
    if n >= 4:
        d0 = canonical_d(params, 0)
        dk = canonical_d(params, params.k)
        image = (dk - d0) - emb.of_phipoly(psi_series(params.k))
        checks.append(Check.vanishes(f"d_{params.k} - d_0 = psi^{params.k}(phi)", image))
    return Report(f"relations in R(Q_{params.group_order}), n={n}", tuple(checks))


def verify_relation3_redundant(n: int) -> bool:
    """(phi + 2) * (relation 6) reduced with relations 1, 2, 4, 5 only must
    give back +-g_{2k}(phi); the phi^(k+1) rule is never used."""
    rset = relations_for(n)
    diff = rset.relation("relation6").difference()
    prod = fp_mul({(0, 0, 1): 1, (0, 0, 0): 2}, diff)
    red = rewrite(prod, rset, labels=("relation1", "relation2", "relation4", "relation5"))
    gfp = fp_from_phipoly(g_poly(rset.k))
    return red == gfp or red == fp_neg(gfp)


def verify_minimality_witness(n: int) -> bool:
    """Dropping any single presentation relation must leave some basis-pair
    product stuck outside the normal-form basis; the full set must close."""
    rset = relations_for(n)
    k = rset.k
    monos = _basis_monos(k)[1:]
    basis = set(_basis_monos(k))
    pairs = [tuple(x + y for x, y in zip(m1, m2)) for m1 in monos for m2 in monos]

    def closes(labels) -> bool:
        for mono in pairs:
            red = rewrite({mono: 1}, rset, labels)
            if any(m not in basis for m in red):
                return False
        return True

    all_labels = rset.rule_labels()
    if not closes(None):
        return False
    for drop in PRESENTATION_LABELS:
        kept = tuple(lab for lab in all_labels if lab != drop)
        if closes(kept):
            return False  # the dropped relation was not necessary
    return True


def critical_monomials(k: int):
    return [(2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 1, 1),
            (1, 0, k + 1), (0, 1, k + 1)]


def verify_local_confluence(n: int) -> Report:
    """At each critical monomial, every applicable first rewrite must lead to
    the same normal form."""
    rset = relations_for(n)
    checks = []
    for mono in critical_monomials(rset.k):
        rules = [r for r in rset.rules if r.applies_to(mono)]
        results = [reduce(apply_rule_once(mono, r), n) for r in rules]
        ok = len(rules) >= 2 and all(r == results[0] for r in results)
        checks.append(Check(mono_name(mono), ok,
                            detail=f"{len(rules)} applicable rules"))
    return Report(f"local confluence, n={n}", tuple(checks))


def _embedding_witness(prod: KElement, lhs: RepElement, rhs: RepElement) -> str:
    """The K product and the first R basis label where its image differs
    from the R product of the images."""
    label, x, y = next((label, x, y) for label, x, y
                       in zip(lhs.ring.labels, lhs.coeffs, rhs.coeffs) if x != y)
    return f"K gives {prod}; coefficient of {label}: {x} embedded, {y} in R"


def verify_embedding(n: int) -> Report:
    """Unimodular basis change plus the commuting square
    embed(a *_nf b) = embed(a) * embed(b) over all normal-form basis pairs."""
    _, unimodular = basis_change_matrix(n)
    checks = [Check("basis_change_unimodular", unimodular)]
    basis = nf_basis(n)
    labels = nf_basis_labels(n)
    images = [embed_to_R(b) for b in basis]
    # R's table is commutative by construction, so each R product serves
    # both orders; the K side is computed for every ordered pair.
    products = {(i, j): images[i] * images[j]
                for i in range(len(basis)) for j in range(i, len(basis))}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = multiply_nf(a, b)
            lhs = embed_to_R(prod)
            rhs = products[min(i, j), max(i, j)]
            ok = lhs == rhs
            checks.append(Check(f"embed({labels[i]}*{labels[j]})", ok,
                                "" if ok else _embedding_witness(prod, lhs, rhs)))
    return Report(f"presentation certificate, n={n}", tuple(checks))
