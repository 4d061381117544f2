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
phi^(k-1).)  Normal forms live on the basis {1, v1, v2, phi, ..., phi^k}.

Their product contracts a table of basis products, built on the first
product for each n without the rewriter.  Multiplication by phi is a
linear operator on the basis: phi*1 = phi, phi*v1 and phi*v2 are the right
sides of relations 4 and 5, phi*phi^j is phi^(j+1) for j < k, and
phi*phi^k is the right side of the phi^(k+1) rule.  Applying it j times to
1, v1 or v2 gives b*phi^j, and phi^i*phi^j is the (i+j)-th element of the
chain from 1; v1^2, v2^2 and v1*v2 are the right sides of relations 1, 2
and 6.

Correctness is certified against R(Q_{4k}): the basis-change matrix of the
embedding is unimodular and normal-form multiplication commutes with the
embedding on all basis pairs.  The R side of phi^a * phi^b is read off the
power chain of phi's image, which equals the product of the two images
because R's table is associative: the structure-constant and orthogonality
checks of repring prove the character map an injective ring homomorphism,
and ``verify_embedding`` run without them assumes it.

Minimality is certified by ideal non-membership: each presentation relation
r has a degree D and an exponent e for which r is outside
I + m^(D+1) + 2^e*Z[v1, v2, phi], where I is the ideal of the other four
relations and m = (v1, v2, phi).  That is a question about one integer
lattice in the monomials of degree <= D, and a nonzero residue of r against
its Hermite basis is the certificate.

Each ``verify_*`` certifier returns a ``Report`` whose failing checks name
their witnesses.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import prod
from operator import mul

from .adams import PhiPoly, g_poly, psi_series
from .freemodule import Element, Ring, commutative_table, format_terms
from .intmatrix import determinant, hermite_basis_mod
from .report import Check, Record, Report
from .repring import GroupParams, RepElement, canonical_d, eta1, eta2, one, phi_element

Mono = tuple  # (a, b, c) exponents of v1, v2, phi


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

class Rule(Record):
    """The relation ``pattern = rhs``, oriented as a rewrite rule."""

    __slots__ = ("label",
                 "pattern",  # Mono
                 "rhs")  # ((mono, coeff), ...)

    def applies_to(self, mono: Mono) -> bool:
        return all(m >= p for m, p in zip(mono, self.pattern))

    def difference(self) -> dict:
        """pattern - rhs, the relation moved to one side."""
        return fp_sub({self.pattern: 1}, dict(self.rhs))

    def __str__(self) -> str:
        return f"{mono_name(self.pattern)} = {fp_format(dict(self.rhs))}"


class RelationSet(Record):
    __slots__ = ("n", "k",
                 "relations",  # presentation relations 1, 2, 4, 5, 6
                 "relation3",  # derived: phi^(k+1) -> phi^(k+1) - g_{2k}(phi)
                 "rules")  # the six oriented rewrite rules, priority order

    def relation(self, label: str) -> Rule:
        for r in self.relations:
            if r.label == label:
                return r
        raise KeyError(label)


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
    relations = tuple(Rule(f"relation{i}", pattern, _freeze(rhs)) for i, pattern, rhs in (
        (1, (2, 0, 0), rhs1), (2, (0, 2, 0), rhs2), (4, (1, 0, 1), rhs4),
        (5, (0, 1, 1), rhs5), (6, (1, 1, 0), rhs6)))
    r1, r2, r4, r5, r6 = relations
    # phi^(k+1) -> phi^(k+1) - g, the reduction that keeps phi-powers <= k;
    # g is monic of degree k+1, so the rule's difference is g exactly
    relation3 = Rule("relation3", (0, 0, k + 1),
                     _freeze({(0, 0, j): -g.coeff(j) for j in range(1, k + 1) if g.coeff(j)}))
    rules = (r4, r1, r5, r2, r6, relation3)
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
    with a restricted label set it may retain stuck monomials.  It serves
    ``reduce``, local confluence and the redundancy of relation 3; neither
    the table of basis products nor the minimality certificate uses it.
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

    def __init__(self, n: int, coeffs):
        super().__init__(_ring(n), coeffs)

    @property
    def n(self) -> int:
        return self.ring.param

    def to_fp(self) -> dict:
        return {mono: c for mono, c in zip(_basis_monos(len(self.coeffs) - 3), self.coeffs) if c}

    def __str__(self) -> str:
        return fp_format(self.to_fp())


@lru_cache(maxsize=None)
def _ring(n: int) -> Ring:
    order = GroupParams(n).group_order
    return Ring(f"K(BQ_{order})", n, nf_basis_labels(n), partial(_table, n))


def _coefficients(fp: dict, k: int, problem: str) -> list:
    """Coefficients of a formal polynomial over the normal-form basis.  A
    monomial outside the basis raises ``ArithmeticError(problem)``, with the
    monomial's name in place of ``{}``."""
    index = {mono: i for i, mono in enumerate(_basis_monos(k))}
    coeffs = [0] * len(index)
    for mono, c in fp.items():
        if mono not in index:
            raise ArithmeticError(problem.format(mono_name(mono)))
        coeffs[index[mono]] = c
    return coeffs


def _sparse(vector) -> tuple:
    return tuple((t, c) for t, c in enumerate(vector) if c)


def _phi_operator(rhs: dict, k: int) -> list:
    """Columns of multiplication by phi on the normal-form basis, from the
    rules' right sides ``rhs`` (label -> coefficient list): column t lists
    the pairs (s, c) with phi * b_t = sum of c * b_s."""
    return ([((3, 1),), _sparse(rhs["relation4"]), _sparse(rhs["relation5"])]
            + [((3 + j, 1),) for j in range(1, k)]  # phi^j -> phi^(j+1)
            + [_sparse(rhs["relation3"])])


def _table(n: int):
    """Structure constants from chains of the multiplication-by-phi operator:
    b * phi^j is the operator applied j times to b in {1, v1, v2}, and
    phi^i * phi^j is element i + j of the chain from 1.  v1^2, v2^2 and
    v1*v2 are the right sides of relations 1, 2 and 6."""
    rset = relations_for(n)
    k = rset.k
    rhs = {rule.label: _coefficients(
        dict(rule.rhs), k, f"right side of {rule.label} leaves the normal-form basis at {{}}")
        for rule in rset.rules}
    operator = _phi_operator(rhs, k)

    def chain(start: int, length: int) -> list:
        vector = [0] * (k + 3)
        vector[start] = 1
        out = [vector]
        for _ in range(length):
            vector = [0] * (k + 3)
            for x, column in zip(out[-1], operator):
                if x:
                    for s, c in column:
                        vector[s] += x * c
            out.append(vector)
        return out

    # basis index t >= 3 is phi^(t-2); each vector is made sparse once, so
    # the many products phi^i * phi^j that share a chain element share its entry
    chains = [[_sparse(vector) for vector in chain(start, length)]
              for start, length in ((0, 2 * k), (1, k), (2, k))]
    squares = {(1, 1): _sparse(rhs["relation1"]), (1, 2): _sparse(rhs["relation6"]),
               (2, 2): _sparse(rhs["relation2"])}

    def product(i: int, j: int):  # i <= j
        if j < 3:
            return chains[j][0] if i == 0 else squares[i, j]
        if i < 3:
            return chains[i][j - 2]
        return chains[0][i + j - 4]

    return commutative_table(k + 3, product)


def nf_basis(n: int):
    size = GroupParams(n).basis_size
    return [KElement(n, (int(t == i) for t in range(size))) for i in range(size)]


def nf_basis_labels(n: int):
    k = GroupParams(n).k
    return ["1", "v1", "v2", "phi"] + [f"phi^{j}" for j in range(2, k + 1)]


def reduce(expr: dict, n: int) -> KElement:
    """Full normal form of a formal polynomial in v1, v2, phi."""
    rset = relations_for(n)
    return KElement(n, _coefficients(rewrite(expr, rset), rset.k,
                                     "stuck monomial {} survived reduction"))


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

    def power(self, var: int, e: int):
        """Image ``var`` (0: v1, 1: v2, 2: phi) to the power e, cached."""
        cache = self._pows[var]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    def of_formal(self, fp: dict):
        unit = self._pows[0][0]
        if not fp:
            return 0 * unit
        terms = []
        for mono in fp:
            # a product with the unit costs as much as any other, so zeroth
            # powers are left out of the term
            factors = [self.power(var, e) for var, e in enumerate(mono) if e] or [unit]
            terms.append(prod(factors[1:], start=factors[0]).coeffs)
        # one pass per coordinate, with no intermediate element
        return unit._new(sum(map(mul, fp.values(), column)) for column in zip(*terms))

    def of_phipoly(self, p: PhiPoly):
        return self.of_formal(fp_from_phipoly(p))


@lru_cache(maxsize=None)
def _embedding(n: int) -> Substitution:
    """v1 -> eta1 - 1, v2 -> eta2 - 1, phi -> d_1 - 2 in R(Q_{4k})."""
    params = GroupParams(n)
    unit = one(params)
    return Substitution(unit, eta1(params) - unit, eta2(params) - unit, phi_element(params))


def embed_to_R(elem: KElement) -> RepElement:
    """Image of a normal-form element, evaluated by the embedding's
    ``Substitution``: its coefficients times the images of the basis."""
    return _embedding(elem.n).of_formal(elem.to_fp())


def _basis_change(n: int):
    """Images of 1, v1, v2, phi, ..., phi^k (the basis-change matrix's rows)
    and the determinant of their transpose, which with the row of eta3 moved
    last is unit upper triangular: Bareiss only swaps the eta3 row down."""
    images = [embed_to_R(b) for b in nf_basis(n)]
    return images, determinant([list(column) for column in zip(*(x.coeffs for x in images))])


def basis_change_matrix(n: int):
    """Rows: embeddings of 1, v1, v2, phi, ..., phi^k in the irreducible basis.

    Returns (matrix, unimodular flag); |det| = 1 proves that the presented
    ring is additively isomorphic to R(Q_{4k}).
    """
    images, det = _basis_change(n)
    return [list(image.coeffs) for image in images], abs(det) == 1


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


def verify_relation3_redundant(n: int) -> Report:
    """(phi + 2) * (relation 6) reduced with relations 1, 2, 4, 5 only must
    give back +-g_{2k}(phi); the phi^(k+1) rule is never used.  A failure
    shows what the product reduces to."""
    rset = relations_for(n)
    diff = rset.relation("relation6").difference()
    prod = fp_mul({(0, 0, 1): 1, (0, 0, 0): 2}, diff)
    red = rewrite(prod, rset, labels=("relation1", "relation2", "relation4", "relation5"))
    gfp = fp_from_phipoly(g_poly(rset.k))
    return Report(f"relation 3 redundancy, n={n}", (
        Check("relation3 redundant via relations 1,2,4,5", red in (gfp, fp_neg(gfp)),
              f"(phi + 2)*(relation 6) reduces to {fp_format(red)}"),))


MINIMALITY_DEGREES = (1, 2, 3)


class MinimalityCertificate(Record):
    """Proof that presentation relation ``label`` is not in the ideal I of
    the other four.

    ``residue`` is the relation, truncated to degrees <= ``degree`` and
    reduced against the Hermite basis of I + m^(degree+1) +
    2^exponent*Z[v1, v2, phi] in those degrees, m = (v1, v2, phi).  It is
    nonzero, so the relation lies outside that larger ideal, hence outside I.
    """

    __slots__ = ("label", "degree", "exponent", "residue")

    def __str__(self) -> str:
        return (f"{self.label}: D={self.degree}, e={self.exponent}, "
                f"residue {fp_format(self.residue)}")


def _monomials(low: int, high: int) -> list:
    """Monomials of total degree low..high, by degree."""
    return [(a, b, d - a - b) for d in range(low, high + 1)
            for a in range(d + 1) for b in range(d + 1 - a)]


def _minimality_certificate(label: str, relation: dict, others, n: int):
    """The certificate with the least D, then the least e (D in
    MINIMALITY_DEGREES, e <= n+2); None when there is none."""
    for degree in MINIMALITY_DEGREES:
        monos = _monomials(1, degree)
        index = {mono: i for i, mono in enumerate(monos)}

        def truncate(fp: dict) -> list:
            vector = [0] * len(monos)
            for mono, c in fp.items():
                if mono in index:
                    vector[index[mono]] = c
            return vector

        # m'*r_j lies in m^(degree+1) when deg m' >= degree, and only the
        # part of r_j of degree <= degree reaches the truncation
        lows = [{m: c for m, c in r.items() if sum(m) <= degree} for r in others]
        rows = [truncate(fp_mul({mono: 1}, low))
                for low in lows for mono in _monomials(0, degree - 1)]
        target = truncate(relation)
        for exponent in range(1, n + 3):
            residue = target
            for j, row in enumerate(hermite_basis_mod(rows, 2 ** exponent)):
                q = residue[j] // row[j]
                if q:
                    residue = [x - q * y for x, y in zip(residue, row)]
            if any(residue):
                return MinimalityCertificate(label, degree, exponent, {
                    mono: c for mono, c in zip(monos, residue) if c})
    return None


def minimality_certificates(n: int) -> dict:
    """Label -> ``MinimalityCertificate`` of each presentation relation, or
    None where the search finds none."""
    differences = {rel.label: rel.difference() for rel in relations_for(n).relations}
    for label, fp in differences.items():
        # the lattice leaves out the constant coordinate, which is sound only
        # because no relation, and so no multiple of one, has a constant term
        if (0, 0, 0) in fp:
            raise ArithmeticError(f"{label} has a nonzero constant term")
    return {label: _minimality_certificate(
        label, fp, [d for other, d in differences.items() if other != label], n)
        for label, fp in differences.items()}


def verify_minimality_witness(n: int) -> Report:
    """No presentation relation lies in the ideal of the other four.

    Minimality of a presentation is ideal non-membership, in the polynomial
    ring and in its completion at m = (v1, v2, phi), which is where K(BG)
    lives (Atiyah, Characters and cohomology of finite groups, Publ. IHES 9
    (1961)).  If r were in the ideal I of the others, it would be in the
    larger ideal I + m^(D+1) + 2^e*Z[v1, v2, phi] for every D and e.
    Membership in that one is decided exactly on the finite lattice of
    degrees <= D, so a nonzero residue of r against its Hermite basis
    proves r is not in I.  A failure names the relations that have no
    ``MinimalityCertificate``.
    """
    certificates = minimality_certificates(n)
    missing = [label for label, cert in certificates.items() if cert is None]
    detail = (f"no certificate with D <= {MINIMALITY_DEGREES[-1]}, e <= {n + 2} "
              f"for {', '.join(missing)}" if missing
              else "; ".join(map(str, certificates.values())))
    return Report(f"minimality witnesses, n={n}", (
        Check("each presentation relation is necessary", not missing, detail),))


def critical_monomials(k: int):
    return [(2, 1, 0), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 1, 1),
            (1, 0, k + 1), (0, 1, k + 1)]


def verify_local_confluence(n: int) -> Report:
    """At each critical monomial, every applicable first rewrite must lead to
    the same normal form.  A failure names the first two differing normal
    forms and the rules that gave them."""
    rset = relations_for(n)
    checks = []
    for mono in critical_monomials(rset.k):
        rules = [r for r in rset.rules if r.applies_to(mono)]
        results = [(r.label, reduce(apply_rule_once(mono, r), n)) for r in rules]
        split = next((other for other in results[1:] if other[1] != results[0][1]), None)
        detail = (f"{len(rules)} applicable rules" if split is None else
                  f"{results[0][0]} gives {results[0][1]}, {split[0]} gives {split[1]}")
        checks.append(Check(mono_name(mono), len(rules) >= 2 and split is None, detail))
    return Report(f"local confluence, n={n}", tuple(checks))


def _embedding_witness(prod: KElement, lhs: RepElement, rhs: RepElement) -> str:
    """The K product and the first R basis label where its image differs
    from the R product of the images."""
    label, x, y = next((label, x, y) for label, x, y
                       in zip(lhs.ring.labels, lhs.coeffs, rhs.coeffs) if x != y)
    return f"K gives {prod}; coefficient of {label}: {x} embedded, {y} in R"


def _embedding_square(n: int, images):
    """(i, j, K product, its image, R product of the images) for each
    ordered pair of basis indices, in order, from the basis ``images``."""
    basis = nf_basis(n)
    power = _embedding(n).power
    embed = lru_cache(maxsize=None)(embed_to_R)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = multiply_nf(a, b)
            # index t >= 3 is phi^(t-2), so lo >= 4 is phi^a * phi^b with
            # a, b >= 2; R's table is commutative by construction
            lo, hi = min(i, j), max(i, j)
            rhs = power(2, lo + hi - 4) if lo >= 4 else images[lo] * images[hi]
            yield i, j, prod, embed(prod), rhs


def verify_embedding(n: int) -> Report:
    """Unimodular basis change plus the commuting square
    embed(a *_nf b) = embed(a) * embed(b) over all normal-form basis pairs.

    The R side of phi^a * phi^b with a, b >= 2 is phi's image to the power
    a + b, read off the cached power chain (each step a product with the
    sparse image of phi), which also gives embed(phi^a) and embed(phi^b).
    It equals embed(phi^a) * embed(phi^b) because R's table is associative:
    ``repring.verify_structure_constants`` and ``verify_orthogonality``
    together prove the character map an injective ring homomorphism into
    class functions under the pointwise product.  Called on its own, this
    check assumes them.  Every other pair has a sparse factor (the image of
    1, v1, v2 or phi) and is multiplied literally.  The K side is computed
    for every ordered pair, and each distinct product is embedded once.
    """
    images, det = _basis_change(n)
    checks = [Check("basis_change_unimodular", abs(det) == 1, f"determinant {det}")]
    labels = nf_basis_labels(n)
    for i, j, prod, lhs, rhs in _embedding_square(n, images):
        ok = lhs == rhs
        checks.append(Check(f"embed({labels[i]}*{labels[j]})", ok,
                            "" if ok else _embedding_witness(prod, lhs, rhs)))
    return Report(f"presentation certificate, n={n}", tuple(checks))
