"""The presented ring Z[v1, v2, phi] modulo the minimal relation set.

Generators correspond to reduced bundles v1 = eta1 - 1, v2 = eta2 - 1,
phi = d_1 - 2.  The presentation relations are

    (1) v1^2   = -2*v1
    (2) v2^2   = -2*v2
    (4) v1*phi = -2*v1
    (5) v2*phi = psi^(k-1)(phi) - phi - 2*v2
    (6) v1*v2  = phi^2 + 4*phi - 2*v1 - 2*v2        (n = 3)
        v1*v2  = psi^k(phi) - 2*v2                  (n >= 4)

together with the derived reduction g_{2k}(phi) = 0, relation 3, kept only
as the rewrite rule for phi^(k+1) (it is provably redundant as a
presentation relation: see ``verify_relation3_redundant``).  All six are
one tuple of ``Rule``s, ``relations_for(n)``, which every reader takes its
rules from; ``PRESENTATION`` names the five presentation relations, and
``relation`` finds a rule by its label.

Formal polynomials in the generators are dictionaries keyed by exponent
triples (a, b, c) for v1^a * v2^b * phi^c, with their arithmetic and text
in ``freemodule``.  The psi- and g-polynomials of adams are such
dictionaries, so the rules take them as they are.  Oriented left-to-right,
every rule strictly decreases (number of v-factors, total degree) in
lexicographic order, which is what makes ``reduce`` terminate.  (Total
degree alone does not work: the right side of relation 5 contains
phi^(k-1).)  A normal form is the formal polynomial that ``reduce`` leaves,
on the basis {1, v1, v2, phi, ..., phi^k}; to compute in the ring, reduce
formal products: ``reduce(fp_mul(f, g), n)``.

K's ``Ring``, ``_ring(n)``, holds the table of basis products that
``verify_embedding`` certifies, built when first read for each n without
the rewriter; no certifier multiplies with it.  The table finds each rule
by the monomial it rewrites: a product of basis monomials that leaves the
basis is a rule's pattern, and the rule's right side is its normal form.
Multiplication by phi is a linear operator on the basis: phi*1 = phi,
phi*v1 and phi*v2 are the right sides of relations 4 and 5, phi*phi^j is
phi^(j+1) for j < k, and phi*phi^k is the right side of relation 3.
Applying it j times to 1, v1 or v2 gives b*phi^j, and phi^i*phi^j is the
(i+j)-th element of the chain from 1; v1^2, v2^2 and v1*v2 are the right
sides of relations 1, 2 and 6.

Correctness is certified against R(Q_{4k}): the basis-change matrix M of
the embedding is unimodular, and the square commutes on all basis pairs:
the image of each table entry b_i*b_j equals the image of the formal
product m_i*m_j, both evaluated by the embedding's one ``Substitution``.
What the square relies on in R is stated once, in ``verify_embedding``.

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
from heapq import heapify, heappop, heappush
from math import prod
from operator import add, mul

from .adams import g_poly, psi_series
from .freemodule import (Mono, Ring, commutative_table, fp_add_term, fp_format, fp_mul,
                         fp_sum, mono_name)
from .report import Check, Record, Report
from .repring import GroupParams, RepElement, canonical_d, eta1, eta2, one, phi_element


# ---------------------------------------------------------------------------
# the presentation
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
        return fp_sum({self.pattern: 1}, {m: -c for m, c in self.rhs})

    def __str__(self) -> str:
        return f"{mono_name(self.pattern)} = {fp_format(dict(self.rhs))}"


PRESENTATION = ("relation1", "relation2", "relation4", "relation5", "relation6")


def relation(rules, label: str) -> Rule:
    """The rule labelled ``label`` among ``rules``."""
    return {r.label: r for r in rules}[label]


@lru_cache(maxsize=None)
def relations_for(n: int) -> tuple:
    """The six oriented rewrite rules for Q_{2^n}, psi-polynomials expanded,
    in priority order: relations 4, 1, 5, 2 and 6, then the derived
    relation 3, phi^(k+1) -> phi^(k+1) - g_{2k}(phi)."""
    k = GroupParams(n).k
    v1, v2, phi = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    rhs5 = fp_sum(psi_series(k - 1), {phi: -1, v2: -2})
    if n == 3:
        rhs6 = {(0, 0, 2): 1, phi: 4, v1: -2, v2: -2}
    else:
        rhs6 = fp_sum(psi_series(k), {v2: -2})
    # the reduction that keeps phi-powers <= k; g is monic of degree k+1, so
    # the rule's difference is g exactly
    rhs3 = {mono: -c for mono, c in g_poly(k).items() if mono != (0, 0, k + 1)}
    rules = ((4, (1, 0, 1), {v1: -2}), (1, (2, 0, 0), {v1: -2}), (5, (0, 1, 1), rhs5),
             (2, (0, 2, 0), {v2: -2}), (6, (1, 1, 0), rhs6), (3, (0, 0, k + 1), rhs3))
    return tuple(Rule(f"relation{i}", pattern, tuple(sorted(rhs.items())))
                 for i, pattern, rhs in rules)


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def _measure(mono: Mono):
    """Heap key: the least is the largest monomial by (v-factors, degree, exponents)."""
    a, b, c = mono
    return (-(a + b), -(a + b + c), (-a, -b, -c), mono)


def apply_rule_once(mono: Mono, rule: Rule) -> dict:
    """Replace one occurrence of the rule's pattern inside the monomial."""
    if not rule.applies_to(mono):
        raise ValueError(f"{rule.label} does not apply to {mono_name(mono)}")
    return fp_mul({tuple(m - p for m, p in zip(mono, rule.pattern)): 1}, dict(rule.rhs))


def rewrite(expr: dict, rules) -> dict:
    """Apply the oriented ``rules``, in their priority order, until none fires.

    With the six rules of ``relations_for`` the result lies on the normal-form
    basis.  Rules that do not reach the basis, such as a shorter tuple of
    them, leave stuck monomials in the result.
    It serves ``reduce`` and local confluence, not the K table or other certifiers.

    Each step pops the largest monomial of the working set off a heap and
    rewrites it by the first rule that applies, or moves it to the result, which
    holds only stuck monomials.  So each rewrite picks the largest reducible
    monomial of the two together, as re-sorting them would, for any
    terminating rule set: a product not lower than the popped monomial pops
    next, and a stuck one that comes back is added to the result again.
    """
    work = {m: c for m, c in expr.items() if c}
    heap = [_measure(m) for m in work]
    heapify(heap)
    out: dict = {}
    while heap:
        mono = heappop(heap)[-1]
        coeff = work.pop(mono, 0)
        rule = next((r for r in rules if r.applies_to(mono)), None)
        if rule is None or not coeff:
            fp_add_term(out, mono, coeff)
            continue
        for tgt, c in apply_rule_once(mono, rule).items():
            if tgt not in work:
                heappush(heap, _measure(tgt))
            fp_add_term(work, tgt, coeff * c)
    return out


# ---------------------------------------------------------------------------
# normal forms and K's table
# ---------------------------------------------------------------------------

def _basis_monos(k: int):
    """Monomials of the normal-form basis 1, v1, v2, phi, ..., phi^k, in order."""
    return [(0, 0, 0), (1, 0, 0), (0, 1, 0)] + [(0, 0, j) for j in range(1, k + 1)]


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


def _phi_operator(normal: dict, k: int) -> list:
    """Columns of multiplication by phi on the normal-form basis: column t
    lists the pairs (s, c) with phi * b_t = sum of c * b_s, which ``normal``
    gives at the monomial b_t * phi."""
    return [normal[a, b, c + 1] for a, b, c in _basis_monos(k)]


def _table(n: int):
    """Structure constants from chains of the multiplication-by-phi operator:
    b * phi^j is the operator applied j times to b in {1, v1, v2}, and
    phi^i * phi^j is element i + j of the chain from 1.  ``normal`` maps each
    basis monomial to its unit pair and each rule's pattern to the rule's
    right side, so it gives v1^2, v1*v2 and v2^2 at m_i + m_j."""
    k = GroupParams(n).k
    monos = _basis_monos(k)
    normal = {rule.pattern: _sparse(_coefficients(
        dict(rule.rhs), k, f"right side of {rule.label} leaves the normal-form basis at {{}}"))
        for rule in relations_for(n)}
    normal.update((mono, ((t, 1),)) for t, mono in enumerate(monos))
    operator = _phi_operator(normal, k)

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

    def product(i: int, j: int):  # i <= j
        if j < 3:
            return normal[tuple(map(add, monos[i], monos[j]))]
        if i < 3:
            return chains[i][j - 2]
        return chains[0][i + j - 4]

    return commutative_table(k + 3, product)


def nf_basis_labels(n: int):
    return [mono_name(mono) for mono in _basis_monos(GroupParams(n).k)]


def reduce(expr: dict, n: int) -> dict:
    """Full normal form of a formal polynomial in v1, v2, phi: the formal
    polynomial that ``rewrite`` leaves under ``relations_for(n)``.  A
    monomial left off the normal-form basis raises ``ArithmeticError``."""
    normal = rewrite(expr, relations_for(n))
    _coefficients(normal, GroupParams(n).k, "stuck monomial {} survived reduction")
    return normal


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
        if e < 0:
            raise ValueError(f"negative powers are not defined in {cache[0].ring.name}")
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    def monomial(self, mono: Mono):
        """Image of v1^a * v2^b * phi^c for mono = (a, b, c): the product, left
        to right, of the cached powers.  A product with the unit costs as much
        as any other, so zeroth powers are left out: a single power is
        returned as cached, and (0, 0, 0) gives the unit."""
        factors = [self.power(var, e) for var, e in enumerate(mono) if e] or [self._pows[0][0]]
        return prod(factors[1:], start=factors[0])

    def of_formal(self, fp: dict):
        unit = self._pows[0][0]
        if not fp:
            return 0 * unit
        terms = [self.monomial(mono).coeffs for mono in fp]
        # one pass per coordinate, with no intermediate element
        return unit._new(sum(map(mul, fp.values(), column)) for column in zip(*terms))


@lru_cache(maxsize=None)
def _embedding(n: int) -> Substitution:
    """v1 -> eta1 - 1, v2 -> eta2 - 1, phi -> d_1 - 2 in R(Q_{4k})."""
    params = GroupParams(n)
    unit = one(params)
    return Substitution(unit, eta1(params) - unit, eta2(params) - unit, phi_element(params))


def _basis_change(n: int):
    """Images of 1, v1, v2, phi, ..., phi^k (the basis-change matrix's rows),
    each the embedding's ``Substitution.monomial`` of its basis monomial,
    and the determinant of their transpose, which with the row of eta3 moved
    last is unit upper triangular: Bareiss only swaps the eta3 row down."""
    from .intmatrix import determinant  # present never loads it

    images = list(map(_embedding(n).monomial, _basis_monos(GroupParams(n).k)))
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
    rules = relations_for(n)
    checks = [Check.vanishes(label, emb.of_formal(relation(rules, label).difference()))
              for label in PRESENTATION + ("relation3",)]
    two = 2 * one(params)
    for i in range(1, params.k, 2):
        image = (canonical_d(params, i) - two) - emb.of_formal(psi_series(i))
        checks.append(Check.vanishes(f"d_{i} - 2 = psi^{i}(phi)", image))
    if n >= 4:
        d0 = canonical_d(params, 0)
        dk = canonical_d(params, params.k)
        image = (dk - d0) - emb.of_formal(psi_series(params.k))
        checks.append(Check.vanishes(f"d_{params.k} - d_0 = psi^{params.k}(phi)", image))
    return Report(f"relations in R(Q_{params.group_order}), n={n}", tuple(checks))


def verify_relation3_redundant(n: int) -> Report:
    """Relation 3 lies in the ideal of the others: with r_j relation j moved
    to one side and a, b the v1, v2 coefficients on relation 6's right side,
    (phi + 2)*r6 - (v2 - a)*r4 + b*r5 + g_{2k}(phi) = 0 in Z[v1, v2, phi]
    (derived in the README).  A failure shows the cofactors and the residue."""
    rules = relations_for(n)
    k = GroupParams(n).k
    rhs6 = dict(relation(rules, "relation6").rhs)
    a, b = rhs6.get((1, 0, 0), 0), rhs6.get((0, 1, 0), 0)
    cofactors = ((6, {(0, 0, 1): 1, (0, 0, 0): 2}), (4, {(0, 1, 0): -1, (0, 0, 0): a}),
                 (5, {(0, 0, 0): b}))
    residue = fp_sum(g_poly(k), *(
        fp_mul(q, relation(rules, f"relation{j}").difference()) for j, q in cofactors))
    terms = " + ".join(f"({fp_format(q)})*r{j}" for j, q in cofactors)
    return Report(f"relation 3 redundancy, n={n}", (
        Check("relation3 redundant via relations 1,2,4,5", not residue,
              f"{terms} + g_{2 * k} = {fp_format(residue)}"),))


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


def _minimality_certificate(label: str, difference: dict, others, n: int):
    """The certificate with the least D, then the least e (D in
    MINIMALITY_DEGREES, e <= n+2); None when there is none."""
    from .intmatrix import hermite_basis_mod  # present never loads it

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
        target = truncate(difference)
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
    rules = relations_for(n)
    differences = {label: relation(rules, label).difference() for label in PRESENTATION}
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
    rules = relations_for(n)
    checks = []
    for mono in critical_monomials(GroupParams(n).k):
        applicable = [r for r in rules if r.applies_to(mono)]
        results = [(r.label, reduce(apply_rule_once(mono, r), n)) for r in applicable]
        split = next((other for other in results[1:] if other[1] != results[0][1]), None)
        detail = (f"{len(applicable)} applicable rules" if split is None else
                  f"{results[0][0]} gives {fp_format(results[0][1])}, "
                  f"{split[0]} gives {fp_format(split[1])}")
        checks.append(Check(mono_name(mono), len(applicable) >= 2 and split is None, detail))
    return Report(f"local confluence, n={n}", tuple(checks))


def _embedding_witness(k_side, lhs: RepElement, rhs: RepElement) -> str:
    """The K product ``k_side``, as text, and the first R basis label where
    its image differs from the R product of the images."""
    label, x, y = next((label, x, y) for label, x, y
                       in zip(lhs.ring.labels, lhs.coeffs, rhs.coeffs) if x != y)
    return f"K gives {k_side}; coefficient of {label}: {x} embedded, {y} in R"


def verify_embedding(n: int) -> Report:
    """Unimodular basis change plus the commuting square
    embed(a *_nf b) = embed(a) * embed(b) over all normal-form basis pairs.

    For basis monomials m_i and m_j the R side is the image of their formal
    product m_i*m_j, which ``Substitution.monomial`` forms from the cached
    powers of the images of v1, v2 and phi.  It equals embed(m_i) *
    embed(m_j) because R's table is commutative and associative:
    ``repring.verify_structure_constants`` and ``verify_orthogonality``
    together prove the character map an injective ring homomorphism into
    class functions under the pointwise product.  Called on its own, this
    check assumes them.  The K side forms no K product: each distinct entry
    b_i * b_j of K's table, the sum of c * b_t over its terms (t, c), is
    evaluated once by the same ``Substitution``, so both sides are images
    under one evaluation map.
    """
    _, det = _basis_change(n)
    checks = [Check("basis_change_unimodular", abs(det) == 1, f"determinant {det}")]
    monos = _basis_monos(GroupParams(n).k)
    labels = nf_basis_labels(n)
    emb = _embedding(n)

    def formal(entry) -> dict:
        return {monos[t]: c for t, c in entry}

    embedded = {}  # distinct entry -> its image
    for i, row in enumerate(_ring(n).table):
        for j, entry in enumerate(row):
            lhs = embedded.get(entry)
            if lhs is None:
                lhs = embedded[entry] = emb.of_formal(formal(entry))
            rhs = emb.monomial(tuple(map(add, monos[i], monos[j])))
            ok = lhs == rhs
            checks.append(Check(f"embed({labels[i]}*{labels[j]})", ok, "" if ok else
                                _embedding_witness(fp_format(formal(entry)), lhs, rhs)))
    return Report(f"presentation certificate, n={n}", tuple(checks))
