"""Dense references that the tests compare the package against.

None of this is run by a CLI verb, a certifier or a benchmark workload, so
it lives with the tests and is not installed.  Each function is the plain
textbook route to a value that the package computes another way:

* ``horner`` evaluates a polynomial, a second route beside
  ``kring.Substitution``;
* ``chebyshev_t`` is the recurrence behind ``adams.psi_oracles``;
* ``psi_closed_form`` is the closed binomial series that ``adams.psi_series``
  walks by its term ratio;
* ``in_phi`` writes a formal polynomial in phi from its coefficients, and
  ``dense`` turns one into an ``IntPoly``, for composition and ``horner``;
* ``character_table`` is the dense table of ``ClassFunction`` rows, one
  Z[zeta] value per (character, class), that ``repring._character_table``
  stores as k + 3 distinct values and rows of indices into them;
* ``character_of``, ``pointwise``, ``inner_product`` and ``decompose`` are
  the dense character calculus that ``repring``'s sparse certifiers replace;
* ``smith_failure`` checks a ``SmithForm`` against its matrix;
* ``bareiss_determinant`` is Bareiss elimination that rescales every row at
  each new pivot, the check on ``intmatrix.determinant`` for lattices too
  large for sympy;
* ``rewrite`` re-sorts its working set after every rule application, where
  ``kring.rewrite`` pops monomials off a heap;
* ``apply_rule_once`` adds the rule's terms one by one, where
  ``kring.apply_rule_once`` is one ``fp_mul``;
* ``restrict`` loops over the d's, where ``lens.restrict`` maps slices;
* ``nf_basis`` gives the basis of K as elements of ``kring._ring(n)``, whose
  products contract K's table, ``to_fp`` writes such an element as the
  formal polynomial that ``kring.reduce`` returns, and ``embed_to_R``
  evaluates it by the embedding's ``Substitution``: the package computes in
  K by reducing formal products and forms no element of K;
* ``embedding_square_reference`` forms and embeds the K product of every
  pair, where ``kring.verify_embedding`` contracts K's table entries with
  the basis-change rows.
"""

from functools import lru_cache
from itertools import islice
from math import comb

from qkring import kring
from qkring.adams import psi_oracles
from qkring.freemodule import Element, fp_format
from qkring.intmath import CyclotomicInt, IntPoly
from qkring.intmatrix import determinant
from qkring.kring import fp_add_term, mono_name
from qkring.lens import LensElement
from qkring.report import Check, Record, Report
from qkring.repring import ETA1, ETA2, ETA3, GroupParams, RepElement, class_sizes


def horner(p: IntPoly, x):
    """p(x) by Horner's scheme: acc = acc*x + c*x over the coefficients of
    x^d, ..., x^1, then the constant term is added.

    With a zero constant term only +, * and integer scaling are used, so x
    may be an element of a ring whose unit is not at hand; int and Fraction
    work for any polynomial.
    """
    acc = 0 * x
    for c in reversed(p.coeffs[1:]):
        acc = acc * x + c * x if c else acc * x
    return acc + p.coeffs[0] if p.coeff(0) else acc


def chebyshev_t(i: int) -> IntPoly:
    """t_i with t_0 = 2, t_1 = c, t_{i+1} = c*t_i - t_{i-1}, so that
    t_i(z + 1/z) = z^i + z^-i."""
    if i < 0:
        raise ValueError("chebyshev_t requires i >= 0")
    prev, cur = IntPoly.of(2), IntPoly.of(0, 1)
    if i == 0:
        return prev
    x = IntPoly.of(0, 1)
    for _ in range(i - 1):
        prev, cur = cur, x * cur - prev
    return cur


def psi_oracle(i: int):
    """psi^i, the i-th term of ``psi_oracles``; ValueError for i < 1."""
    return next(islice(psi_oracles(), i - 1, None))


def psi_closed_form(i: int) -> dict:
    """psi^i = sum_{j=1..i} [C(i,j) * C(i+j-1,j) / C(2j-1,j)] * w^j, each
    quotient checked to be exact."""
    coeffs = []
    for j in range(1, i + 1):
        q, r = divmod(comb(i, j) * comb(i + j - 1, j), comb(2 * j - 1, j))
        assert not r, (i, j)
        coeffs.append(q)
    return in_phi(*coeffs)


def in_phi(*coeffs: int) -> dict:
    """The formal polynomial with coefficients of phi, phi^2, ...:
    in_phi(4, 1) is 4*phi + phi^2."""
    return {(0, 0, j): c for j, c in enumerate(coeffs, 1) if c}


def dense(poly: dict) -> IntPoly:
    """The ``IntPoly`` of a formal polynomial in phi, x standing for phi."""
    coeffs = [0] * (max((c for _, _, c in poly), default=0) + 1)
    for (a, b, c), x in poly.items():
        assert a == b == 0, (a, b)
        coeffs[c] = x
    return IntPoly(coeffs)


class ClassFunction(Record):
    """Cyclotomic-valued class function, indexed by the frozen class order."""

    __slots__ = ("params", "values")


def character_table(params: GroupParams):
    """Irreducible characters, aligned with the RepElement basis order.

    Built anew on each call, so that its values use the Z[zeta] table in
    force (a planted one included)."""
    k = params.k
    cy = lambda v: CyclotomicInt.from_int(k, v)
    root = lambda e: CyclotomicInt.root_power(k, e)

    def row(e_val, xk_val, xr_fn, y_val, xy_val):
        values = [e_val, xk_val]
        values += [xr_fn(r) for r in range(1, k)]
        values += [y_val, xy_val]
        return ClassFunction(params, tuple(values))

    table = [
        row(cy(1), cy(1), lambda r: cy(1), cy(1), cy(1)),
        row(cy(1), cy(1), lambda r: cy(1), cy(-1), cy(-1)),
        # eta2(y) = +1, eta3(y) = -1 is a free choice; swapping the two is a
        # ring automorphism, and the structure-constant oracle certifies it.
        row(cy(1), cy(1), lambda r: cy((-1) ** r), cy(1), cy(-1)),
        row(cy(1), cy(1), lambda r: cy((-1) ** r), cy(-1), cy(1)),
    ]
    for i in range(1, k):
        table.append(row(cy(2), cy(2 * (-1) ** i),
                         lambda r, i=i: root(i * r) + root(-i * r),
                         cy(0), cy(0)))
    return tuple(table)


def _zero(k: int) -> CyclotomicInt:
    return CyclotomicInt(k, (0,) * k)


def character_of(elem: RepElement) -> ClassFunction:
    """The character of a virtual representation, summed row by row over
    the whole character table."""
    table = character_table(elem.params)
    values = [_zero(elem.params.k) for _ in range(elem.params.basis_size)]
    for coeff, chi in zip(elem.coeffs, table):
        if coeff == 0:
            continue
        values = [acc + coeff * v for acc, v in zip(values, chi.values)]
    return ClassFunction(elem.params, tuple(values))


def pointwise(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    return ClassFunction(f.params, tuple(a * b for a, b in zip(f.values, g.values)))


def inner_product(f: ClassFunction, g: ClassFunction) -> int:
    """(1/|G|) sum over classes of |class| * f * conj(g); must be an integer."""
    params = f.params
    total = _zero(params.k)
    for size, fv, gv in zip(class_sizes(params), f.values, g.values):
        total = total + size * (fv * gv.conj())
    if any(total.coeffs[1:]):
        raise ValueError(f"{total} is not a rational integer")
    q, r = divmod(total.coeffs[0], params.group_order)
    if r:
        raise ValueError(
            f"inner product {total.coeffs[0]}/{params.group_order} is not an integer; "
            "the class function is not a virtual character")
    return q


def decompose(f: ClassFunction) -> RepElement:
    """Inverse of ``character_of``, via orthogonality of irreducible characters."""
    table = character_table(f.params)
    return RepElement(f.params, tuple(inner_product(f, chi) for chi in table))


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    if any(len(r) != inner for r in A):
        raise ValueError("incompatible shapes")
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for t in range(inner):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(cols):
                row[j] += a * Bt[j]
    return out


def smith_failure(snf, M):
    """The first condition of the certificate U*M*V = D that fails for M,
    named with its witness; None when ``snf`` is a Smith normal form of M."""
    UMV = mat_mul(mat_mul(snf.U, M), snf.V)
    if UMV != snf.D:
        for i, (got, want) in enumerate(zip(UMV, snf.D)):
            for j, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    return f"(U*M*V)[{i}][{j}] = {g}, D[{i}][{j}] = {w}"
        return "U*M*V and D have different shapes"
    for name, T in (("U", snf.U), ("V", snf.V)):
        det = determinant(T)
        if abs(det) != 1:
            return f"det {name} = {det}, not +-1"
    diag = snf.diagonal
    for i, d in enumerate(diag):
        if d < 0:
            return f"negative diagonal entry D[{i}][{i}] = {d}"
    for i, (a, b) in enumerate(zip(diag, diag[1:])):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            return f"D[{i}][{i}] = {a} does not divide D[{i + 1}][{i + 1}] = {b}"
    for i, row in enumerate(snf.D):
        for j, v in enumerate(row):
            if i != j and v != 0:
                return f"nonzero off-diagonal entry D[{i}][{j}] = {v}"
    return None


def bareiss_determinant(A) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Row i is left as it is at step t when its multiplier M[i][t] is 0 and
    the pivot equals the previous one, because (x*p - 0*y) // p is x.  A
    row with a zero multiplier under a new pivot is still rescaled.  The
    0 x 0 matrix has the empty product, 1, as its determinant.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant requires a square matrix")
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if M[t][t] == 0:
            for i in range(t + 1, n):
                if M[i][t] != 0:
                    M[t], M[i] = M[i], M[t]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[t][t]
        for i in range(t + 1, n):
            if M[i][t] == 0 and pivot == prev:
                continue
            for j in range(t + 1, n):
                M[i][j] = (M[i][j] * pivot - M[i][t] * M[t][j]) // prev
            M[i][t] = 0
        prev = pivot
    return sign * M[n - 1][n - 1] if n else 1


def apply_rule_once(mono: tuple, rule) -> dict:
    """Replace one occurrence of the rule's pattern inside the monomial,
    adding the shifted terms of its right-hand side one at a time."""
    if not rule.applies_to(mono):
        raise ValueError(f"{rule.label} does not apply to {mono_name(mono)}")
    rem = tuple(m - p for m, p in zip(mono, rule.pattern))
    out: dict = {}
    for rmono, c in rule.rhs:
        fp_add_term(out, tuple(r + s for r, s in zip(rem, rmono)), c)
    return out


def rewrite(expr: dict, rules) -> dict:
    """Rewrite the largest reducible monomial, by (number of v-factors,
    total degree, exponents), with the first of ``rules`` that applies;
    re-sort the working set after every step, and stop when no monomial is
    reducible."""
    work = {m: c for m, c in expr.items() if c}
    while True:
        pick = None
        for mono in sorted(work, key=lambda m: (m[0] + m[1], sum(m), m), reverse=True):
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


def restrict(r: RepElement) -> LensElement:
    """Restriction to <x>: 1 and eta1 go to 1, eta2 and eta3 to eta^k, d_i
    to eta^i + eta^(-i)."""
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


def nf_basis(n: int) -> list:
    """1, v1, v2, phi, ..., phi^k as elements of K's ring ``kring._ring(n)``."""
    ring = kring._ring(n)
    size = len(ring.labels)
    return [Element(ring, (int(t == i) for t in range(size))) for i in range(size)]


def to_fp(elem: Element) -> dict:
    """An element of K's ring as a formal polynomial on the basis monomials."""
    monos = kring._basis_monos(len(elem.coeffs) - 3)
    return {mono: c for mono, c in zip(monos, elem.coeffs) if c}


def embed_to_R(elem: Element) -> RepElement:
    """Image of an element of K's ring, evaluated by the embedding's
    ``Substitution``: its coefficients times the images of the basis."""
    return kring._embedding(elem.ring.param).of_formal(to_fp(elem))


def embedding_square_reference(n: int) -> Report:
    """``kring.verify_embedding`` with the K side formed as products: the K
    product of every ordered pair of basis elements, each distinct one
    embedded once by ``embed_to_R``, against the same R side."""
    basis = nf_basis(n)
    monos = kring._basis_monos(GroupParams(n).k)
    labels = kring.nf_basis_labels(n)
    monomial = kring._embedding(n).monomial
    embed = lru_cache(maxsize=None)(embed_to_R)
    _, det = kring._basis_change(n)
    checks = [Check("basis_change_unimodular", abs(det) == 1, f"determinant {det}")]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = a * b
            lhs = embed(prod)
            rhs = monomial(tuple(x + y for x, y in zip(monos[i], monos[j])))
            ok = lhs == rhs
            checks.append(Check(f"embed({labels[i]}*{labels[j]})", ok,
                                "" if ok else
                                kring._embedding_witness(fp_format(to_fp(prod)), lhs, rhs)))
    return Report(f"presentation certificate, n={n}", tuple(checks))
