"""The representation ring R(Q_{4k}) of a generalized quaternion group.

Q_{2^n} (n >= 3) is generated by x, y with x^(2^(n-1)) = 1, x^(2^(n-2)) = y^2,
xyx = y.  Writing 2^n = 2m = 4k, the irreducible complex characters are four
one-dimensional ones (1, eta1, eta2, eta3) and k-1 two-dimensional ones
(d_1, ..., d_(k-1)).  Elements of the ring are integer vectors over that
basis; the product comes from

    d_i d_j = d_(i+j) + d_(i-j),   eta1 d_i = d_i,   eta2 d_i = eta3 d_i = d_(k-i),

with d_i folded into range by d_(-i) = d_i = d_(m-i) and the boundary
expansions d_0 = 1 + eta1, d_k = eta2 + eta3.

An independent character-table oracle certifies the relation-driven
product: ``verify_orthogonality`` proves the exact Z[zeta]-valued table
invertible, and ``verify_structure_constants`` then compares the character
of each basis product with the pointwise product of characters.

Both certifiers read one sparse table, ``_character_table``: its k + 3
distinct Z[zeta] values are held once, and each character is a row of
indices into them.  They read one more table, ``_product_terms``, of the
products of every ordered pair of those values, each formed once by
``CyclotomicInt``'s own multiplication through the table that ``intmath``
builds from zeta^k = -1 alone; the fold rules above never enter the
oracle.  Neither certifier halves its work by symmetry: every ordered pair
(i, j) is computed on both sides.  So an R defect in b_i * b_j that is
absent from b_j * b_i fails at exactly that pair, and a one-sided Z[zeta]
defect fails wherever a product is read in that order.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .freemodule import Element, Ring, commutative_table
from .report import Check, Record, Report

# basis layout: index 0..3 = 1, eta1, eta2, eta3; index 3+i = d_i
ONE, ETA1, ETA2, ETA3 = 0, 1, 2, 3


class GroupParams(Record):
    """Size data for Q_{2^n}: k = 2^(n-2), m = 2k, group order 4k."""

    __slots__ = ("n",)

    def __post_init__(self):
        if type(self.n) is not int:  # 3.0 == 3 would share the caches keyed by n
            raise TypeError(f"n must be an int, not {type(self.n).__name__}")
        if self.n < 3:
            raise ValueError("quaternion groups need n >= 3")

    @property
    def k(self) -> int:
        return 2 ** (self.n - 2)

    @property
    def m(self) -> int:
        return 2 * self.k

    @property
    def group_order(self) -> int:
        return 4 * self.k

    @property
    def basis_size(self) -> int:
        return self.k + 3


def basis_labels(params: GroupParams):
    return ["1", "eta1", "eta2", "eta3"] + [f"d_{i}" for i in range(1, params.k)]


class RepElement(Element):
    """Virtual representation: integer coefficients over the irreducible basis."""

    __slots__ = ()

    def __init__(self, params: GroupParams, coeffs):
        super().__init__(_ring(params.n), coeffs)

    @property
    def params(self) -> GroupParams:
        return self.ring.param

    def dimension(self) -> int:
        """Value of the character at the identity (virtual dimension)."""
        return sum(c * d for c, d in zip(self.coeffs, _dims(self.params)))


def _dims(params: GroupParams):
    return (1, 1, 1, 1) + (2,) * (params.k - 1)


def _basis(params: GroupParams, idx: int) -> RepElement:
    coeffs = [0] * params.basis_size
    coeffs[idx] = 1
    return RepElement(params, tuple(coeffs))


def one(params: GroupParams) -> RepElement:
    return _basis(params, ONE)


def eta1(params: GroupParams) -> RepElement:
    return _basis(params, ETA1)


def eta2(params: GroupParams) -> RepElement:
    return _basis(params, ETA2)


def basis_elements(params: GroupParams):
    return [_basis(params, i) for i in range(params.basis_size)]


@lru_cache(maxsize=None)
def _d_terms(params: GroupParams, i: int) -> tuple:
    """d_i for any integer i, folded into [0, k] by d_(-i) = d_i = d_(m-i)
    and expanded over the basis: its pairs (index, 1).  Cached, so that the
    entries of R's table share their pairs."""
    r = i % params.m
    r = params.m - r if r > params.k else r
    if r == 0:
        return ((ONE, 1), (ETA1, 1))
    if r == params.k:
        return ((ETA2, 1), (ETA3, 1))
    return ((3 + r, 1),)


def canonical_d(params: GroupParams, i: int) -> RepElement:
    """d_i expanded over the basis, for any integer i."""
    out = [0] * params.basis_size
    for t, c in _d_terms(params, i):
        out[t] = c
    return RepElement(params, out)


def phi_element(params: GroupParams) -> RepElement:
    """The reduced class d_1 - 2, the main generator downstream."""
    return canonical_d(params, 1) - 2 * one(params)


def _basis_product(params: GroupParams, i: int, j: int) -> tuple:
    """The table entry of b_i * b_j for i <= j, from the rules in the module
    docstring.  The two terms d_(a+b) + d_(a-b) of d_a * d_b never share an
    index: their d-indices differ by 2b and sum to 2a, both in (0, m)."""
    if j <= 3:
        # one-dimensionals form Z2 x Z2; xor of indices is the product
        return ((i ^ j, 1),)
    if i in (ONE, ETA1):
        return ((j, 1),)
    if i <= 3:
        return _d_terms(params, params.k - (j - 3))
    di, dj = i - 3, j - 3
    return tuple(sorted(_d_terms(params, di + dj) + _d_terms(params, di - dj)))


@lru_cache(maxsize=None)
def _ring(n: int) -> Ring:
    params = GroupParams(n)
    table = partial(commutative_table, params.basis_size, partial(_basis_product, params))
    return Ring(f"R(Q_{params.group_order})", params, basis_labels(params), table)


# ---------------------------------------------------------------------------
# character-table oracle
#
# conjugacy classes, in the frozen order [e], [x^k], [x^1], ..., [x^(k-1)],
# [y], [xy], with sizes 1, 1, 2, ..., 2, k, k.
# ---------------------------------------------------------------------------

def class_sizes(params: GroupParams):
    return [1, 1] + [2] * (params.k - 1) + [params.k, params.k]


@lru_cache(maxsize=None)
def _character_table(n: int):
    """The irreducible characters, aligned with the RepElement basis order,
    as ``(values, ids, conj)``: ``values`` holds each distinct Z[zeta] value
    of the table once, ``ids[i][g]`` is the index of chi_i on class g, and
    ``conj[x]`` that of the complex conjugate of ``values[x]``.

    d_i on the class of x^r is zeta^(ir) + zeta^(-ir), built once for each
    exponent ir mod 2k; there are k + 3 distinct values in all.
    """
    from .intmath import CyclotomicInt  # order, table and consistency never load it

    k = GroupParams(n).k
    root = partial(CyclotomicInt.root_power, k)
    values, index = [], {}

    def intern(value):
        if value not in index:
            index[value] = len(values)
            values.append(value)
        return index[value]

    one, minus, zero = (intern(CyclotomicInt.from_int(k, v)) for v in (1, -1, 0))
    d = [intern(root(e) + root(-e)) for e in range(2 * k)]
    powers = (0, k, *range(1, k))  # x^r for the classes [e], [x^k], [x^1], ...
    signs = tuple(minus if r % 2 else one for r in powers)
    ids = (
        (one,) * (k + 3),
        (one,) * (k + 1) + (minus, minus),
        # eta2(y) = +1, eta3(y) = -1 is a free choice; swapping the two is a
        # ring automorphism, and the structure-constant oracle certifies it.
        signs + (one, minus),
        signs + (minus, one),
        *(tuple(d[i * r % (2 * k)] for r in powers) + (zero, zero) for i in range(1, k)),
    )
    # closed by a loop: the conjugate of a value may be a new value
    conj = []
    while len(conj) < len(values):
        conj.append(intern(values[len(conj)].conj()))
    return tuple(values), ids, tuple(conj)


def _product_terms(values):
    """``terms[x][y]``: the nonzero terms (e, c) of values[x] * values[y].

    Every ordered pair of values is formed once, by ``CyclotomicInt``'s own
    multiplication with values[x] on the left, with no class scan: nearly
    every pair meets on some class (66,437 of the 67,081 at n = 10).
    """
    return [[tuple((e, c) for e, c in enumerate((x * y).coeffs) if c) for y in values]
            for x in values]


def verify_structure_constants(params: GroupParams) -> Report:
    """Compare relation-driven products against the character oracle.

    For every ordered pair of basis elements, the character of the product
    given by the fold rules must equal the pointwise product of the two
    exact characters, whose Z[zeta] arithmetic never uses those rules.  A
    virtual representation is determined by its character once the
    character table is invertible (Serre, Linear Representations of Finite
    Groups, 2.3), and ``verify_orthogonality``, in the same ``oracle``
    suite, proves that; so this certificate needs no inner products.  A
    failing pair names the table's product.

    Class by class, sum over t of N_ij^t * chi_t(g), read off the entry of
    b_i * b_j in R's table with no product taken, is compared with the
    product chi_i(g) * chi_j(g) that ``_product_terms`` forms.  Each Z[zeta]
    value is compared as one integer, sum of c * 2^(B*e) over its terms
    c * zeta^e; the encoding is linear, so the left side is the same
    combination of the encoded character values.  The width B is read off
    R's table and the products formed (``_code_width``), so that every
    coefficient on either side lies strictly between -2^(B-1) and 2^(B-1),
    where two encodings are equal only if the coefficient vectors are.
    Each ordered pair of the distinct values is multiplied once: 4,489
    products serve the 300,763 class comparisons at n = 8.  Only their
    codes are kept; dropping the term table once it is encoded lowers the
    peak at n = 10 from 61 to 52 MB.
    """
    values, ids, _ = _character_table(params.n)
    products = _product_terms(values)
    width = _code_width(params, values, products)

    def code(terms):
        return sum(c << (width * e) for e, c in terms)

    value_codes = [code(enumerate(value.coeffs)) for value in values]
    codes = [[value_codes[x] for x in chi] for chi in ids]
    pointwise = [[code(terms) for terms in row] for row in products]
    del products
    labels = basis_labels(params)
    checks = []
    for i, row in enumerate(_ring(params.n).table):
        by_class = [pointwise[x] for x in ids[i]]
        for j, entry in enumerate(row):
            combined = [0] * len(by_class)
            for t, c in entry:
                combined = [s + c * v for s, v in zip(combined, codes[t])]
            ok = combined == [p[y] for p, y in zip(by_class, ids[j])]
            checks.append(Check(f"{labels[i]}*{labels[j]}", ok, "" if ok else
                                f"table gives {_basis(params, i) * _basis(params, j)}"))
    return Report(f"structure constants, n={params.n}", tuple(checks))


def _code_width(params: GroupParams, values, products) -> int:
    """Bit width B of the integer code of a Z[zeta] value in
    ``verify_structure_constants``.

    A coefficient of sum over t of N_ij^t * chi_t(g) is at most S * M in
    size, where S is the largest sum of |N_ij^t| over an entry of R's table
    (b_i * b_j is that entry) and M the largest character coefficient.  A
    coefficient of chi_i(g) * chi_j(g) is a term of one of the products of
    ``_product_terms``, which holds every pair of values, so the largest of
    those bounds that side, and a Z[zeta] table that inflates a product
    widens the codes with it.  B is 1 + the bit length of the larger bound.
    """
    s = max(sum(abs(c) for _, c in entry) for row in _ring(params.n).table for entry in row)
    m = max(abs(c) for value in values for c in value.coeffs)
    p = max((abs(c) for row in products for terms in row for _, c in terms), default=0)
    return max(s * m, p).bit_length() + 1


def verify_orthogonality(params: GroupParams) -> Report:
    """<chi_i, chi_j> = delta_ij over the full character table.

    Each entry sums |g| * chi_i(g) * conj(chi_j(g)) into one k-long integer
    vector, over the terms of the products of ``_product_terms``, read by
    value id as ``terms[x][conj[y]]``, so chi_i(g) is on the left of each.
    The vector must be a rational integer, a multiple of |G|: a pair whose
    sum has a nonzero zeta^e term (e >= 1) fails with that Z[zeta] value,
    and one whose integer is not a multiple of |G| fails with the fraction.
    Only then is the quotient compared with delta_ij.
    """
    values, ids, conj = _character_table(params.n)
    terms = _product_terms(values)
    sizes = class_sizes(params)
    order = params.group_order
    labels = basis_labels(params)
    checks = []
    for i, f in enumerate(ids):
        for j, g in enumerate(ids):
            total = [0] * params.k
            for size, x, y in zip(sizes, f, g):
                for e, c in terms[x][conj[y]]:
                    total[e] += size * c
            q, r = divmod(total[0], order)
            if any(total[1:]):
                ok, detail = False, f"{values[0]._new(total)} is not a rational integer"
            elif r:
                ok, detail = False, (f"inner product {total[0]}/{order} is not an integer; "
                                     "the class function is not a virtual character")
            else:
                ok, detail = q == (1 if i == j else 0), f"value {q}"
            checks.append(Check(f"<{labels[i]},{labels[j]}>", ok, detail))
    return Report(f"character orthogonality, n={params.n}", tuple(checks))
