"""Exact integer matrices: Smith normal form with transforms, determinants,
and Hermite bases modulo a multiple of the lattice index.

All matrices are dense lists of lists of Python ints, at most (k+3) x (k+3)
with k <= 256 from the CLI.  Smallest-pivot elimination does not bound the
size of the transforms by itself, so the truncation layer never factors a
raw lattice: it factors the reduced Hermite basis from ``hermite_basis_mod``,
whose above-diagonal entries lie below their column's pivot.  Over the whole
CLI grid (n <= 10, N <= 16) the entries of D, U and V then stay under 64 bits.
"""

from __future__ import annotations

from .report import Record


def identity_matrix(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def determinant(A) -> int:
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


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a > 0 and b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_basis_mod(rows, modulus: int):
    """Row Hermite basis of span(rows) + modulus * Z^m, m = len(rows[0]).

    The result is m x m and upper triangular with positive pivots, and each
    above-diagonal entry lies in [0, pivot of its column).  Columns not yet
    cleared are kept modulo ``modulus``, which is exact because every
    modulus * e_j lies in the lattice (Domich, Kannan and Trotter, Math. Oper.
    Res. 12 (1987); Cohen, GTM 138, 2.4).  When span(rows) has full rank and
    its index divides ``modulus``, the result is a basis of span(rows).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    m = len(rows[0])
    work = [[x % modulus for x in row] for row in rows]
    H = []
    for j in range(m):
        pivot = [0] * m
        pivot[j] = modulus
        for row in work:
            b = row[j]
            if not b:
                continue
            a = pivot[j]
            # unimodular [[x, y], [-b/g, a/g]] takes (a, b) in column j to (g, 0)
            g, x, y = _xgcd(a, b)
            a, b = a // g, b // g
            pivot[j:], row[j:] = (
                [g] + [(x * p + y * r) % modulus for p, r in zip(pivot[j + 1:], row[j + 1:])],
                [0] + [(a * r - b * p) % modulus for p, r in zip(pivot[j + 1:], row[j + 1:])])
        H.append(pivot)
    # bottom-up, so each row subtracts only rows that are already reduced
    for i in range(m - 2, -1, -1):
        for j in range(i + 1, m):
            q = H[i][j] // H[j][j]
            if q:
                H[i][j:] = [a - q * b for a, b in zip(H[i][j:], H[j][j:])]
    return H


class SmithForm(Record):
    """U * M * V = D with U, V unimodular and D diagonal with d_1 | d_2 | ...

    Unlike the other records it is mutable, and so unhashable.
    """

    __slots__ = ("D", "U", "V")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    @property
    def diagonal(self):
        return [row[i] for i, row in enumerate(self.D) if i < len(row)]


def smith_normal_form(M) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(r) != cols for r in M):
        raise ValueError("ragged matrix")
    A = [list(row) for row in M]
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        A[dst] = [a - q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the trailing block becomes the pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = A[i][j]
                if v and (piv is None or abs(v) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            if A[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(rows):
                if i != t and A[i][t]:
                    add_row(i, t, A[i][t] // A[t][t])
                    if A[i][t]:  # remainder becomes the new, smaller pivot
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(cols):
                if j != t and A[t][j]:
                    add_col(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry, so the diagonal chains
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if A[i][j] % A[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, -1)  # pull the offending row into the pivot row
        t += 1
    return SmithForm(A, U, V)
