"""Exact integer matrices: Bareiss determinants with deferred row scaling,
and Hermite bases modulo a multiple of the lattice index and Smith normal
forms with transforms, which both eliminate by the unimodular step
[[x, y], [-b/g, a/g]] from the extended gcd of a pivot a and an entry b
(Cohen, GTM 138, Algorithm 2.4.14).  Matrices are dense lists of lists of
Python ints, at most (k+3) x (k+3) with k <= 256 from the CLI.

Elimination does not bound the transforms by itself, so the truncation layer
never factors a raw lattice: it factors the reduced Hermite basis, whose
above-diagonal entries lie below their column's pivot.  Over the whole CLI
grid (n <= 10, N <= 16) the entries of D, U and V then stay under 64 bits.
"""

from __future__ import annotations

from math import gcd

from .report import Record


def identity_matrix(n: int):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def determinant(A) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Step t takes row i to (M[i] * p_t - M[i][t] * M[t]) / p_(t-1), with p_t
    the t-th pivot and p_(-1) = 1.  Where M[i][t] = 0 that only rescales the
    row, and over steps s..t-1 the rescalings telescope to p_(t-1) / p_(s-1).
    So a row is left as it is until its multiplier is nonzero, and then
    divided by p_(s-1) in place of p_(t-1), or until it is the pivot row, and
    then brought up by one exact division.  The 0 x 0 determinant is 1.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant requires a square matrix")
    M = [row[:] for row in A]
    owed = [1] * n  # before step t, Bareiss's row i is M[i] * p_(t-1) / owed[i]
    sign = prev = 1
    for t in range(n):
        if M[t][t] == 0:
            i = next((i for i in range(t + 1, n) if M[i][t]), None)
            if i is None:
                return 0
            M[t], M[i], owed[t], owed[i] = M[i], M[t], owed[i], owed[t]
            sign = -sign
        if owed[t] != prev:
            M[t] = [x * prev // owed[t] for x in M[t]]
        row, prev = M[t], M[t][t]
        for i in range(t + 1, n):
            m, d = M[i][t], owed[i]
            if m:
                M[i] = [(x * prev - m * y) // d for x, y in zip(M[i], row)]
                owed[i] = prev
    return sign * prev


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b >= 0, for a != 0.  When a
    divides b it is (|a|, +-1, 0), so that ``_step`` only clears b: for (1, 1)
    the Euclidean loop alone gives (0, 1), a step that swaps two rows."""
    if b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _step(a: int, b: int):
    """(x, y, c, d), the unimodular [[x, y], [-b/g, a/g]] taking (a, b) to (g, 0)."""
    g, x, y = _xgcd(a, b)
    return x, y, -b // g, a // g


def hermite_basis_mod(rows, modulus: int):
    """Row Hermite basis of span(rows) + modulus * Z^m, m = len(rows[0]).

    The result is m x m and upper triangular with positive pivots, and each
    above-diagonal entry lies in [0, pivot of its column).  Columns not yet
    cleared are kept modulo ``modulus``, which is exact because every
    modulus * e_j lies in the lattice (Domich, Kannan and Trotter, Math. Oper.
    Res. 12 (1987); Cohen, GTM 138, 2.4).  When span(rows) has full rank and
    its index divides ``modulus``, the result is a basis of span(rows).
    No rows, or rows of unequal lengths, raise ValueError.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("empty or ragged matrix")
    m = len(rows[0])
    work = [[x % modulus for x in row] for row in rows]
    H = []
    for j in range(m):
        pivot = [0] * m
        pivot[j] = modulus
        for row in work:
            if row[j]:
                x, y, c, d = _step(pivot[j], row[j])
                pivot[j:], row[j:] = (
                    [(x * p + y * r) % modulus for p, r in zip(pivot[j:], row[j:])],
                    [(c * p + d * r) % modulus for p, r in zip(pivot[j:], row[j:])])
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


def _mix(P, Q, x, y, c, d):
    """The rows x*P + y*Q and c*P + d*Q; P itself when (x, y) = (1, 0)."""
    first = P if x == 1 and y == 0 else [x * p + y * q for p, q in zip(P, Q)]
    return first, [c * p + d * q for p, q in zip(P, Q)]


def smith_normal_form(M) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column steps.

    For each t the smallest nonzero entry of the trailing block, the first in
    row-major order, becomes the pivot and is made positive.  Row steps clear
    its column and column steps its row until both stay clear; a pivot above
    1 that fails to divide an entry of a lower row takes that row into row t,
    and the clearing repeats."""
    rows, cols = len(M), len(M[0]) if M else 0
    if any(len(r) != cols for r in M):
        raise ValueError("ragged matrix")
    A = [list(row) for row in M]
    U = identity_matrix(rows)
    W = identity_matrix(cols)  # V transposed, so column steps act on its rows

    def row_step(i, step):
        A[t], A[i] = _mix(A[t], A[i], *step)
        U[t], U[i] = _mix(U[t], U[i], *step)

    for t in range(min(rows, cols)):
        least, i = 0, None
        for r in range(t, rows):  # rows t.. are zero left of column t
            m = min(map(abs, filter(None, A[r])), default=0)
            if m and (not least or m < least):
                least, i = m, r
                if m == 1:
                    break
        if i is None:
            break
        j = list(map(abs, A[i])).index(least)
        A[t], A[i], U[t], U[i] = A[i], A[t], U[i], U[t]
        for row in A[t:]:
            row[t], row[j] = row[j], row[t]
        W[t], W[j] = W[j], W[t]
        if A[t][t] < 0:
            A[t], U[t] = [-v for v in A[t]], [-v for v in U[t]]
        while True:
            for i in range(t + 1, rows):
                if A[i][t]:
                    row_step(i, _step(A[t][t], A[i][t]))
            for j in range(t + 1, cols):
                if A[t][j]:
                    x, y, c, d = step = _step(A[t][t], A[t][j])
                    # column t is clear below row t, so a step with y = 0 changes row t alone
                    for row in A[t:] if y else A[t:t + 1]:
                        row[t], row[j] = x * row[t] + y * row[j], c * row[t] + d * row[j]
                    W[t], W[j] = _mix(W[t], W[j], *step)
                    if y:  # the pivot fell, and column t may have filled again
                        break
            else:
                bad = None if A[t][t] == 1 else next(
                    (i for i in range(t + 1, rows) if gcd(*A[i]) % A[t][t]), None)
                if bad is None:
                    break
                row_step(bad, (1, 1, 0, 1))
    return SmithForm(A, U, [list(column) for column in zip(*W)])
