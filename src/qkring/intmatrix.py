"""Exact integer matrices: Smith normal form with transforms, determinants.

All matrices are dense lists of lists of Python ints, at most (k+3) x (k+3)
with k <= 256 from the CLI.  Smallest-pivot elimination does not bound the
size of the transforms: on the n=6 truncation lattice, whose entries have
11 to 23 bits, entries of U reach 679,148 bits at N=10.  ROADMAP open item 2
plans modular arithmetic instead.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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


def determinant(A) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
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
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                M[i][j] = (M[i][j] * M[t][t] - M[i][t] * M[t][j]) // prev
            M[i][t] = 0
        prev = M[t][t]
    return sign * M[n - 1][n - 1]


@dataclass
class SmithForm:
    """U * M * V = D with U, V unimodular and D diagonal with d_1 | d_2 | ..."""

    D: list
    U: list
    V: list

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0])))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def verify(self, M) -> bool:
        if mat_mul(mat_mul(self.U, M), self.V) != self.D:
            return False
        if abs(determinant(self.U)) != 1 or abs(determinant(self.V)) != 1:
            return False
        diag = self.diagonal
        if any(d < 0 for d in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        # off-diagonal entries must vanish
        for i, row in enumerate(self.D):
            for j, v in enumerate(row):
                if i != j and v != 0:
                    return False
        return True


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
