import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring import intmatrix
from qkring.intmatrix import (SmithForm, _xgcd, determinant, hermite_basis_mod,
                              identity_matrix, smith_normal_form)
from qkring.truncation import truncated_quotient
from reference import bareiss_determinant, mat_mul, smith_failure


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form(identity_matrix(4)).diagonal == [1, 1, 1, 1]
    assert smith_normal_form([[16, 0], [0, 0]]).diagonal == [16, 0]


def test_snf_verify_examples():
    for M in ([[2, 0], [0, 3]], [[12, 6, 4], [3, 9, 6], [2, 16, 14]],
              [[0, 0], [0, 0]], [[5]]):
        assert smith_failure(smith_normal_form(M), M) is None


def test_snf_known_value():
    snf = smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    assert snf.diagonal == [1, 10, 30]


def test_snf_rectangular():
    M = [[2, 4, 6], [4, 8, 12]]
    snf = smith_normal_form(M)
    assert smith_failure(snf, M) is None
    assert snf.diagonal == [2, 0]


def _matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


@settings(max_examples=200)
@given(st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(-10 ** 6, 10 ** 6))
def test_xgcd_bezout(a, b):
    g, x, y = _xgcd(a, b)
    assert g == math.gcd(a, b) >= 0
    assert x * a + y * b == g


@settings(max_examples=100)
@given(st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(-50, 50))
def test_xgcd_of_a_multiple_only_clears_it(a, q):
    # otherwise the step [[x, y], [-b/g, a/g]] may swap two rows, and an
    # elimination built on it never ends
    assert _xgcd(a, q * a) == (abs(a), 1 if a > 0 else -1, 0)


SEVEN_BY_FIVE = [[-2, -2, -1, -7, 0], [-9, 2, -5, 1, -4], [-5, 0, 0, -6, 0],
                 [0, 0, -3, -8, 0], [0, 0, 0, -3, 4], [-8, 0, 0, -7, 0], [4, 8, 8, 3, 0]]


def test_snf_ends_where_a_unit_pivot_divides_its_row():
    # an elimination whose _xgcd(1, 1) gave (x, y) = (0, 1) swapped two rows here
    snf = smith_normal_form(SEVEN_BY_FIVE)
    assert smith_failure(snf, SEVEN_BY_FIVE) is None
    assert snf.diagonal == [1, 1, 1, 2, 4]


def test_snf_clears_column_t_again_after_a_column_step_refills_it(monkeypatch):
    # pivot 2 does not divide 3, so the column step mixes columns 0 and 1
    # and puts 5 back under the pivot; a row step then clears it
    M = [[2, 3], [0, 5]]
    steps = []
    step = intmatrix._step
    monkeypatch.setattr(intmatrix, "_step", lambda a, b: steps.append((a, b)) or step(a, b))
    snf = smith_normal_form(M)
    assert steps[:2] == [(2, 3), (1, 5)]
    assert smith_failure(snf, M) is None
    assert snf.diagonal == [1, 10]


def test_snf_diagonal_matches_sympy_on_rectangular_matrices():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix
    cases = [SEVEN_BY_FIVE]
    rng = random.Random(1)
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.random()
        cases.append([[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
                      for _ in range(rows)])
    for M in cases:
        factors = normalforms.invariant_factors(Matrix(M), domain=ZZ)
        snf = smith_normal_form(M)
        assert [int(d) for d in factors] == snf.diagonal, M
        assert smith_failure(snf, M) is None, M


@settings(max_examples=40)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_random(rows, cols, data):
    M = data.draw(_matrices(rows, cols))
    snf = smith_normal_form(M)
    assert smith_failure(snf, M) is None


def test_empty_matrix_has_determinant_one():
    # the empty product
    assert determinant([]) == 1


def test_empty_matrix_has_an_empty_smith_form():
    snf = smith_normal_form([])
    assert snf.diagonal == []
    assert sum(1 for d in snf.diagonal if d != 0) == 0


def test_determinant_examples():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant(identity_matrix(5)) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 0, 0], [0, 0, 0], [0, 0, 3]]) == 0


# a row whose multiplier is 0 is left as it is, over however many new pivots,
# until its multiplier is nonzero or it becomes the pivot row
DEFERRED = [
    [[2, 1, 0], [0, 3, 1], [0, 0, 5]],  # new pivots: rows with 0 multipliers wait
    [[1, 4, 0], [0, 1, 7], [0, 0, 1]],  # equal pivots
    [[0, 2, 1], [3, 0, 0], [0, 0, 4]],  # a swap, then a new pivot
    [[1, 2, 0, 0], [0, 3, 0, 1], [0, 0, 3, 2], [1, 0, 0, 6]],
    # row 3 waits through pivots 2 and 6, then has multiplier 4 under 30
    [[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 5, 1], [0, 0, 4, 7]],
    # row 4 waits through four new pivots, then is the pivot row
    [[3, 1, 0, 0, 0], [0, 5, 2, 0, 0], [0, 0, 7, 1, 0], [0, 0, 0, 2, 9], [0, 0, 0, 0, 11]],
    # a row that waited is swapped in as the pivot row, then has to catch up
    [[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 0, 5], [0, 0, 4, 1]],
    # it waits, then a singular trailing block ends the elimination
    [[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 0, 5], [0, 0, 0, 7]],
]


def test_deferred_scaling_determinant_matches_the_bareiss_reference():
    for M in DEFERRED:
        assert determinant(M) == bareiss_determinant(M), M
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 9)
        M = [[rng.randint(-5, 5) if rng.random() < 0.3 else 0 for _ in range(n)]
             for _ in range(n)]
        assert determinant(M) == bareiss_determinant(M), M


@pytest.mark.parametrize("n,N", [(6, 4), (7, 3), (8, 2)])
def test_truncation_lattice_determinant_matches_the_bareiss_reference(n, N):
    # too large for sympy
    rows = truncated_quotient(n, N).lattice
    lattice = [list(r[1:]) for r in rows[1:]]
    assert determinant(lattice) == bareiss_determinant(lattice) != 0


def test_determinant_matches_sympy_on_sparse_matrices():
    sympy = pytest.importorskip("sympy")
    cases = list(DEFERRED)
    rng = random.Random(0)
    for _ in range(400):
        n = rng.randint(1, 7)
        cases.append([[rng.randint(-5, 5) if rng.random() < 0.4 else 0 for _ in range(n)]
                      for _ in range(n)])
    for M in cases:
        assert determinant(M) == sympy.Matrix(M).det(), M


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=40)
@given(st.integers(1, 4), st.data())
def test_determinant_vs_snf(n, data):
    M = data.draw(_matrices(n, n))
    d = determinant(M)
    prod = 1
    for x in smith_normal_form(M).diagonal:
        prod *= x
    assert abs(d) == prod


@settings(max_examples=30)
@given(st.integers(1, 4), st.data())
def test_determinant_multiplicative(n, data):
    A = data.draw(_matrices(n, n))
    B = data.draw(_matrices(n, n))
    assert determinant(mat_mul(A, B)) == determinant(A) * determinant(B)


M3 = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]


def test_snf_failure_is_none_on_a_valid_certificate():
    for M in (M3, [[2, 4, 6], [4, 8, 12]], [[0, 0], [0, 0]]):
        assert smith_failure(smith_normal_form(M), M) is None


def test_snf_doubled_diagonal_entry_is_named():
    snf = smith_normal_form(M3)
    snf.D[2][2] *= 2
    assert smith_failure(snf, M3) is not None
    assert smith_failure(snf, M3) == "(U*M*V)[2][2] = 30, D[2][2] = 60"


def test_snf_perturbed_v_entry_is_named():
    snf = smith_normal_form(M3)
    UMV = mat_mul(mat_mul(snf.U, M3), snf.V)
    snf.V[1][2] += 1
    perturbed = mat_mul(mat_mul(snf.U, M3), snf.V)
    i, j = next((i, j) for i in range(3) for j in range(3)
                if perturbed[i][j] != UMV[i][j])
    assert smith_failure(snf, M3) is not None
    assert smith_failure(snf, M3) == (f"(U*M*V)[{i}][{j}] = {perturbed[i][j]}, "
                               f"D[{i}][{j}] = {UMV[i][j]}")


def test_snf_failure_names_each_later_condition():
    # each certificate satisfies U*M*V = D and fails exactly one later condition
    I2 = identity_matrix(2)
    assert smith_failure(SmithForm([[2]], [[2]], [[1]]), [[1]]) == "det U = 2, not +-1"
    assert smith_failure(SmithForm([[-3]], [[1]], [[-3]]), [[1]]) == "det V = -3, not +-1"
    assert smith_failure(SmithForm([[-1]], [[1]], [[1]]), [[-1]]) == \
        "negative diagonal entry D[0][0] = -1"
    assert smith_failure(SmithForm([[2, 0], [0, 3]], I2, I2), [[2, 0], [0, 3]]) == \
        "D[0][0] = 2 does not divide D[1][1] = 3"
    assert smith_failure(SmithForm([[0, 0], [0, 1]], I2, I2), [[0, 0], [0, 1]]) == \
        "D[0][0] = 0 does not divide D[1][1] = 1"
    assert smith_failure(SmithForm([[1, 5], [0, 1]], I2, I2), [[1, 5], [0, 1]]) == \
        "nonzero off-diagonal entry D[0][1] = 5"


def test_snf_failure_names_a_shape_mismatch():
    snf = SmithForm([[1, 0]], [[1]], [[1]])
    assert smith_failure(snf, [[1]]) == "U*M*V and D have different shapes"


def _reduce_against(v, H):
    """Subtract integer multiples of the rows of the upper triangular H from
    v, column by column; the remainder is zero iff v lies in span(H)."""
    v = list(v)
    for j, row in enumerate(H):
        q, r = divmod(v[j], row[j])
        if r:
            return v
        v = [a - q * b for a, b in zip(v, row)]
    return v


def _assert_reduced_hermite(H, m):
    assert len(H) == m and all(len(row) == m for row in H)
    for i, row in enumerate(H):
        assert all(x == 0 for x in row[:i])
        assert row[i] > 0
        for j in range(i + 1, m):
            assert 0 <= row[j] < H[j][j]


def test_hermite_basis_mod_example():
    H = hermite_basis_mod(M3, abs(determinant(M3)))
    assert H == [[1, 23, 2], [0, 30, 0], [0, 0, 10]]
    _assert_reduced_hermite(H, 3)
    for row in M3:
        assert not any(_reduce_against(row, H))


def test_hermite_basis_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        hermite_basis_mod([[1]], 0)


# a longer later row, a shorter later row, and no rows at all; zip would drop
# the third column of the first case without a word
@pytest.mark.parametrize("rows", [[[3, 1], [1, 2, 3]], [[1, 2, 3], [3, 1]], []],
                         ids=["longer", "shorter", "empty"])
def test_hermite_basis_mod_rejects_empty_and_ragged_rows(rows):
    with pytest.raises(ValueError, match="empty or ragged matrix"):
        hermite_basis_mod(rows, 7)


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_hermite_basis_mod_random(m, factor, data):
    M = data.draw(_matrices(m, m).filter(lambda A: determinant(A) != 0))
    det = abs(determinant(M))
    H = hermite_basis_mod(M, factor * det)  # any multiple of the index works
    _assert_reduced_hermite(H, m)
    assert abs(determinant(H)) == det
    for row in M:
        assert not any(_reduce_against(row, H))
