"""The structure-constant tables are checked, not trusted.

One coefficient, off by one, is planted in a test-only copy of a ring's
table; the certifier of that ring must catch it.
"""

import pytest

from qkring import kring, lens, repring
from qkring.repring import GroupParams


@pytest.fixture
def plant(monkeypatch):
    """plant(ring, i, j) adds 1 to the first coefficient of b_i * b_j (but
    not of b_j * b_i) in a copy of the ring's table.  Every cache that may
    hold products made with the copy is cleared afterwards."""
    def _plant(ring, i, j):
        table = [list(row) for row in ring.table]
        (t, c), *rest = table[i][j]
        table[i][j] = ((t, c + 1), *rest)
        monkeypatch.setitem(vars(ring), "table", table)

    yield _plant
    for cache in (repring._ring, kring._ring, kring._embedding, lens._ring):
        cache.cache_clear()


@pytest.mark.parametrize("i,j", [(0, 0), (4, 2), (4, 4)])
def test_rep_table_defect_fails_at_that_pair(plant, i, j):
    params = GroupParams(3)
    plant(repring._ring(3), i, j)
    labels = repring.basis_labels(params)
    failures = repring.verify_structure_constants(params).failures()
    assert [c.name for c in failures] == [f"{labels[i]}*{labels[j]}"]


@pytest.mark.parametrize("i,j", [(1, 2), (3, 4)])
def test_k_table_defect_fails_at_that_pair(plant, i, j):
    plant(kring._ring(3), i, j)
    labels = kring.nf_basis_labels(3)
    failures = kring.verify_embedding(3).failures()
    assert [c.name for c in failures] == [f"embed({labels[i]}*{labels[j]})"]


def test_lens_table_defect_fails_restriction(plant):
    plant(lens._ring(2), 1, 1)
    assert not lens.verify_restriction_hom(3)
