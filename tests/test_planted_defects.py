"""The structure-constant tables are checked, not trusted.

One coefficient, off by one, is planted in a test-only copy of a ring's
table; the certifier of that ring must catch it.
"""

import json
import re

import pytest

from qkring import cli, intmath, kring, lens, repring
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
    for cache in (repring._ring, kring._ring, kring._embedding, kring._basis_columns,
                  lens._ring, lens._substitution, intmath._ring,
                  repring._character_table):
        cache.cache_clear()


@pytest.mark.parametrize("i,j", [(0, 0), (4, 2), (4, 4)])
def test_rep_table_defect_fails_at_that_pair(plant, i, j):
    params = GroupParams(3)
    plant(repring._ring(3), i, j)
    labels = repring.basis_labels(params)
    failures = repring.verify_structure_constants(params).failures()
    assert [c.name for c in failures] == [f"{labels[i]}*{labels[j]}"]


def test_rep_table_defect_witness_in_json(plant, capsys):
    plant(repring._ring(3), 4, 2)
    assert cli.main(["verify", "--n", "3", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    by_name = {c["name"]: c for c in checks}
    assert by_name["d_1*eta2"] == {"name": "d_1*eta2", "passed": False,
                                   "detail": "table gives 2*d_1"}
    assert by_name["eta2*d_1"] == {"name": "eta2*d_1", "passed": True}
    assert not any("detail" in c for c in checks if c["passed"])


@pytest.mark.parametrize("i,j,detail", [
    (1, 2, "K gives phi^2 + 4*phi - v1 - 2*v2; coefficient of 1: 0 embedded, 1 in R"),
    (3, 4, "K gives -6*phi^2 - 7*phi; coefficient of 1: -16 embedded, -14 in R")],
    ids=["1-2", "3-4"])
def test_k_table_defect_fails_at_that_pair(plant, capsys, i, j, detail):
    plant(kring._ring(3), i, j)
    labels = kring.nf_basis_labels(3)
    name = f"embed({labels[i]}*{labels[j]})"
    failures = kring.verify_embedding(3).failures()
    assert [c.name for c in failures] == [name]
    assert cli.main(["verify", "--n", "3", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c for c in checks if not c["passed"]] == [
        {"name": name, "passed": False, "detail": detail}]
    assert not any("detail" in c for c in checks if c["passed"])


@pytest.mark.parametrize("i,j,residues", [
    (1, 1, {"relation1": "1"}),
    (4, 4, {"relation6": "-1", "relation3": "d_1"})])
def test_rep_table_defect_leaves_relation_residue(plant, capsys, i, j, residues):
    plant(repring._ring(3), i, j)
    failures = kring.verify_relations_in_R(3).failures()
    assert {c.name: c.witness for c in failures} == residues
    assert cli.main(["verify", "--n", "3", "--suite", "relations", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["detail"] for c in checks if not c["passed"]} == residues


def test_lens_table_defect_fails_restriction(plant):
    plant(lens._ring(2), 1, 1)
    assert not lens.verify_restriction_hom(3)


def test_lens_table_defect_names_the_restriction_pair(plant, capsys):
    # restrict(d_1) = eta + eta^3, so d_1*d_1 is the first basis pair whose
    # lens-side product uses eta * eta
    plant(lens._ring(2), 1, 1)
    detail = ("d_1*d_1: restrict(a*b) = 2 + 2*eta^2, "
              "restrict(a)*restrict(b) = 2 + 3*eta^2")
    assert lens.restriction_hom_check(3).witness == detail
    assert cli.main(["verify", "--n", "3", "--suite", "restriction", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0] == {"name": "restrict is a ring homomorphism", "passed": False,
                         "detail": detail}


def test_restriction_random_trial_is_named(monkeypatch):
    # basis products have coefficients of at most 2, so a restriction that is
    # wrong only on large coefficients passes every basis pair
    true_restrict = lens.restrict

    def planted(r):
        image = true_restrict(r)
        return image + lens.lens_one(r.params.k) if max(map(abs, r.coeffs)) > 20 else image

    monkeypatch.setattr(lens, "restrict", planted)
    witness = lens.restriction_hom_check(3, trials=5, seed=1).witness
    assert re.fullmatch(r"random trial 0 \(a = .+, b = .+\): restrict\(a\*b\) = .+, "
                        r"restrict\(a\)\*restrict\(b\) = .+", witness), witness
    assert not lens.verify_restriction_hom(3, trials=5, seed=1)


# k = 2: entry (2, 2) is eta^2 * eta^2, used only by v2^2 = (eta^2 - 1)^2;
# entry (1, 1) is eta * eta, used by every power of w from w^2 on.
@pytest.mark.parametrize("i,j,residues", [
    (2, 2, {"relation2": "1"}),
    (1, 1, {"relation6": "-eta^2", "relation3": "eta + eta^3",
            "g_4(w) = 0": "eta + eta^3",
            "psi^2(w) = eta^2 + eta^-2 - 2": "eta^2",
            "psi^3(w) = eta^3 + eta^-3 - 2": "eta + eta^3",
            "psi^4(w) = eta^4 + eta^-4 - 2": "2 + 3*eta^2"})])
def test_lens_table_defect_leaves_relation_residue(plant, capsys, i, j, residues):
    plant(lens._ring(2), i, j)
    failures = lens.verify_relations_vanish(3).failures()
    assert {c.name: c.witness for c in failures} == residues
    assert cli.main(["verify", "--n", "3", "--suite", "restriction", "--format", "json"]) == 1
    hom, *checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["detail"] for c in checks if "detail" in c} == residues
    # the homomorphism check fails as well, at the first basis pair that
    # uses the planted entry
    assert hom["name"] == "restrict is a ring homomorphism" and not hom["passed"]
    assert hom["detail"].startswith({(2, 2): "eta2*eta2: ", (1, 1): "d_1*d_1: "}[i, j])


# (2, 2) is left out: no k = 4 character value has a zeta^2 term, so that
# entry is never used.
@pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (1, 3), (3, 3)])
def test_cyclotomic_table_defect_fails_orthogonality(plant, capsys, i, j):
    plant(intmath._ring(4), i, j)
    failures = repring.verify_orthogonality(GroupParams(4)).failures()
    assert failures and all(c.witness for c in failures)
    assert cli.main(["verify", "--n", "4", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all(c.get("detail") for c in checks if not c["passed"])


def test_cyclotomic_defect_witness_names_the_value(plant):
    plant(intmath._ring(4), 1, 3)
    failures = repring.verify_orthogonality(GroupParams(4)).failures()
    assert [(c.name, c.witness.split(";")[0]) for c in failures] == [
        ("<d_1,d_1>", "inner product 12/16 is not an integer"),
        ("<d_1,d_3>", "inner product 4/16 is not an integer"),
        ("<d_3,d_1>", "inner product 4/16 is not an integer"),
        ("<d_3,d_3>", "inner product 12/16 is not an integer")]
