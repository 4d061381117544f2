"""The structure-constant tables and the rules are checked, not trusted.

A defect is planted in a test-only copy: one coefficient, off by one, of a
ring's table or of the multiplication-by-phi operator, or a changed rule.
The certifier concerned must catch it and name its witness.
"""

import functools
import itertools
import json
import re

import pytest

from qkring import adams, cli, intmath, kring, lens, repring, truncation
from qkring.freemodule import fp_sum
from qkring.repring import GroupParams
from reference import (ClassFunction, character_of, character_table, embedding_square_reference,
                       inner_product, pointwise)


def clear_caches():
    """Clears every cache that may hold a planted table or products made
    with one."""
    for cache in (repring._ring, kring._ring, kring._embedding, lens._ring, intmath._ring,
                  repring._character_table):
        cache.cache_clear()


@pytest.fixture
def fresh_caches():
    yield
    clear_caches()


@pytest.fixture
def plant(monkeypatch, fresh_caches):
    """plant(ring, i, j) adds 1 to the first coefficient of b_i * b_j (but
    not of b_j * b_i) in a copy of the ring's table."""
    def _plant(ring, i, j):
        table = [list(row) for row in ring.table]
        (t, c), *rest = table[i][j]
        table[i][j] = ((t, c + 1), *rest)
        monkeypatch.setitem(vars(ring), "table", table)

    return _plant


def patch_relations(monkeypatch, n, label, rhs):
    """Make ``relations_for(n)``, as kring and lens read it, return the true
    rules with the right side of rule ``label`` replaced by ``rhs``."""
    true_relations = kring.relations_for
    planted = tuple(rule.replace(rhs=rhs) if rule.label == label else rule
                    for rule in true_relations(n))
    for module in (kring, lens):
        monkeypatch.setattr(module, "relations_for",
                            lambda m: planted if m == n else true_relations(m))


@pytest.mark.parametrize("i,j", [(0, 0), (4, 2), (4, 4)])
def test_rep_table_defect_fails_at_that_pair(plant, i, j):
    params = GroupParams(3)
    plant(repring._ring(3), i, j)
    labels = repring.basis_labels(params)
    failures = repring.verify_structure_constants(params).failures()
    assert [c.name for c in failures] == [f"{labels[i]}*{labels[j]}"]


def one_sided_mutants(table):
    """Every copy of a ring's table with 1 added to the coefficient of b_t
    in b_i * b_j, but not in b_j * b_i: pairs ((i, j, t), copy)."""
    for i, j, t in itertools.product(range(len(table)), repeat=3):
        entry = dict(table[i][j])
        entry[t] = entry.get(t, 0) + 1
        mutant = [list(row) for row in table]
        mutant[i][j] = tuple(sorted((s, c) for s, c in entry.items() if c))
        yield (i, j, t), mutant


@pytest.mark.parametrize("n,count", [(3, 125), (4, 343)])
def test_every_one_sided_rep_table_defect_fails_at_that_pair(
        monkeypatch, fresh_caches, n, count):
    params = GroupParams(n)
    labels = repring.basis_labels(params)
    ring = repring._ring(n)
    mutants = list(one_sided_mutants(ring.table))
    assert len(mutants) == count
    for (i, j, _), table in mutants:
        monkeypatch.setitem(vars(ring), "table", table)
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


@pytest.mark.parametrize("n,count", [(3, 125), (4, 343)])
def test_every_one_sided_k_table_defect_fails_at_that_pair(
        monkeypatch, fresh_caches, n, count):
    labels = kring.nf_basis_labels(n)
    ring = kring._ring(n)
    mutants = list(one_sided_mutants(ring.table))
    assert len(mutants) == count
    for (i, j, _), table in mutants:
        monkeypatch.setitem(vars(ring), "table", table)
        failures = kring.verify_embedding(n).failures()
        assert [c.name for c in failures] == [f"embed({labels[i]}*{labels[j]})"]
        assert failures[0].witness.startswith("K gives ")


def test_emptied_k_table_entry_embeds_to_zero(monkeypatch, fresh_caches):
    ring = kring._ring(3)
    table = [list(row) for row in ring.table]
    table[1][2] = ()
    monkeypatch.setitem(vars(ring), "table", table)
    assert [(c.name, c.witness) for c in kring.verify_embedding(3).failures()] == [
        ("embed(v1*v2)", "K gives 0; coefficient of 1: 0 embedded, 1 in R")]


@pytest.mark.parametrize("ring,n,i,j", [(kring._ring, 3, 1, 2), (repring._ring, 4, 6, 4)],
                         ids=["K", "R"])
def test_planted_embedding_report_matches_all_pairs_reference(plant, ring, n, i, j):
    # the images, and so both sides, are built after the planted table
    clear_caches()
    plant(ring(n), i, j)
    report = kring.verify_embedding(n)
    assert not report.all_passed
    assert report == embedding_square_reference(n)


def test_k_table_defect_fails_at_a_power_chain_pair(plant, capsys):
    # (4, 5) is phi^2*phi^3 at n=4, whose R side is read off the power chain
    # of phi's image; b_5 * b_4 keeps the true entry
    plant(kring._ring(4), 4, 5)
    name, detail = "embed(phi^2*phi^3)", (
        "K gives -10*phi^4 - 34*phi^3 - 44*phi^2 - 15*phi; "
        "coefficient of 1: -144 embedded, -142 in R")
    failures = kring.verify_embedding(4).failures()
    assert [(c.name, c.witness) for c in failures] == [(name, detail)]
    assert cli.main(["verify", "--n", "4", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c for c in checks if not c["passed"]] == [
        {"name": name, "passed": False, "detail": detail}]


def test_rep_table_defect_read_by_the_power_chain_fails_the_oracle(plant, capsys):
    # At n=4, phi^3 has a d_3 term, so phi^4 = phi^3 * phi reads d_3*d_1.
    # Both sides of embed(phi^2*phi^2) come from that chain, so the square
    # alone cannot see the entry: it rests on the associativity that the
    # structure constants of the same suite certify, and they name the pair.
    kring._embedding.cache_clear()
    true_phi4 = kring._embedding(4).power(2, 4)
    kring._embedding.cache_clear()
    plant(repring._ring(4), 6, 4)
    assert cli.main(["verify", "--n", "4", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert kring._embedding(4).power(2, 4) != true_phi4
    by_name = {c["name"]: c for c in checks}
    assert by_name["embed(phi^2*phi^2)"]["passed"]
    assert [c for c in checks if not c["passed"] and not c["name"].startswith("embed(")] == [
        {"name": "d_3*d_1", "passed": False, "detail": "table gives 2*eta2 + eta3 + d_2"}]


def test_rep_table_defect_off_the_square_fails_only_its_pair(plant, capsys):
    # d_1*eta3 at n=3; eta3*d_1 keeps the true entry.  The square's R side
    # multiplies images of v1, v2 and phi only, and none of its products puts
    # a d_1 term on the left of an eta3 term, so the square passes: the pair
    # rests on the commutativity and associativity that the structure
    # constants of the same suite certify, and they name it.
    kring._embedding.cache_clear()
    plant(repring._ring(3), 4, 3)
    assert kring.verify_embedding(3).all_passed
    assert cli.main(["verify", "--n", "3", "--suite", "oracle", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c for c in checks if not c["passed"]] == [
        {"name": "d_1*eta3", "passed": False, "detail": "table gives 2*d_1"}]


# phi operator column 1 is phi*v1 = -2*v1 (relation 4); column 4 at k = 2 is
# phi*phi^2 = -8*phi - 6*phi^2 (the phi^3 rule), used by phi^3 and phi^4
@pytest.mark.parametrize("column,names", [
    (1, ["v1*phi", "v1*phi^2", "phi*v1", "phi^2*v1"]),
    (4, ["phi*phi^2", "phi^2*phi", "phi^2*phi^2"])])
def test_phi_operator_defect_fails_embedding(monkeypatch, fresh_caches, column, names):
    true_operator = kring._phi_operator

    def planted(*args):
        columns = list(true_operator(*args))
        (t, c), *rest = columns[column]
        columns[column] = ((t, c + 1), *rest)
        return columns

    monkeypatch.setattr(kring, "_phi_operator", planted)
    kring._ring.cache_clear()
    failures = kring.verify_embedding(3).failures()
    assert [c.name for c in failures] == [f"embed({name})" for name in names]
    assert all(c.witness.startswith("K gives ") for c in failures)


def test_k_table_rejects_a_right_side_outside_the_basis(monkeypatch):
    patch_relations(monkeypatch, 3, "relation5", (((1, 1, 0), 1),))
    with pytest.raises(ArithmeticError,
                       match=r"right side of relation5 leaves the normal-form basis at v1\*v2"):
        kring._table(3)


def test_appended_relation3_fails_minimality(monkeypatch, capsys):
    monkeypatch.setattr(kring, "PRESENTATION", kring.PRESENTATION + ("relation3",))
    detail = "no certificate with D <= 3, e <= 6 for relation3"
    report = kring.verify_minimality_witness(4)
    assert report.checks[0].witness == detail
    assert not report.all_passed
    assert cli.main(["verify", "--n", "4", "--suite", "minimality", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": "each presentation relation is necessary", "passed": False,
                       "detail": detail}]


def assert_changed_relation_fails_redundancy(monkeypatch, capsys, n, label, rhs, detail):
    """Relation ``label`` planted with right side ``rhs`` at n: the identity
    leaves a residue, and the library and ``verify`` show ``detail``."""
    true_identity = kring.verify_relation3_redundant(n).checks[0].detail
    patch_relations(monkeypatch, n, label, rhs)
    report = kring.verify_relation3_redundant(n)
    assert report.checks[0].detail == detail != true_identity
    assert not report.all_passed
    assert cli.main(["verify", "--n", str(n), "--suite", "redundancy", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": "relation3 redundant via relations 1,2,4,5", "passed": False,
                       "detail": detail}]


def test_changed_relation4_fails_redundancy(monkeypatch, capsys):
    # relation 4 planted as v1*phi = -3*v1 adds v1 to r4, times its cofactor -v2 - 2
    assert_changed_relation_fails_redundancy(
        monkeypatch, capsys, 3, "relation4", (((1, 0, 0), -3),),
        "(phi + 2)*r6 + (-v2 - 2)*r4 + (-2)*r5 + g_4 = -v1*v2 - 2*v1")


def test_changed_relation5_fails_redundancy(monkeypatch, capsys):
    # relation 5 planted with -3*v2 for -2*v2 adds v2 to r5, times its cofactor -2
    assert_changed_relation_fails_redundancy(
        monkeypatch, capsys, 4, "relation5",
        (((0, 0, 1), 8), ((0, 0, 2), 6), ((0, 0, 3), 1), ((0, 1, 0), -3)),
        "(phi + 2)*r6 + (-v2)*r4 + (-2)*r5 + g_8 = -2*v2")


def test_confluence_defect_names_the_differing_normal_forms(monkeypatch, capsys):
    # relation 1 planted as v1^2 = -3*v1: v1^2*v2 then reduces two ways
    patch_relations(monkeypatch, 3, "relation1", (((1, 0, 0), -3),))
    detail = ("relation1 gives -3*phi^2 - 12*phi + 6*v1 + 6*v2, "
              "relation6 gives -2*phi^2 - 8*phi + 6*v1 + 4*v2")
    failures = kring.verify_local_confluence(3).failures()
    assert [(c.name, c.witness) for c in failures] == [("v1^2*v2", detail)]
    assert cli.main(["verify", "--n", "3", "--suite", "confluence", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c for c in checks if not c["passed"]] == [
        {"name": "v1^2*v2", "passed": False, "detail": detail}]


def test_one_planted_rule_reaches_every_reader(monkeypatch, fresh_caches):
    # relation 5 planted with -v2 for -2*v2: the vanishing certifiers, the
    # redundancy identity, the rewriter and the K table all read that rule
    clear_caches()
    rhs5 = dict(kring.relation(kring.relations_for(4), "relation5").rhs)
    patch_relations(monkeypatch, 4, "relation5", tuple(sorted({**rhs5, (0, 1, 0): -1}.items())))
    failures = {certify.__name__: certify(4).failures() for certify in (
        kring.verify_relations_in_R, kring.verify_relation3_redundant,
        kring.verify_local_confluence, kring.verify_embedding, lens.verify_relations_vanish)}
    assert {name: len(checks) for name, checks in failures.items()} == {
        "verify_relations_in_R": 1, "verify_relation3_redundant": 1,
        "verify_local_confluence": 4, "verify_embedding": 8, "verify_relations_vanish": 1}
    for name in ("verify_relations_in_R", "verify_relations_vanish"):
        assert [c.name for c in failures[name]] == ["relation5"]


RULE_CERTIFIERS = (kring.verify_relations_in_R, kring.verify_embedding,
                   kring.verify_local_confluence, lens.verify_relations_vanish,
                   kring.verify_relation3_redundant, kring.verify_minimality_witness)


@pytest.mark.parametrize("n,count,caught", [
    (3, 30, {"verify_relations_in_R": 30, "verify_embedding": 30,
             "verify_local_confluence": 28, "verify_relations_vanish": 24,
             "verify_relation3_redundant": 13, "verify_minimality_witness": 8}),
    (4, 42, {"verify_relations_in_R": 42, "verify_embedding": 42,
             "verify_local_confluence": 41, "verify_relations_vanish": 36,
             "verify_relation3_redundant": 20, "verify_minimality_witness": 7})])
def test_every_rule_right_side_defect_is_caught(monkeypatch, fresh_caches, n, count, caught):
    # 1 added to the coefficient of one normal-form basis monomial on one
    # rule's right side.  The minimality certificate refuses a presentation
    # relation with a constant term (one mutant each of relations 1, 2, 4, 5
    # and 6) rather than report on it; those raises are not counted as failures.
    mutants = []
    for rule in kring.relations_for(n):
        for mono in kring._basis_monos(GroupParams(n).k):
            rhs = dict(rule.rhs)
            rhs[mono] = rhs.get(mono, 0) + 1
            mutants.append((rule.label, tuple(sorted((m, c) for m, c in rhs.items() if c))))
    assert len(mutants) == count
    failing = dict.fromkeys(caught, 0)
    raises = 0
    for label, rhs in mutants:
        kring._ring.cache_clear()
        with monkeypatch.context() as patch:  # each mutant starts from the true rules
            patch_relations(patch, n, label, rhs)
            for certify in RULE_CERTIFIERS:
                if (certify is kring.verify_minimality_witness
                        and label in kring.PRESENTATION and (0, 0, 0) in dict(rhs)):
                    with pytest.raises(ArithmeticError,
                                       match=f"^{label} has a nonzero constant term$"):
                        certify(n)
                    raises += 1
                else:
                    failing[certify.__name__] += not certify(n).all_passed
    assert failing == caught
    assert raises == len(kring.PRESENTATION)


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
    assert not lens.verify_restriction_hom(3).all_passed


def test_lens_table_defect_names_the_restriction_pair(plant, capsys):
    # restrict(d_1) = eta + eta^3, so d_1*d_1 is the first basis pair whose
    # lens-side product uses eta * eta
    plant(lens._ring(2), 1, 1)
    detail = ("d_1*d_1: restrict(a*b) = 2 + 2*eta^2, "
              "restrict(a)*restrict(b) = 2 + 3*eta^2")
    assert lens.verify_restriction_hom(3).checks[0].witness == detail
    assert cli.main(["verify", "--n", "3", "--suite", "restriction", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0] == {"name": "restrict is a ring homomorphism", "passed": False,
                         "detail": detail}


@pytest.mark.parametrize("n,count,vanish", [(3, 64, 56), (4, 512, 208)])
def test_every_one_sided_lens_table_defect_fails_restriction(
        monkeypatch, fresh_caches, n, count, vanish):
    ring = lens._ring(GroupParams(n).k)
    mutants = list(one_sided_mutants(ring.table))
    assert len(mutants) == count
    caught = 0
    for _, table in mutants:
        monkeypatch.setitem(vars(ring), "table", table)
        assert not lens.verify_restriction_hom(n).all_passed
        caught += not lens.verify_relations_vanish(n).all_passed
    assert caught == vanish


def test_restriction_random_trial_is_named(monkeypatch):
    # basis products have coefficients of at most 2, so a restriction that is
    # wrong only on large coefficients passes every basis pair
    true_restrict = lens.restrict

    def planted(r):
        image = true_restrict(r)
        return image + lens.lens_one(r.params.k) if max(map(abs, r.coeffs)) > 20 else image

    monkeypatch.setattr(lens, "restrict", planted)
    report = lens.verify_restriction_hom(3, seed=1)
    witness = report.checks[0].witness
    assert re.fullmatch(r"random trial 0 \(a = .+, b = .+\): restrict\(a\*b\) = .+, "
                        r"restrict\(a\)\*restrict\(b\) = .+", witness), witness
    assert not report.all_passed


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


# k = 16: d_2*d_6 = d_8 + d_4 and eta2*d_4 = d_12, each planted on one side only
@pytest.mark.parametrize("i,j", [(5, 9), (2, 7)])
def test_rep_table_defect_fails_at_that_pair_n6(plant, i, j):
    params = GroupParams(6)
    plant(repring._ring(6), i, j)
    labels = repring.basis_labels(params)
    failures = repring.verify_structure_constants(params).failures()
    assert [(c.name, c.witness) for c in failures] == [
        (f"{labels[i]}*{labels[j]}",
         f"table gives {repring.basis_elements(params)[i] * repring.basis_elements(params)[j]}")]


def dense_gram_checks(table):
    """(passed, detail) of every ordered Gram entry, by the dense inner_product."""
    out = []
    for i, f in enumerate(table):
        for j, g in enumerate(table):
            try:
                value = inner_product(f, g)
                out.append((value == (1 if i == j else 0), f"value {value}"))
            except ValueError as exc:
                out.append((False, str(exc)))
    return out


# zeta * zeta^3 = zeta^4 at k = 16, planted on that side only.  The 16 failing
# pairs are not closed under transposition, so a Gram matrix taken as
# Hermitian, or products taken in the other order, would be caught.
def test_cyclotomic_defect_fails_orthogonality_n6(plant):
    params = GroupParams(6)
    plant(intmath._ring(16), 1, 3)
    table = character_table(params)
    checks = repring.verify_orthogonality(params).checks
    assert [(c.passed, c.detail) for c in checks] == dense_gram_checks(table)
    failures = [c for c in checks if not c.passed]
    names = [c.name for c in failures]
    assert len(names) == 16 and "<d_1,d_3>" in names and "<d_3,d_1>" not in names
    assert all(c.witness for c in failures)
    # the structure constants multiply chi_i(g) * chi_j(g) in that order too
    basis = repring.basis_elements(params)
    verdicts = [character_of(a * b) == pointwise(fa, fb)
                for a, fa in zip(basis, table) for b, fb in zip(basis, table)]
    checks = repring.verify_structure_constants(params).checks
    assert [c.passed for c in checks] == verdicts and not all(verdicts)


def test_structure_verdicts_hold_when_a_defect_matches_the_true_code_width(
        monkeypatch, fresh_caches):
    # zeta * zeta planted as 2^B * zeta at k = 4: at the width B that the true
    # tables give, its code equals that of zeta^2, so the codes must widen
    # with the Z[zeta] table for the verdicts to stay the dense reference's
    params = GroupParams(4)
    values, ids, _ = repring._character_table(4)
    width = repring._code_width(params, values, repring._product_terms(values, ids, ids))
    ring = intmath._ring(4)
    table = [list(row) for row in ring.table]
    assert table[1][1] == ((2, 1),)
    table[1][1] = ((1, 2 ** width),)
    monkeypatch.setitem(vars(ring), "table", table)
    characters = character_table(params)
    basis = repring.basis_elements(params)
    verdicts = [character_of(a * b) == pointwise(fa, fb)
                for a, fa in zip(basis, characters) for b, fb in zip(basis, characters)]
    checks = repring.verify_structure_constants(params).checks
    assert [c.passed for c in checks] == verdicts and not all(verdicts)


# caught by structure constants, by orthogonality, by structure constants
# alone, and by neither.  At k = 4 the 28 caught by neither are the entries
# in row or column 2, which no character product reads: no k = 4 character
# value has a zeta^2 term.
@pytest.mark.parametrize("n,counts", [(3, (2, 2, 0, 6)), (4, (36, 20, 16, 28))])
def test_every_one_sided_cyclotomic_defect_matches_the_dense_reference(
        monkeypatch, fresh_caches, n, counts):
    params = GroupParams(n)
    caught, unread = [], []
    for (i, j, _), table in one_sided_mutants(intmath._ring(params.k).table):
        clear_caches()
        monkeypatch.setitem(vars(intmath._ring(params.k)), "table", table)
        characters = character_table(params)
        orthogonality = [(c.passed, c.detail) for c in repring.verify_orthogonality(params).checks]
        assert orthogonality == dense_gram_checks(characters)
        basis = repring.basis_elements(params)
        verdicts = [character_of(a * b) == pointwise(fa, fb)
                    for a, fa in zip(basis, characters) for b, fb in zip(basis, characters)]
        assert [c.passed for c in repring.verify_structure_constants(params).checks] == verdicts
        structure, gram = not all(verdicts), not all(passed for passed, _ in orthogonality)
        caught.append((structure, gram))
        if not (structure or gram):
            unread.append((i, j))
    assert (sum(s for s, _ in caught), sum(g for _, g in caught),
            sum(s and not g for s, g in caught), len(unread)) == counts
    if n == 4:
        assert all(2 in pair for pair in unread)


# ring, pair (i, j) with a nonzero product, constructor from coefficients
ONE_SIDED = {
    "R": (lambda: repring._ring(4), (4, 5), lambda cs: repring.RepElement(GroupParams(4), cs)),
    "K": (lambda: kring._ring(4), (3, 4), lambda cs: kring.KElement(4, cs)),
    "lens": (lambda: lens._ring(4), (1, 2), lambda cs: lens.LensElement(4, cs)),
    "Z[zeta]": (lambda: intmath._ring(8), (1, 2), lambda cs: intmath.CyclotomicInt(8, cs)),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_one_sided_table_defect_breaks_commutativity(plant, name):
    ring, (i, j), make = ONE_SIDED[name]
    rank = len(ring().labels)
    b_i, b_j = (make(tuple(int(t == s) for t in range(rank))) for s in (i, j))
    assert b_i * b_j == b_j * b_i
    plant(ring(), i, j)
    assert b_i * b_j != b_j * b_i
    assert (b_i * b_j - b_j * b_i).coeffs[ring().table[i][j][0][0]] == 1


def test_non_real_character_value_gives_conjugate_witnesses(monkeypatch, fresh_caches):
    # d_1 on the class of x is z - z^3 at k = 4; planted as z, it is not
    # real, so <d_1, chi> and <chi, d_1> have conjugate totals: each ordered
    # pair must be summed on its own.  z and its conjugate -z^3 are new
    # values of the table, each the other's conjugate.
    params = GroupParams(4)
    true_table = repring._character_table
    values, ids, conj = true_table(4)
    z = intmath.CyclotomicInt.root_power(4, 1)
    x = len(values)
    ids = list(ids)
    ids[4] = ids[4][:2] + (x,) + ids[4][3:]
    planted = values + (z, z.conj()), tuple(ids), conj + (x + 1, x)
    monkeypatch.setattr(repring, "_character_table",
                        functools.lru_cache(lambda n: planted if n == 4 else true_table(n)))
    checks = repring.verify_orthogonality(params).checks
    table = [ClassFunction(params, tuple(planted[0][y] for y in chi)) for chi in planted[1]]
    true = character_table(params)
    assert [(i, g) for i, chi in enumerate(table) for g, v in enumerate(chi.values)
            if v != true[i].values[g]] == [(4, 2)] and table[4].values[2] == z
    assert [(c.passed, c.detail) for c in checks] == dense_gram_checks(table)
    by_name = {c.name: c.witness for c in checks}
    assert by_name["<d_1,eta1>"] == "2*z^3 is not a rational integer"
    assert by_name["<eta1,d_1>"] == "-2*z is not a rational integer"


def test_doubled_lattice_row_fails_the_torsion_identity(monkeypatch, capsys):
    # phi^2 * d_2 planted as twice itself at n=4: the order of phi does not
    # change, so only the torsion identity sees the doubled lattice index
    true_basis = truncation.basis_elements
    monkeypatch.setattr(truncation, "basis_elements", lambda params: [
        2 * b if i == 5 else b for i, b in enumerate(true_basis(params))])
    report = truncation.consistency_report(4, 0)
    assert report.phi_match and not report.torsion_match
    assert cli.main(["consistency", "--n", "4", "--N", "0"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "reduced torsion of the truncation: 512",
        "cohomology product through degree 6: 256, match: NO"]
    assert cli.main(["consistency", "--n", "4", "--N", "0", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert (data["torsion"], data["cohomology_product"], data["torsion_match"]) == (
        "512", "256", False)


def _failed_checks(capsys, argv):
    """The failed checks of a CLI run that must exit 1, from its JSON output."""
    assert cli.main(argv + ["--format", "json"]) == 1
    return [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]


def test_perturbed_psi_oracle_names_the_first_differing_term(monkeypatch, capsys):
    true_oracles = adams.psi_oracles

    def planted():  # psi^3 planted with 10*phi for 9*phi
        for i, oracle in enumerate(true_oracles(), start=1):
            yield fp_sum(oracle, {(0, 0, 1): 1}) if i == 3 else oracle

    monkeypatch.setattr(adams, "psi_oracles", planted)
    assert _failed_checks(capsys, ["verify", "--n", "3", "--suite", "oracle"]) == [
        {"name": "psi_series = psi_oracles for i <= 5", "passed": False,
         "detail": "psi^3: series phi^3 + 6*phi^2 + 9*phi, oracle phi^3 + 6*phi^2 + 10*phi"}]


def test_changed_g_poly_shows_the_difference(monkeypatch, capsys):
    true_g = adams.g_poly
    monkeypatch.setattr(adams, "g_poly", lambda k: fp_sum(true_g(k), {(0, 0, 2): -3}))
    assert _failed_checks(capsys, ["verify", "--n", "3", "--suite", "oracle"]) == [
        {"name": "g_4 = psi^3 - psi^1", "passed": False,
         "detail": "g_4 - psi^3 + psi^1 = -3*phi^2"}]


def test_doubled_image_row_shows_the_determinant(monkeypatch, capsys):
    # the image of phi^2 planted as twice itself: |det| becomes 2
    true_embed = kring.embed_to_R
    phi2 = kring.nf_basis(3)[4]
    monkeypatch.setattr(kring, "embed_to_R", lambda elem: (
        2 * true_embed(elem) if elem == phi2 else true_embed(elem)))
    failures = _failed_checks(capsys, ["verify", "--n", "3", "--suite", "oracle"])
    assert failures[0] == {"name": "basis_change_unimodular", "passed": False,
                           "detail": "determinant -2"}
