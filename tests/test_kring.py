import itertools
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkring import cli, kring, lens
from qkring.adams import g_poly
from qkring.freemodule import Element, fp_format
from qkring.kring import (apply_rule_once, basis_change_matrix, fp_mul,
                          minimality_certificates, mono_name,
                          nf_basis_labels, reduce, relation,
                          relations_for, rewrite, verify_embedding,
                          verify_local_confluence, verify_minimality_witness,
                          verify_relation3_redundant, verify_relations_in_R)
from qkring.repring import GroupParams, RepElement, eta1, eta2, one, phi_element

import reference
from reference import embed_to_R, nf_basis, to_fp

V1, V2, PHI = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def ke(n, c0=0, v1=0, v2=0, phi=()):
    """The element of K's ring with these coefficients on 1, v1, v2, phi, ..."""
    k = GroupParams(n).k
    phi = tuple(phi) + (0,) * (k - len(phi))
    return Element(kring._ring(n), (c0, v1, v2) + phi)


def test_relation_right_sides():
    r3 = relations_for(3)
    assert dict(relation(r3, "relation6").rhs) == {
        (0, 0, 2): 1, PHI: 4, V1: -2, V2: -2}
    r4 = relations_for(4)
    assert dict(relation(r4, "relation6").rhs) == {
        (0, 0, 4): 1, (0, 0, 3): 8, (0, 0, 2): 20, PHI: 16, V2: -2}
    for n in (3, 4, 5, 6):
        assert dict(relation(relations_for(n), "relation4").rhs) == {V1: -2}
    # relation 5 for n=4: psi^3(phi) - phi - 2*v2
    assert dict(relation(r4, "relation5").rhs) == {
        (0, 0, 3): 1, (0, 0, 2): 6, PHI: 8, V2: -2}


def test_reduce_examples():
    assert reduce({(1, 1, 0): 1}, 3) == to_fp(ke(3, v1=-2, v2=-2, phi=(4, 1)))
    for n in (3, 4, 5):
        assert reduce({(1, 0, 1): 1}, n) == to_fp(ke(n, v1=-2))
    # phi^3 at k=2 falls back through g_4 = phi^3 + 6*phi^2 + 8*phi
    assert reduce({(0, 0, 3): 1}, 3) == to_fp(ke(3, phi=(-8, -6)))
    assert reduce({}, 3) == {}


def test_reduce_idempotent_on_normal_forms():
    pairs = [(a, b) for a in nf_basis(4) for b in nf_basis(4)]
    for a, b in pairs:
        nf = to_fp(a * b)
        assert reduce(nf, 4) == nf


@settings(max_examples=30)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_reduce_idempotent_random(n, data):
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 6))
    fp = data.draw(st.dictionaries(monos, st.integers(-5, 5), max_size=5))
    nf = reduce(fp, n)
    assert reduce(nf, n) == nf


def test_dropped_rule_names_its_stuck_monomial(monkeypatch, capsys):
    # without relation 2, v2^2 is stuck: reduce names it, and verify exits 2
    true_relations = kring.relations_for
    monkeypatch.setattr(kring, "relations_for", lambda n: tuple(
        r for r in true_relations(n) if r.label != "relation2"))
    with pytest.raises(ArithmeticError, match=r"^stuck monomial v2\^2 survived reduction$"):
        reduce({(0, 2, 0): 1}, 3)
    for n in (3, 4, 5):
        assert cli.main(["verify", "--n", str(n), "--suite", "confluence"]) == 2
        assert capsys.readouterr().err == "error: stuck monomial v2^2 survived reduction\n"


def _formal_polynomials(k):
    """Formal polynomials with v-degrees <= 2 and phi-degree <= k + 2."""
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, k + 2))
    return st.dictionaries(monos, st.integers(-9, 9).filter(bool), max_size=5)


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=50)
@given(data=st.data())
def test_reduce_of_a_product_is_the_table_product(n, data):
    # reducing a formal product agrees with K's table contracting the two
    # reduced factors, for whole polynomials and not only basis pairs
    k = GroupParams(n).k
    f, g = (data.draw(_formal_polynomials(k)) for _ in range(2))

    def element(fp):
        return Element(kring._ring(n), kring._coefficients(reduce(fp, n), k, "{}"))

    assert reduce(fp_mul(f, g), n) == to_fp(element(f) * element(g))


def test_nf_product_examples():
    assert nf_basis(4)[2] * nf_basis(4)[3] == ke(4, v2=-2, phi=(8, 6, 1))
    assert nf_basis(3)[1] * nf_basis(3)[1] == ke(3, v1=-2)
    for b in nf_basis(5):
        assert nf_basis(5)[0] * b == b


def test_kelement_operators():
    a = ke(3, c0=1, v1=2, phi=(3, 0))
    assert a + a == 2 * a
    assert a - a == ke(3)
    assert -a == -1 * a
    assert a * nf_basis(3)[0] == a
    with pytest.raises(ValueError):
        a + ke(4)


def test_embed_examples():
    p3 = GroupParams(3)
    one_k, v1_k, _, _, phi2_k = nf_basis(3)
    assert embed_to_R(v1_k) == eta1(p3) - one(p3)
    assert embed_to_R(one_k) == one(p3)
    phi2 = embed_to_R(phi2_k)
    assert phi2 == RepElement(p3, (5, 1, 1, 1, -4))
    assert phi2 == phi_element(p3) * phi_element(p3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_embedding_commutes_with_product(n):
    basis = nf_basis(n)
    images = [embed_to_R(b) for b in basis]
    for a, ia in zip(basis, images):
        for b, ib in zip(basis, images):
            assert embed_to_R(a * b) == ia * ib


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_embedding_square_matches_all_pairs_reference(n):
    # verify_embedding contracts K's table entries with the basis-change
    # rows; the reference embeds the K product of every ordered pair
    report = verify_embedding(n)
    assert len(report.checks) == 1 + GroupParams(n).basis_size ** 2
    assert report == reference.embedding_square_reference(n)


@pytest.fixture
def refuse_k_elements(monkeypatch):
    """Building an element of K's ring, by constructor or by arithmetic, raises."""
    true_init, true_new = Element.__init__, Element._new

    def refuse(ring):
        if ring.name.startswith("K("):
            raise AssertionError(f"an element of {ring.name} was built")

    def init(self, ring, coeffs):
        refuse(ring)
        true_init(self, ring, coeffs)

    def new(self, coeffs):
        refuse(self.ring)
        return true_new(self, coeffs)

    monkeypatch.setattr(Element, "__init__", init)
    monkeypatch.setattr(Element, "_new", new)


def test_embedding_square_forms_no_k_product(refuse_k_elements):
    for n in range(3, 9):
        assert verify_embedding(n).all_passed, n


def test_running_code_builds_no_k_element(refuse_k_elements):
    # K's normal forms are formal polynomials: every suite and the basis
    # change run without an element of K's ring
    for n in range(3, 7):
        assert cli._run_suite(n, "all").all_passed, n
        assert basis_change_matrix(n)[1], n


@settings(max_examples=40)
@given(st.sampled_from([3, 4, 5, 6]), st.data())
def test_embedding_is_the_basis_change_matrix(n, data):
    # the Substitution evaluates a whole normal form; it must still be the
    # coefficient vector times the rows of basis_change_matrix
    size = GroupParams(n).basis_size
    x = Element(kring._ring(n),
                data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)))
    rows, _ = basis_change_matrix(n)
    expected = [sum(c * row[s] for c, row in zip(x.coeffs, rows)) for s in range(size)]
    assert embed_to_R(x) == RepElement(GroupParams(n), expected)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_monomial_is_the_literal_product(n):
    params = GroupParams(n)
    unit = one(params)
    v1, v2, phi = eta1(params) - unit, eta2(params) - unit, phi_element(params)
    sub = kring._embedding(n)
    for mono in kring._monomials(0, 4):
        a, b, c = mono
        assert sub.monomial(mono) == v1 ** a * v2 ** b * phi ** c
        assert sub.of_formal({mono: -3}) == -3 * sub.monomial(mono)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_chain_is_powers_of_phi(n):
    params = GroupParams(n)
    phi = phi_element(params)
    for e in range(2 * params.k + 1):
        assert kring._embedding(n).power(2, e) == phi ** e


@pytest.mark.parametrize("sub,ring", [(lambda: kring._embedding(3), "R(Q_8)"),
                                      (lambda: kring._embedding(4), "R(Q_16)"),
                                      (lambda: lens._substitution(2), "Z[eta]/(eta^4 - 1)")],
                         ids=["embedding-n3", "embedding-n4", "lens-k2"])
def test_substitution_rejects_negative_powers(sub, ring):
    # a warm cache must not answer a negative exponent with a positive power
    sub = sub()
    sub.power(2, 3)
    message = f"negative powers are not defined in {re.escape(ring)}"
    for var in range(3):
        with pytest.raises(ValueError, match=message):
            sub.power(var, -1)
    for mono in [(0, 0, -1), (0, -2, 0), (1, 0, -2)]:
        with pytest.raises(ValueError, match=message):
            sub.monomial(mono)
        with pytest.raises(ValueError, match=message):
            sub.of_formal({mono: 1})


@pytest.mark.parametrize("n,size", [(3, 5), (4, 7), (6, 19)])
def test_basis_change_unimodular(n, size):
    matrix, unimodular = basis_change_matrix(n)
    assert len(matrix) == size and all(len(row) == size for row in matrix)
    assert unimodular


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relations_in_R(n):
    report = verify_relations_in_R(n)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert "relation3" in names
    if n >= 4:
        assert any(name.startswith(f"d_{GroupParams(n).k} - d_0") for name in names)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_each_relation_is_one_rule(n):
    rules = relations_for(n)
    k = GroupParams(n).k
    assert rules is relations_for(n)
    assert kring.PRESENTATION == (
        "relation1", "relation2", "relation4", "relation5", "relation6")
    assert [r.label for r in rules] == [
        "relation4", "relation1", "relation5", "relation2", "relation6", "relation3"]
    # the K table finds each rule by its pattern
    assert len({r.pattern for r in rules}) == len(rules)
    assert rules[-1] is relation(rules, "relation3")
    assert rules[-1].pattern == (0, 0, k + 1)
    # moved to one side, the phi^(k+1) rule is g_{2k}(phi) exactly
    assert rules[-1].difference() == g_poly(k)
    assert str(relation(rules, "relation4")) == "v1*phi = -2*v1"


def test_relations_in_R_check_count():
    # 5 presentation relations + relation3 + odd-i identities (+ d_k - d_0)
    assert len(verify_relations_in_R(3).checks) == 7
    assert len(verify_relations_in_R(4).checks) == 9


@pytest.mark.parametrize("n", [3, 4, 7])
def test_relation3_redundant(n):
    assert verify_relation3_redundant(n).all_passed


def test_relation3_certificate_uses_neither_rewrite_nor_reduce(monkeypatch):
    # the certificate is an identity of formal products, not a reduction
    def refuse(*args):
        raise AssertionError("the redundancy certificate rewrote")

    monkeypatch.setattr(kring, "rewrite", refuse)
    monkeypatch.setattr(kring, "reduce", refuse)
    for n in range(3, 12):
        assert verify_relation3_redundant(n).all_passed, n


def four_rules(rules):
    """Relations 1, 2, 4 and 5 of ``rules``, in their priority order."""
    labels = ("relation1", "relation2", "relation4", "relation5")
    return tuple(r for r in rules if r.label in labels)


def test_redundancy_lands_on_minus_g():
    # the reduced product is exactly -g_{2k}, with no phi^(k+1) rule used
    rules = relations_for(4)
    diff = relation(rules, "relation6").difference()
    prod = fp_mul({PHI: 1, (0, 0, 0): 2}, diff)
    red = rewrite(prod, four_rules(rules))
    assert red == {m: -c for m, c in g_poly(4).items()}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_minimality(n):
    assert verify_minimality_witness(n).all_passed


def test_minimality_specific_witnesses():
    # (D, e) of the least certificate: outside I_others + m^(D+1) + 2^e
    for n in range(3, 9):
        expected = {"relation1": (2, 1), "relation2": (2, 1), "relation4": (2, 1),
                    "relation5": (2, 1) if n == 3 else (1, n),
                    "relation6": (1, 3) if n == 3 else (2, 1)}
        certificates = minimality_certificates(n)
        assert {label: (c.degree, c.exponent)
                for label, c in certificates.items()} == expected, n
    # at D = 1 relation 5 leaves k*(2-k)*phi, of 2-adic valuation n-1 (n >= 4)
    assert minimality_certificates(4)["relation5"].residue == {PHI: 8}
    check = verify_minimality_witness(3).checks[0]
    assert check.passed
    assert check.detail.startswith("relation1: D=2, e=1, residue v1^2; ")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_local_confluence(n):
    report = verify_local_confluence(n)
    assert report.all_passed
    assert len(report.checks) == 7


@pytest.mark.parametrize("n", range(3, 12))
def test_critical_monomials_are_the_overlaps_of_the_rules(n):
    # two first rewrites can differ only where two patterns overlap, at
    # their lcm; patterns with no variable in common give no critical pair
    patterns = [rule.pattern for rule in relations_for(n)]
    overlaps = {tuple(map(max, p, q)) for p, q in itertools.combinations(patterns, 2)
                if any(x and y for x, y in zip(p, q))}
    critical = kring.critical_monomials(GroupParams(n).k)
    assert len(set(critical)) == len(critical)
    assert set(critical) == overlaps


def _rewrite_inputs(n: int):
    """The first rewrite of each critical monomial by each applicable rule,
    then 50 seeded random formal polynomials of up to 6 terms with v1 and
    v2 exponents <= 3 and phi exponents <= k + 2."""
    k = GroupParams(n).k
    for mono in kring.critical_monomials(k):
        for rule in relations_for(n):
            if rule.applies_to(mono):
                yield apply_rule_once(mono, rule)
    rng = random.Random(n)
    for _ in range(50):
        yield {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, k + 2)):
               rng.randint(-9, 9) for _ in range(rng.randint(1, 6))}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rewrite_matches_the_resorting_reference(n):
    # the heap pops the monomial that re-sorting the working set picks
    rules = relations_for(n)
    for expr in _rewrite_inputs(n):
        for rs in (rules, four_rules(rules)):
            assert rewrite(expr, rs) == reference.rewrite(expr, rs), (expr, len(rs))


def test_rewrite_matches_the_reference_when_a_rule_raises_the_measure():
    # phi -> v1 raises the number of v-factors but still terminates: each
    # product pops next, and the stuck v1^2 comes back to the result
    rules = (kring.Rule("raise", PHI, ((V1, 1),)),)
    expr = {(2, 0, 0): 1, (1, 0, 1): 1, (0, 0, 2): 3, (0, 1, 1): -1, (0, 2, 0): 1}
    assert rewrite(expr, rules) == reference.rewrite(expr, rules) == {
        (2, 0, 0): 5, (1, 1, 0): -1, (0, 2, 0): 1}
    for expr in _rewrite_inputs(3):
        assert rewrite(expr, rules) == reference.rewrite(expr, rules), expr


def test_apply_rule_once():
    rule1 = relation(relations_for(3), "relation1")
    assert apply_rule_once((2, 1, 0), rule1) == {(1, 1, 0): -2}
    with pytest.raises(ValueError):
        apply_rule_once((0, 1, 0), rule1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_apply_rule_once_matches_the_termwise_reference(n):
    # every rule at every monomial of total degree <= k + 3 it applies to
    bound = GroupParams(n).k + 3
    monos = [(a, b, c) for a in range(bound + 1) for b in range(bound + 1 - a)
             for c in range(bound + 1 - a - b)]
    for rule in relations_for(n):
        for mono in filter(rule.applies_to, monos):
            assert apply_rule_once(mono, rule) == reference.apply_rule_once(mono, rule), \
                (mono, rule.label)


def test_linear_relation_consequence():
    # 4k*phi = f(phi)*phi^2 with f integral: equivalently g reduces to zero
    for n in (3, 4, 5):
        k = GroupParams(n).k
        g = g_poly(k)
        f = {j - 2: -g[0, 0, j] for j in range(2, k + 2)}  # -(g - 4k phi)/phi^2
        fp = {PHI: 4 * k}
        for e, c in f.items():
            fp[(0, 0, e + 2)] = fp.get((0, 0, e + 2), 0) - c
        assert reduce(fp, n) == {}
        assert reduce(g, n) == {}


@pytest.mark.parametrize("n", [3, 4])
def test_verify_embedding_report(n):
    report = verify_embedding(n)
    assert report.all_passed
    size = GroupParams(n).basis_size
    assert len(report.checks) == 1 + size * size


def test_str_and_labels():
    assert fp_format(to_fp(ke(3, c0=1, v1=-2, phi=(0, 3)))) == "3*phi^2 - 2*v1 + 1"
    assert mono_name((1, 2, 3)) == "v1*v2^2*phi^3"
    assert mono_name((0, 0, 0)) == "1"
    assert nf_basis_labels(3) == ["1", "v1", "v2", "phi", "phi^2"]
    for n in range(3, 11):
        phi_powers = [f"phi^{j}" for j in range(2, GroupParams(n).k + 1)]
        assert nf_basis_labels(n) == ["1", "v1", "v2", "phi"] + phi_powers


def test_import_builds_no_ring():
    code = ("import qkring\nfrom qkring import intmath, kring, lens, repring\n"
            "print([m._ring.cache_info().currsize for m in (intmath, kring, lens, repring)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0]"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_k_table_matches_the_rewriter(n):
    # the table comes from the phi operator; the rewriter is the independent
    # route to each basis product
    monos = kring._basis_monos(GroupParams(n).k)
    table = kring._table(n)
    for i, a in enumerate(monos):
        for j in range(i, len(monos)):
            mono = tuple(x + y for x, y in zip(a, monos[j]))
            normal = reduce({mono: 1}, n)
            expected = tuple((t, normal[m]) for t, m in enumerate(monos) if m in normal)
            assert table[i][j] == table[j][i] == expected, (i, j)


def test_k_table_built_on_first_product_only():
    kring._ring.cache_clear()
    ring = kring._ring(5)
    basis_change_matrix(5)
    verify_relations_in_R(5)
    verify_local_confluence(5)
    assert "table" not in vars(ring)
    _, v1, v2, *_ = nf_basis(5)
    assert to_fp(v1 * v2) == reduce({(1, 1, 0): 1}, 5)
    assert "table" in vars(ring)
