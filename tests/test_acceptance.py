"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every identity here is exact integer arithmetic; there are no tolerances to
tune.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines, or execute this file directly.
"""

import json
import subprocess
import sys
import time

from qkring import adams, kring, lens, repring, truncation
from qkring.repring import GroupParams
from reference import psi_oracle


def _criterion(num, description, ok):
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_corollary_table():
    start = time.monotonic()
    cells = truncation.corollary2_table(6, 3)
    elapsed = time.monotonic() - start
    grid_ok = len(cells) == 16 and all(
        c.order == 2 ** (c.n + 2 * c.N) for c in cells)
    result = subprocess.run(
        [sys.executable, "-m", "qkring", "table", "--n-max", "6", "--N-max", "3",
         "--format", "json"], capture_output=True, text=True)
    cli_ok = result.returncode == 0 and json.loads(result.stdout)["all_match"]
    _criterion(1, f"order(phi) = 2^(n+2N) on all 16 cells in {elapsed:.2f}s",
               grid_ok and cli_ok and elapsed < 10.0)


def test_criterion_02_proposition_order_4k():
    ok = True
    for n in range(3, 7):
        params = GroupParams(n)
        q = truncation.truncated_quotient(n, 0)
        size_ok = (len(q.lattice) == params.basis_size
                   and all(len(r) == params.basis_size for r in q.lattice))
        order = truncation.order_of(repring.phi_element(params), q)
        ok = ok and size_ok and order == 4 * params.k
    _criterion(2, "order(phi) in R/phi^2 R is 4k via SNF of (k+3)^2 matrices, n=3..6", ok)


def test_criterion_03_relations_embed_to_zero():
    ok = all(kring.verify_relations_in_R(n).all_passed for n in range(3, 9))
    _criterion(3, "relations 1-6, g_{2k}(phi)=0, odd psi identities embed to 0, n=3..8", ok)


def test_criterion_04_relation3_redundant():
    ok = all(kring.verify_relation3_redundant(n).all_passed for n in range(3, 9))
    _criterion(4, "(phi+2)*(relation 6) reduced by relations 1,2,4,5 gives relation 3, n=3..8", ok)


def test_criterion_05_adams_oracle():
    series_ok = all(adams.psi_series(i) == psi_oracle(i)
                    for i in range(1, 101))
    g_ok = all(adams.verify_oracles(k).all_passed for k in (2, 4, 8, 16, 32, 64))
    _criterion(5, "psi series = Chebyshev oracle for i<=100; g = psi^(k+1)-psi^(k-1), k<=64",
               series_ok and g_ok)


def test_criterion_06_two_adic_jump():
    def nu_2(c):  # largest e with 2^e | c, c nonzero
        return (c & -c).bit_length() - 1

    ok = True
    for n in range(3, 9):
        g = adams.g_poly(2 ** (n - 2))
        ok = ok and nu_2(g[0, 0, 1]) == n
        ok = ok and nu_2(g[0, 0, 2]) == n - 2
    _criterion(6, "nu_2(linear coeff of g) = n and nu_2(quadratic coeff) = n-2, n=3..8", ok)


def test_criterion_07_structure_constant_oracle():
    ok = True
    for n in range(3, 7):
        params = GroupParams(n)
        ok = ok and repring.verify_structure_constants(params).all_passed
        ok = ok and repring.verify_orthogonality(params).all_passed
    _criterion(7, "rewriting product = character-oracle product on all basis pairs, n=3..6", ok)


def test_criterion_08_presentation_certificate():
    ok = True
    for n in range(3, 7):
        ok = ok and kring.verify_embedding(n).all_passed
        ok = ok and kring.verify_local_confluence(n).all_passed
    _criterion(8, "unimodular basis change, commuting square, local confluence, n=3..6", ok)


def test_criterion_09_restriction():
    ok = True
    for n in range(3, 7):
        ok = ok and lens.verify_restriction_hom(n).all_passed
        ok = ok and lens.verify_relations_vanish(n).all_passed
    _criterion(9, "restriction homomorphism and vanishing relations in the lens ring, n=3..6", ok)


def test_criterion_10_consistency_reports():
    ok = True
    for n in range(3, 7):
        for N in range(2):
            report = truncation.consistency_report(n, N)
            ok = ok and report.phi_match and report.torsion_match
            print(f"  consistency (n={n}, N={N}): torsion {report.torsion} vs "
                  f"cohomology product through degree {4 * N + 6} {report.predicted} "
                  f"({'match' if report.torsion_match else 'MISMATCH'})")
    _criterion(10, "exact-identity suites plus the order identities of the truncated "
                   "rings in place of the completed ring", ok)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(exc)
    sys.exit(1 if failures else 0)
