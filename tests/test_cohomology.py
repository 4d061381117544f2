import pytest

from qkring.cohomology import CohGroup, h_group, predicted_reduced_order
from qkring.truncation import consistency_report


def test_table_values():
    assert h_group(4, 4) == CohGroup((16,))
    assert h_group(6, 2) == CohGroup((2, 2))
    assert h_group(6, 16) == CohGroup((2, 2))
    assert h_group(5, 2) == CohGroup(())
    assert h_group(0, 2) == CohGroup((0,))


def test_periodicity():
    for k in (2, 4, 8):
        for p in range(2, 41):
            assert h_group(p, k) == h_group(p + 4, k)


def test_group_order_and_str():
    assert CohGroup((2, 2)).order() == 4
    assert CohGroup((0,)).order() is None
    assert CohGroup(()).order() == 1
    assert str(CohGroup((2, 2))) == "Z_2 + Z_2"
    assert str(CohGroup((8,))) == "Z_8"
    assert str(CohGroup((0,))) == "Z"
    assert str(CohGroup(())) == "0"
    with pytest.raises(ValueError):
        CohGroup((-1,))


def test_factors_from_a_generator_are_kept():
    # the check must not use up the argument before it is stored
    assert CohGroup(f for f in (2, 2)) == CohGroup((2, 2))
    with pytest.raises(ValueError):
        CohGroup(iter([2, -1]))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        h_group(-1, 2)
    with pytest.raises(ValueError):
        h_group(4, 1)
    with pytest.raises(ValueError):
        predicted_reduced_order(-1, 2)


def test_predicted_reduced_order():
    assert predicted_reduced_order(0, 2) == 4
    assert predicted_reduced_order(1, 2) == 128  # 4 * 8 * 4
    for k in (2, 4, 8, 16):
        assert predicted_reduced_order(0, k) == 4


def test_predicted_closed_form():
    for k in (2, 4, 8):
        for N in range(4):
            assert predicted_reduced_order(N, k) == 4 ** (N + 1) * (4 * k) ** N


@pytest.mark.parametrize("n,N", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0)])
def test_consistency_phi_order_matches(n, N):
    report = consistency_report(n, N)
    assert report.phi_match
    assert report.phi_expected == 2 ** (n + 2 * N)


def test_consistency_torsion_is_the_product_through_degree_4N_plus_6():
    # R/phi^(N+2) R is K^0(S^(4N+7)/Q_{4k}), whose reduced part has the order
    # of the cohomology product through degree 4N+6
    report = consistency_report(3, 0)
    assert report.torsion == 128
    assert report.predicted == predicted_reduced_order(1, 2) == 128
    assert report.torsion_match and report.passed
    assert report.lines()[2] == "cohomology product through degree 6: 128, match: yes"


@pytest.mark.parametrize("n", range(3, 8))
def test_consistency_torsion_matches_on_every_N(n):
    for N in range(8):
        report = consistency_report(n, N)
        assert report.torsion == report.predicted == 2 ** (2 * (N + 2) + n * (N + 1)), N
        assert report.passed


def test_consistency_report_output():
    report = consistency_report(3, 0)
    lines = report.lines()
    assert any("order(phi)" in line and "match: yes" in line for line in lines)
    data = report.to_json()
    assert data["phi_order"] == "2^3"
    assert data["phi_match"] is True
    assert data["torsion"] == "128"
