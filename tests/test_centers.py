"""Central elements: centrality, independence counts, reference relations."""

import pytest

from geoalg import braid, centers
from geoalg.dn_algebra import an_algebra, dnp_algebra
from geoalg.poly_core import E


@pytest.mark.parametrize("n", [3, 4, 5])
def test_level0_centers_commute(n):
    rep = centers.centrality_report(an_algebra(n),
                                    centers.centers_An(n).coefficients)
    assert rep["ok"], rep["failures"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_level0_center_count(n):
    cs = centers.centers_An(n)
    assert len(cs.coefficients) == n // 2
    assert all(not c.is_zero() for c in cs.coefficients)


def test_level0_centers_braid_invariant():
    cs = centers.centers_An(4)
    flags = centers.braid_invariance("A", cs.coefficients, 4)
    assert all(flags), flags


def test_generating_polynomial_is_even():
    # det(lam A + lam^-1 A^T) lam^-n holds only even powers of lam
    n = 3
    a = braid.LambdaMatrix.generic(n, 0).mat
    m = a.scale(E("lam")) + a.transpose().scale(E("lam", -1))
    assert all((k - n) % 2 == 0 for k in m.det_by_power("lam"))


@pytest.mark.parametrize("n,p,rank", [(2, 2, 2), (3, 2, 3), (2, 3, 3)])
def test_periodic_center_independence(n, p, rank):
    cs = centers.centers_Dnp(n, p)
    assert cs.meta["count"] == rank
    assert max(cs.meta["jacobian_ranks"]) == rank


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2)])
def test_periodic_centrality(n, p):
    rep = centers.centrality_report(dnp_algebra(n, p),
                                    centers.centers_Dnp(n, p).coefficients)
    assert rep["ok"], rep["failures"]


def test_periodic_centers_braid_invariant():
    cs = centers.centers_Dnp(2, 2)
    flags = centers.braid_invariance("Dp", cs.coefficients, 2, p=2)
    assert all(flags), flags


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_center_count(n):
    cs = centers.centers_Dn(n)
    assert len(cs.coefficients) == n


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_centers_braid_invariant(n):
    cs = centers.centers_Dn(n)
    flags = centers.braid_invariance("D", cs.coefficients, n)
    assert all(flags), flags


@pytest.mark.parametrize("n", [2, 3])
def test_reference_relations(n):
    rep = centers.dn_relation_check(n)
    assert rep["ok"], rep["relations"]


def test_reference_invariance_profiles():
    assert centers.braid_invariance(
        "D", centers.corrected_d3_casimirs(), 3) == [True, True, True]
    assert centers.braid_invariance(
        "D", centers.printed_d3_casimirs(), 3) == [False, True, False]
    assert centers.braid_invariance(
        "D", centers.printed_d2_casimirs(), 2) == [True, True]


def test_rational_rank():
    assert centers.rational_rank([[1, 2], [2, 4]]) == 1
    assert centers.rational_rank([[1, 0], [0, 1]]) == 2
    assert centers.rational_rank([[0, 0]]) == 0
