"""Central elements: centrality, independence counts, reference relations."""

from math import comb

import pytest

from geoalg import braid, centers
from geoalg.dn_algebra import an_algebra, dnp_algebra
from geoalg.poly_core import E, ONE, ZERO, const


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_center_count(n):
    cs = centers.centers_Dn(n)
    assert len(cs.coefficients) == n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_centers_braid_invariant(n):
    cs = centers.centers_Dn(n)
    flags = centers.braid_invariance("D", cs.coefficients, n)
    assert all(flags), flags


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reduced_centers_match_the_undivided_determinant(n):
    # det M of the whole generating matrix, M = -(lam-1) Rhat
    # + (lam+1) Shat + (lam^2-1) Ahat - (lam - lam^-1) Ahat^T, equals
    # (lam-1)^(n-1) Q power by power, Q rebuilt from c_1..c_n
    lam = E("lam")
    m = braid.combination_matrix(n, ONE - lam, lam + ONE, lam * lam - ONE,
                                 E("lam", -1) - lam, braid.ghat_family(n))
    sign = (-1) ** (n + 1)
    q = {n + 1: ONE, -n: const(sign)}
    for i, c in enumerate(centers.centers_Dn(n).coefficients, 1):
        q[i], q[1 - i] = c, sign * c
    want = {}
    for j in range(n):  # the coefficient of lam^j in (lam-1)^(n-1)
        w = comb(n - 1, j) * (-1) ** (n - 1 - j)
        for k, c in q.items():
            want[k + j] = want.get(k + j, ZERO) + w * c
    assert {k: v for k, v in want.items() if v} == m.det_by_power("lam")


def test_rational_rank():
    assert centers.rational_rank([[1, 2], [2, 4]]) == 1
    assert centers.rational_rank([[1, 0], [0, 1]]) == 2
    assert centers.rational_rank([[0, 0]]) == 0
