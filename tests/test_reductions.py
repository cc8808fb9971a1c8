"""Folding the graded algebra onto the periodic one: reduction streams."""

import pytest

from geoalg import reductions as red
from geoalg.poly_core import E, ONE, ZERO


def test_level_zero_map():
    r = red.dn_reduce(0)
    assert (r.c_rhat, r.c_shat, r.c_ahat, r.c_ahat_t) == (
        ZERO, ZERO, ONE, ZERO)


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        red.dn_reduce(-1)


def test_coefficient_streams_at_unity():
    # at h = 1 the streams collapse to integer sequences: rho_k = k,
    # sigma_k = k^2, a_k = 2k + 1
    one = {"h": ONE}
    for k in range(1, 6):
        assert red.rho_coeff(k).subst(one).as_rational() == k
        assert red.sigma_coeff(k).subst(one).as_rational() == k * k
        assert red.a_coeff(k).subst(one).as_rational() == 2 * k + 1


def test_sigma_is_perfect_square():
    for k in range(1, 5):
        s = sum((E("h", k - 1 - 2 * j) for j in range(k)), ZERO)
        assert red.sigma_coeff(k) == s * s


def test_chebyshev_recursion_for_rho():
    x = E("h", 2) + E("h", -2)
    for k in range(2, 6):
        assert red.rho_coeff(k + 1) == x * red.rho_coeff(k) - red.rho_coeff(
            k - 1)


def test_representative_independence():
    assert red.representative_independence(3, 2)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_periodicity(p):
    assert red.periodicity_check(p)


def test_resolution_identity():
    assert red.resolution_identity(3)
