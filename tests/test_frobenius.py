"""Stokes-matrix realization: reflections, clash block, numeric brackets."""

import argparse
from fractions import Fraction
from math import prod
import random

import pytest

from geoalg import cli, frobenius as fro
from geoalg.poly_core import E, Mat, ONE, const


def _rand(seed=0, n=4):
    return fro.random_stokes(n, random.Random(seed))


def test_reflections_symbolic():
    s = fro.StokesMatrix.symbolic(3)
    assert fro.product_identity(s)


def test_stokes_matrix_needs_a_unit_diagonal():
    # M_k^2 = 1 + (G_kk - 2) E_k G: the reflections are involutions
    # because a Stokes matrix has a unit diagonal
    with pytest.raises(ValueError, match="diagonal"):
        fro.StokesMatrix.from_rows([[1, 2], [0, 3]])


def test_product_identity_random():
    assert fro.product_identity(_rand(2))


def test_index_validation():
    s = _rand(3)
    with pytest.raises(ValueError):
        fro.clash_block(s, s.n + 1)


@pytest.mark.parametrize("nt", [2, 3, 4])
def test_clash_block_structure(nt):
    rep = fro.clash_block(_rand(4), nt)
    assert rep.ok


def test_clash_block_symbolic():
    rep = fro.clash_block(fro.StokesMatrix.symbolic(3), 2)
    assert rep.ok


def test_intertwining_needs_involutions(monkeypatch):
    # M_k = 1 - 3 E_k G keeps G M_k = M_k^T G but not M_k^2 = 1, so the
    # reversed product is no longer M_h^-1
    def tripled(s):
        g, n = s.symmetrization(), s.n
        return [Mat.identity(n) - Mat([[3 * g[i, j] if i == k else 0
                                        for j in range(n)] for i in range(n)])
                for k in range(n)]

    monkeypatch.setattr(fro, "monodromies", tripled)
    for nt in (2, 3, 4):
        assert not fro.clash_block(_rand(4), nt).intertwining_ok, nt


# faults in the factors of M_h or of the tail, each as a wrapper of the
# function it breaks; the order and range of the tail's product are read
# independently of clash_monodromy, so none passes the tail verdict
TAIL_MUTANTS = {
    # M_n ... M_nt = M_h^-1 in place of M_h
    "clash_monodromy reversed": (
        fro, "clash_monodromy", lambda f: lambda s, nt, k: f(s, nt, -k)),
    "trailing_block one row late": (
        fro.StokesMatrix, "trailing_block",
        lambda f: lambda self, nt: f(self, nt + 1)),
    "tail_matrix reversed": (
        fro, "tail_matrix", lambda f: lambda st: prod(
            fro.monodromies(st)[::-1], start=Mat.identity(st.n))),
    # M_k^T = 1 - G E_k, G symmetric
    "monodromies column form": (
        fro, "monodromies", lambda f: lambda s: [m.transpose() for m in f(s)]),
}


@pytest.mark.parametrize("name", TAIL_MUTANTS)
def test_tail_verdict_catches_a_mutant(name, monkeypatch):
    target, attr, mutant = TAIL_MUTANTS[name]
    monkeypatch.setattr(target, attr, mutant(getattr(target, attr)))
    for nt in (2, 3):
        assert not fro.clash_block(_rand(4), nt).tail_ok, nt
    cases = dict(cli._suite_frobenius(argparse.Namespace(seed=None)))
    ok, *_ = cases["monodromy identities"]()
    assert not ok


def test_clash_inverse():
    s = _rand(5)
    for k in (1, 2, 3):
        m = fro.clash_monodromy(s, 2, k) * fro.clash_monodromy(s, 2, -k)
        assert m == Mat.identity(s.n), k


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gk_mirror(k):
    assert fro.gk_mirror_check(_rand(6), 3, k)


def test_gk_level_zero_is_symmetrization():
    s = _rand(7)
    assert fro.gk_family(s, 2, 0) == s.symmetrization()


@pytest.mark.parametrize("m", [2, 3])
def test_all_ones_spectrum(m):
    rep = fro.all_ones_report(m)
    assert rep["char_poly_ok"]
    lp = rep["level_p"]
    assert lp["tail_power_identity"] and lp["nondegenerate"]
    assert lp["partial_sum_zero"] and lp["full_period"]


def test_level_p_condition_degenerate_tail():
    # a trailing block violating the periodicity hypothesis is reported
    st = fro.StokesMatrix.from_rows([[1, 3], [0, 1]])
    rep = fro.level_p_condition(st, 3)
    assert not rep["tail_power_identity"]
    assert rep["full_period"] is None


def test_characteristic_polynomial_companion():
    m = Mat([[const(0), -ONE], [ONE, const(-1)]])
    char = fro.characteristic_polynomial(m)
    eta = E("eta")
    assert char == eta * eta + eta + ONE


def test_realization_factor_value():
    assert fro.REALIZATION_FACTOR == Fraction(1, 4)


def test_realization_at_random_points():
    rep = fro.realization_suite(3, seed=11)
    assert rep["ok"], rep


def test_realization_gate_catches_a_wrong_factor(monkeypatch):
    # the relative gate still sees a 1e-6 error in the 1/4 factor at every
    # seed the command line suite runs
    monkeypatch.setattr(fro, "REALIZATION_FACTOR",
                        Fraction(1, 4) * (1 + Fraction(1, 10 ** 6)))
    for seed in range(6):
        assert not fro.realization_suite(3, seed=seed)["ok"], seed


def test_realization_gate_catches_a_wrong_exact_value(monkeypatch):
    # one exact generator value 1e-6 off, relative, fails at every seed
    exact = fro._gk_values

    def off(*args):
        out = exact(*args)
        out[(1, 2, 1)] *= 1 + Fraction(1, 10 ** 6)
        return out

    monkeypatch.setattr(fro, "_gk_values", off)
    for seed in range(6):
        assert not fro.realization_suite(3, seed=seed)["ok"], seed


def test_realization_gate_catches_swapped_powers(monkeypatch):
    # M_h^k and M_h^-k swapped: by cyclicity Tr(M_i M_h^-k M_j M_h^k) is
    # the trace of (j, i, k), so the mutant reads every generator mirrored
    family = fro._trace_family
    monkeypatch.setattr(fro, "_trace_family", lambda gens, nt: family(
        [(j, i, k) for i, j, k in gens], nt))
    for seed in range(6):
        assert not fro.realization_suite(3, seed=seed)["ok"], seed


@pytest.mark.parametrize("rank,clash", [(3, 2), (2, 3), (4, 1)])
@pytest.mark.parametrize("levels", [1, 2])
def test_row_updates_give_the_gk_family(rank, clash, levels):
    for seed in range(6):
        s = _rand(seed, rank + clash)
        g = [[x.as_rational() for x in row]
             for row in s.symmetrization().rows]
        got = fro._gk_values(g, rank + 1, rank, 2 * levels)
        want = {(i + 1, j + 1, k): fro.gk_family(s, rank + 1, k)[i, j]
                .as_rational() for k in range(2 * levels + 1)
                for i in range(rank) for j in range(rank)}
        assert got == want, seed


# draws realization_suite(3, seed=s) makes at the CLI's seeds, True for an
# accepted Stokes point and False for a degenerate one
DRAWS = {0: [False, True, True, True], 1: [True] * 3, 2: [True] * 3,
         3: [True] * 3, 4: [True, True, False, True], 5: [True] * 3}


@pytest.mark.parametrize("seed", range(6))
def test_realization_suite_draws(seed, monkeypatch):
    check, seen = fro.realization_check, []

    def recorded(s, rank, **kwargs):
        try:
            out = check(s, rank, **kwargs)
        except ValueError as exc:
            assert str(exc) == "degenerate point: a generator value vanishes"
            seen.append(False)
            raise
        seen.append(True)
        return out

    monkeypatch.setattr(fro, "realization_check", recorded)
    assert fro.realization_suite(3, seed=seed)["ok"]
    assert seen == DRAWS[seed]


def _random_stokes_by_det(n, rng):
    while True:
        rows = [[1 if i == j else
                 (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if i < j
                  else 0)
                 for j in range(n)] for i in range(n)]
        s = fro.StokesMatrix.from_rows(rows)
        if not s.symmetrization().det().is_zero():
            return s


@pytest.mark.parametrize("n", range(1, 7))
def test_random_stokes_draws_as_the_determinant_test(n):
    for seed in range(4):
        assert (fro.random_stokes(n, random.Random(seed))
                == _random_stokes_by_det(n, random.Random(seed))), seed


def test_realization_suite_bounds_resampling(monkeypatch):
    # G_{1,2} = 0 at the identity Stokes matrix: every draw is degenerate
    flat = fro.StokesMatrix.from_rows(
        [[1 if i == j else 0 for j in range(5)] for i in range(5)])
    monkeypatch.setattr(fro, "random_stokes", lambda n, rng: flat)
    with pytest.raises(ValueError, match="usable in 20 draws"):
        fro.realization_suite(2, seed=0)


def test_realization_rejects_bad_rank():
    with pytest.raises(ValueError):
        fro.realization_check(_rand(8, 3), 3)


def test_special_point_rank3():
    s = fro.a3_star()
    assert s.mat == Mat([[1, 3, 3], [0, 1, 3], [0, 0, 1]])


def test_special_point_rank4():
    s = fro.a4_star()
    assert s.mat == Mat([[1, 4, 6, 4], [0, 1, 4, 6],
                         [0, 0, 1, 4], [0, 0, 0, 1]])


def test_fourth_root_folding_rejects_stray_powers():
    with pytest.raises(ValueError):
        fro._fold_fourth_root(E("qr", 2), "qr", 2)
