"""End-to-end acceptance suite.

Each test is one acceptance criterion, stated in terms of the public API:
cross-oracle bracket agreement, clash independence, Jacobi, the reflection
form, braid relations, central elements, the reduction laws, reference
Casimirs, special Stokes points, the numeric bracket realization, and the
trace invariants of the spine matrices.
"""

import itertools
import random

import numpy as np
import pytest

from geoalg import braid, centers, fatgraph, frobenius, ks_calculus as ks
from geoalg import reductions
from geoalg.dn_algebra import (
    an_algebra, bracket, dn_algebra, dnp_algebra, generator_tuples,
    jacobi_check, semiclassical_reflection_check, _pair_bracket,
)
from geoalg.poly_core import Mat, ONE, parse_gen


# -- criterion 1: triple-oracle bracket agreement at n = 4 ------------------


def test_bracket_triple_oracle_n4():
    n = 4
    alg = an_algebra(n)
    graph = fatgraph.canonical_disc_graph(n)
    geo = fatgraph.geodesic_functions(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for x, a in enumerate(pairs):
        for b in pairs[x:]:
            struct = bracket(alg, alg.canonical(*a, 0), alg.canonical(*b, 0))
            # oracle 1: Goldman bracket on shear coordinates
            goldman = fatgraph.goldman_bracket(
                geo[f"G[{a[0]},{a[1]},0]"], geo[f"G[{b[0]},{b[1]},0]"], graph)
            assert goldman == struct.subst(geo)
            # oracle 2: trace calculus + skein reduction
            skein = ks.skein_reduce(ks.ks_bracket_symbolic(
                ks.gen_word(*a, 0), ks.gen_word(*b, 0)))
            assert skein == struct


# -- criterion 2: graded structure constants and clash independence ---------


def test_graded_bracket_symbolic_n3_levels2():
    alg = dn_algebra(3)
    gens = generator_tuples(3, 2)
    for x, a in enumerate(gens):
        for b in gens[x:]:
            lhs = ks.skein_reduce(
                ks.ks_bracket_symbolic(ks.gen_word(*a), ks.gen_word(*b)))
            assert lhs == _pair_bracket(alg, a, b)


def _traceless(rng):
    # trace-zero, determinant-one letters with bounded entries (the skein
    # reduction assumes Tr M = 0, M^2 = -1; wild entries cost precision)
    a = rng.uniform(-1, 1)
    b = rng.uniform(0.5, 1.5) * rng.choice([-1, 1])
    return np.array([[a, b], [-(1 + a * a) / b, -a]])


@pytest.mark.parametrize("m", [2, 3])
def test_clash_independence_numeric(m):
    # the clashed-hole word is the product of m trace-zero letters; the
    # bracket of the invariant traces must match the structure constants
    # regardless of m
    rng = random.Random(42 + m)
    mats = [_traceless(rng) for _ in range(3 + m)]

    def hpow(ms, k):
        h = np.eye(2)
        for t in ms[3:]:
            h = h @ t
        return np.linalg.matrix_power(h, k)

    def f(i, j, k):
        return lambda ms: -np.trace(
            ms[i - 1] @ hpow(ms, k) @ ms[j - 1] @ hpow(ms, -k),
            axis1=-2, axis2=-1)

    vals = {}
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(5):
                vals[(i, j, k)] = f(i, j, k)(mats)
    alg = dn_algebra(3)
    gens = generator_tuples(3, 2)
    worst = 0.0
    for x, a in enumerate(gens):
        for b in gens[x:]:
            expr = _pair_bracket(alg, a, b)
            rhs = 0.0
            for mono, coeff in expr.terms():
                v = float(coeff)
                for name, power in mono:
                    i, j, k = parse_gen(name)
                    v *= vals[(i, j, k)] ** power
                rhs += v
            lhs = ks.ks_bracket_numeric(f(*a), f(*b), mats)
            scale = max(1.0, abs(lhs), abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-6, worst


# -- criterion 3: exhaustive Jacobi at n = 3, levels <= 2 -------------------


def test_jacobi_exhaustive_n3_levels2():
    alg = dn_algebra(3)
    gens = generator_tuples(3, 2)
    assert len(gens) == 21
    count = 0
    for a, b, c in itertools.combinations(gens, 3):
        assert jacobi_check(alg, a, b, c).is_zero()
        count += 1
    assert count == 1330


# -- criterion 4: semiclassical reflection form -----------------------------


@pytest.mark.parametrize("n,order", [(2, 3), (3, 2)])
def test_reflection_form(n, order):
    rep = semiclassical_reflection_check(dn_algebra(n), order)
    assert rep["ok"], rep["mismatches"][:2]
    assert rep["mismatches"] == []
    assert rep["printed_orientation_sign"] == -1


# -- criterion 5: braid relations -------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_relations_level0(n):
    rep = braid.verify_relations("A", n)
    assert rep["ok"], rep["checks"]


def test_braid_relations_graded_and_periodic():
    rep = braid.verify_relations("frakD", 3)
    assert rep["ok"], rep["checks"]
    rep = braid.verify_relations("D", 3)
    assert rep["ok"], rep["checks"]


def _braid_token(b):
    body = f"{b.i}{b.i + 1}" if b.kind == braid.ADJ else "n1"
    return f"b{body}{'^-1' if b.inverse else ''}"


@pytest.mark.parametrize("n,b", [
    pytest.param(n, b, id=f"{n}-{_braid_token(b)}")
    for n in (3, 4)
    for b in [braid.adjacent(i, inv) for i in range(1, n)
              for inv in (False, True)] + [braid.wrap(), braid.wrap(True)]])
def test_braid_componentwise_vs_matrix(n, b):
    # the matrix form is the independent reference of the one exchange
    # rule, for every generator and its inverse
    gm = braid.LambdaMatrix.generic(n, 4)
    via_fam = braid.act_frakDn(b, gm)
    via_mat = braid.act_matrix(b, gm)
    window = min(via_fam.cert, via_mat.cert)
    assert window >= 1
    for k in range(window + 1):
        assert via_fam.coefficient(k) == via_mat.coefficient(k)


# -- criterion 6: central elements of the level-p quotients -----------------


@pytest.mark.parametrize("n,p,rank", [(2, 2, 2), (3, 2, 3), (2, 3, 3)])
def test_periodic_centers(n, p, rank):
    cs = centers.centers_Dnp(n, p)
    rep = centers.centrality_report(dnp_algebra(n, p), cs.coefficients)
    assert rep["ok"], rep["failures"]
    assert cs.meta["count"] == rank
    assert len(cs.meta["jacobian_ranks"]) == 5
    assert all(r == rank for r in cs.meta["jacobian_ranks"])


# -- criterion 7: reduction of the graded algebra ---------------------------


def test_reduction_commuting_square():
    rep = reductions.th_dn_check(3)
    assert rep["ok"], rep["checks"]


def test_reduction_summation():
    rep = reductions.dn_sum()
    assert rep["ok"], rep["streams"]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_reduction_periodicity(p):
    assert reductions.periodicity_check(p)


# -- criterion 8: reference Casimirs of the reduced algebra -----------------


@pytest.mark.parametrize("n", [2, 3])
def test_casimir_relations(n):
    rep = centers.dn_relation_check(n)
    assert rep["ok"], rep["relations"]


def test_casimir_invariance_profiles():
    assert centers.braid_invariance(
        "D", centers.corrected_d3_casimirs(), 3) == [True, True, True]
    assert centers.braid_invariance(
        "D", centers.printed_d3_casimirs(), 3) == [False, True, False]
    assert centers.braid_invariance(
        "D", centers.printed_d2_casimirs(), 2) == [True, True]


# -- criterion 9: special Stokes points -------------------------------------


def test_stokes_special_points():
    assert frobenius.a3_star().mat == Mat([[1, 3, 3], [0, 1, 3], [0, 0, 1]])
    assert frobenius.a4_star().mat == Mat(
        [[1, 4, 6, 4], [0, 1, 4, 6], [0, 0, 1, 4], [0, 0, 0, 1]])


# -- criterion 10: numeric bracket realization on Stokes matrices -----------


def test_realization_50_points():
    rep = frobenius.realization_suite(50, seed=2024)
    assert rep["trials"] == 50
    assert rep["ok"], rep["max_deviation"]


def test_realization_block_identities():
    rng = random.Random(5)
    for _ in range(3):
        s = frobenius.random_stokes(5, rng)
        assert frobenius.product_identity(s)
        assert frobenius.clash_block(s, 4).ok
        for k in range(3):
            assert frobenius.gk_mirror_check(s, 4, k)
    # and once fully symbolically
    sym = frobenius.StokesMatrix.symbolic(4)
    assert frobenius.clash_block(sym, 3).ok


@pytest.mark.parametrize("m", [2, 3])
def test_all_ones_tail_spectrum(m):
    rep = frobenius.all_ones_report(m)
    assert rep["char_poly_ok"]
    assert rep["level_p"]["full_period"]


# -- criterion 11: trace invariants of the spine matrices -------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_invariants_and_perimeter(n):
    for w in fatgraph.basis_words(n):
        mat = w.evaluate()
        assert mat.trace().is_zero()
        assert mat.det() == ONE
    assert fatgraph.perimeter_identity(n)
