"""Structure constants: canonical forms, antisymmetry, Jacobi, generating form."""

import argparse
import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import geoalg.dn_algebra as dn
from geoalg import cli
from geoalg.dn_algebra import (
    an_algebra, bracket, classical_r_matrix, dn_algebra, dnp_algebra,
    generating_bracket, generator_tuples, jacobi_check, quantum_r_expansion,
    semiclassical_reflection_check, _pair_bracket,
)
from geoalg.poly_core import E, ONE, ZERO, const, dot, gen, parse_gen


def test_canonical_storage():
    alg = dn_algebra(3)
    assert alg.canonical(1, 1, 0) == const(2)
    assert alg.canonical(2, 1, 0) == E("G[1,2,0]")
    assert alg.canonical(2, 1, -3) == E("G[1,2,3]")
    assert alg.canonical(1, 2, 2) == E("G[1,2,2]")


def test_periodic_folding():
    alg = dnp_algebra(3, 4)
    # G^(k) = G^(p-k) transposed, here p = 4
    assert alg.canonical(1, 2, 3) == alg.canonical(2, 1, 1)
    assert alg.canonical(1, 2, 4) == alg.canonical(1, 2, 0)
    assert alg.canonical(1, 2, 5) == alg.canonical(1, 2, 1)
    assert alg.canonical(2, 1, 2) == alg.canonical(1, 2, 2)


def test_index_validation():
    with pytest.raises(ValueError):
        an_algebra(3).canonical(1, 2, 1)
    with pytest.raises(ValueError):
        dn_algebra(3).canonical(0, 2, 1)
    with pytest.raises(ValueError):
        dnp_algebra(3, 0)


GENS = [(i, j, 0) for i in range(1, 4) for j in range(i + 1, 4)] + [
    (i, j, 1) for i in range(1, 4) for j in range(1, 4)]


@pytest.mark.parametrize("a,b", list(itertools.combinations(GENS, 2))[:30])
def test_pair_antisymmetry(a, b):
    alg = dn_algebra(3)
    assert _pair_bracket(alg, a, b) == -_pair_bracket(alg, b, a)


def _closed_form(alg, a, b):
    """{G^(m)_{j,i}, G^(k)_{p,l}} restated with plain Expr arithmetic,
    apart from the table the algebra builds."""
    (j, i, m), (p, l, k) = a, b
    if m < 0:
        j, i, m = i, j, -m
    if k < 0:
        p, l, k = l, p, -k
    if m > k:
        return -_closed_form(alg, b, a)
    g, eps = alg.canonical, dn._eps
    if m == 0:
        return (
            const(eps(j - l) - eps(i - l))
            * (g(l, i, 0) * g(p, j, k) - g(l, j, 0) * g(p, i, k))
            + const(eps(j - p) - eps(i - p))
            * (g(p, i, 0) * g(j, l, k) - g(p, j, 0) * g(i, l, k)))
    out = (
        const(eps(i - l))
        * (g(p, i, k) * g(j, l, m) - g(i, l, 0) * g(p, j, k - m))
        + const(eps(i - p))
        * (g(j, p, m) * g(i, l, k) - g(i, p, 0) * g(j, l, k + m))
        + const(eps(j - l))
        * (g(p, j, k) * g(l, i, m) - g(j, l, 0) * g(p, i, k + m))
        + const(eps(j - p))
        * (g(p, i, m) * g(j, l, k) - g(j, p, 0) * g(i, l, k - m)))
    for r in range(m + 1):
        out = out + const(1 if r in (0, m) else 2) * (
            g(p, i, k + m - r) * g(j, l, r)
            - g(p, i, m - r) * g(j, l, k + r)
            + g(i, l, k - m + r) * g(j, p, r)
            - g(l, i, r) * g(p, j, k - m + r))
    return out


def _row_views(alg, row):
    """A table row read apart from its Expr: the sum of c * G_u * G_v
    over its terms (c, m, u, v), and each partial d/dG_w as jacobi_check
    reads it, c * G_v for w = u plus c * G_u for w = v."""
    table = dn._table(alg)
    g = [ONE] + [E(gen(*t)) for t in table.triples[1:]]
    terms = [(c, u, v) for c, _, u, v in row]
    partials = {}
    for c, u, v in terms:
        for w, other in ((u, v), (v, u)):
            if w:
                partials.setdefault(gen(*table.triples[w]), []).append(
                    (c, g[other], ONE))
    return (dot((c, g[u], g[v]) for c, u, v in terms),
            {w: dot(t) for w, t in partials.items()})


@pytest.mark.parametrize("alg, level", [
    (an_algebra(5), 0), (dn_algebra(3), 3), (dnp_algebra(3, 4), 3)])
def test_structure_constants_match_closed_form(alg, level):
    table = dn._table(alg)
    gens = generator_tuples(alg.n, level)
    for a, b in itertools.product(gens, repeat=2):
        want = _closed_form(alg, a, b)
        assert _pair_bracket(alg, a, b) == want, (a, b)
        terms, partials = _row_views(alg, table.pair(a, b))
        assert terms == want and partials == want.gradient(), (a, b)


def test_mirror_consistency():
    # the same bracket built from the k < 0 mirror of each slot
    alg = dn_algebra(3)
    table = dn._table(alg)
    for a, b in [((1, 2, 1), (2, 3, 1)), ((1, 3, 0), (3, 1, 2))]:
        am = (a[1], a[0], -a[2])
        bm = (b[1], b[0], -b[2])
        assert table.canonical(*am) == table.canonical(*a)
        want = table.pair(a, b)
        assert want
        for x, y in ((am, b), (a, bm), (am, bm)):
            assert table.compile(dn._structure_constant(alg, x, y)) == want


@pytest.mark.parametrize("alg, level", [(dnp_algebra(3, 2), 2),
                                        (an_algebra(4), 0)])
def test_rows_match_the_dot_built_structure_constants(alg, level):
    # the Expr that the table replaced: one dot over canonical generators
    g = alg.canonical
    gens = generator_tuples(alg.n, level)
    for a, b in itertools.product(gens, repeat=2):
        want = dot([(c, g(*x), g(*y))
                    for c, x, y in dn._structure_constant(alg, a, b)])
        assert _pair_bracket(alg, a, b) == want, (a, b)
        assert _row_views(alg, dn._table(alg).pair(a, b)) == (
            want, want.gradient()), (a, b)


def test_bracket_leibniz():
    alg = dn_algebra(3)
    f = alg.canonical(1, 2, 0)
    g = alg.canonical(1, 3, 1)
    h = alg.canonical(2, 3, 0) + const(3)
    lhs = bracket(alg, f * g, h)
    rhs = f * bracket(alg, g, h) + bracket(alg, f, h) * g
    assert lhs == rhs


def test_bracket_kills_constants():
    alg = dn_algebra(3)
    assert bracket(alg, const(5), alg.canonical(1, 2, 0)) == ZERO


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(GENS), st.sampled_from(GENS), st.sampled_from(GENS))
def test_jacobi_on_generators(a, b, c):
    alg = dn_algebra(3)
    res = jacobi_check(alg, a, b, c)
    assert res.is_zero()


def _composed_jacobi(alg, a, b, c):
    """The Jacobiator composed of whole-polynomial Leibniz brackets:
    {{f,g},h} + {{g,h},f} + {{h,f},g} for the generators f, g, h."""
    f, g, h = (alg.canonical(*t) for t in (a, b, c))
    return dot(dn._leibniz_terms(alg, bracket(alg, f, g), h)
               + dn._leibniz_terms(alg, bracket(alg, g, h), f)
               + dn._leibniz_terms(alg, bracket(alg, h, f), g))


def _jacobi_triples(alg, level):
    """Every triple of distinct generators up to *level*, each generator
    as the index triple of its canonical symbol (constants dropped)."""
    names = {s for t in generator_tuples(alg.n, level)
             for s in alg.canonical(*t).symbols()}
    return list(itertools.combinations(sorted(map(parse_gen, names)), 3))


@pytest.mark.parametrize("alg,level,count", [
    (dn_algebra(3), 2, 1330), (dnp_algebra(3, 2), 2, 84),
    (dnp_algebra(2, 3), 3, 10), (an_algebra(4), 0, 20)])
def test_jacobi_on_triples_matches_the_composed_brackets(alg, level, count):
    triples = _jacobi_triples(alg, level)
    assert len(triples) == count
    for a, b, c in triples:
        res = jacobi_check(alg, a, b, c)
        assert res.is_zero()
        assert res == _composed_jacobi(alg, a, b, c)


def test_jacobi_on_a_seeded_sample_at_n4_level2():
    alg = dn_algebra(4)
    triples = random.Random(16).sample(
        list(itertools.combinations(generator_tuples(4, 2), 3)), 40)
    for a, b, c in triples:
        res = jacobi_check(alg, a, b, c)
        assert res.is_zero()
        assert res == _composed_jacobi(alg, a, b, c)


def _plant(monkeypatch, alg, a, b, extra):
    """The table's row of {G_a, G_b} replaced by one with the (c, x, y)
    terms *extra* added, restored when the test ends."""
    table = dn._table(alg)
    key = table.canonical(*a)[1], table.canonical(*b)[1]
    monkeypatch.setitem(table.rows, key, table.compile(
        dn._structure_constant(alg, a, b) + extra))


def _fresh_tables(monkeypatch):
    monkeypatch.setattr(dn, "_table", functools.cache(dn._Table))


# c * G[1,3,1] * G[1,1,0] with G[1,1,0] = 2: +-G[1,3,1] for c = +-1/2
_PLUS, _MINUS = ([(Fraction(c, 2), (1, 3, 1), (1, 1, 0))] for c in (1, -1))


def _assert_jacobi_catches_the_mutant(monkeypatch):
    # +G[1,3,1] on {G[1,2,0], G[2,3,1]}, -G[1,3,1] on the other order
    alg = dn_algebra(3)
    x, y = (1, 2, 0), (2, 3, 1)
    _plant(monkeypatch, alg, x, y, _PLUS)
    _plant(monkeypatch, alg, y, x, _MINUS)
    assert _pair_bracket(alg, x, y) == _closed_form(alg, x, y) + E(
        "G[1,3,1]")
    failed = 0
    for a, b, c in _jacobi_triples(alg, 2):
        res = jacobi_check(alg, a, b, c)
        assert res == _composed_jacobi(alg, a, b, c)
        failed += not res.is_zero()
    assert failed > 0


def test_jacobi_catches_a_wrong_structure_constant(monkeypatch):
    _fresh_tables(monkeypatch)
    _assert_jacobi_catches_the_mutant(monkeypatch)


def test_a_filled_table_still_catches_the_mutant(monkeypatch):
    # every row the true triples read is built before the mutant goes in
    _fresh_tables(monkeypatch)
    alg = dn_algebra(3)
    for a, b, c in _jacobi_triples(alg, 2):
        assert jacobi_check(alg, a, b, c).is_zero()
    table = dn._table(alg)
    filled = dict(table.rows)
    x, y = table.canonical(1, 2, 0)[1], table.canonical(2, 3, 1)[1]
    assert {(x, y), (y, x)} <= set(filled)
    _assert_jacobi_catches_the_mutant(monkeypatch)
    assert set(table.rows) == set(filled)


def test_a_failing_jacobi_report_names_its_lowest_term(monkeypatch):
    _fresh_tables(monkeypatch)
    alg = dn_algebra(3)
    _plant(monkeypatch, alg, (1, 2, 0), (2, 3, 1), _PLUS)
    _plant(monkeypatch, alg, (2, 3, 1), (1, 2, 0), _MINUS)
    failed = []
    for case, run in cli._suite_jacobi(argparse.Namespace(n=3, level=2)):
        rep = cli._run_case("jacobi", case, run)
        if rep["status"] == "fail":
            failed.append(rep)
        else:
            assert (rep["left"], rep["right"]) == ("0", "0")
    assert failed
    for rep in failed:
        a, b, c = (tuple(map(int, t.split(","))) for t in
                   re.findall(r"\((-?\d+, -?\d+, -?\d+)\)", rep["case"]))
        res = jacobi_check(alg, a, b, c)
        mono, coeff = min(res.terms(), key=lambda t: (len(t[0]), t[0]))
        lowest = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        assert rep["left"] == (f"{res} [{len(res)} terms; lowest: "
                               f"{lowest or 1} · {coeff}]"), rep
        assert rep["right"] == "0"


def test_jacobi_suite_builds_each_row_once(monkeypatch):
    _fresh_tables(monkeypatch)
    built = []
    compile_row = dn._Table.compile
    monkeypatch.setattr(dn._Table, "compile", lambda self, terms: (
        built.append(terms) or compile_row(self, terms)))
    cases = cli._suite_jacobi(argparse.Namespace(n=3, level=2))
    assert all(run()[0] for _, run in cases)
    table = dn._table(dn_algebra(3))
    inner = {(x, y) for a, b, c in itertools.combinations(
        generator_tuples(3, 2), 3) for x, y in ((a, b), (b, c), (c, a))}
    keys = {(table.canonical(*x)[1], table.canonical(*y)[1])
            for x, y in inner}
    assert len(cases) == 1330 and keys <= set(table.rows)
    assert len(built) == len(table.rows)


@pytest.mark.parametrize("ji,pl", [((1, 2), (2, 3)), ((1, 3), (3, 1)),
                                   ((2, 2), (1, 3))])
def test_generating_function_identity(ji, pl):
    alg = dn_algebra(3)
    lhs, rhs = generating_bracket(alg, ji, pl, 2)
    assert lhs == rhs


def test_reflection_form_small():
    rep = semiclassical_reflection_check(dn_algebra(2), 2)
    assert rep["ok"]
    assert rep["checked"] == 16
    assert rep["printed_orientation_sign"] == -1


def test_quantum_r_linear_term_is_classical_r():
    h0, h1 = quantum_r_expansion(3)
    assert h1 == classical_r_matrix(3)
    lam, mu = E("lam"), E("mu")
    assert h0[((1, 2), (1, 2))] == lam - mu
    assert h0[((1, 1), (1, 1))] == -(lam - mu)


def test_reflection_check_catches_a_wrong_structure_constant(monkeypatch):
    # +1 on one row of the table (1/4 * G[1,1,0]^2 = 1), the other order
    # of the pair untouched
    _fresh_tables(monkeypatch)
    alg = dn_algebra(3)
    a, b = (1, 2, 0), (1, 3, 1)
    _plant(monkeypatch, alg, a, b, [(Fraction(1, 4), (1, 1, 0), (1, 1, 0))])
    assert _pair_bracket(alg, a, b) == _closed_form(alg, a, b) + 1
    rep = semiclassical_reflection_check(alg, 2)
    assert not rep["ok"] and rep["mismatches"]


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_reflection_check_catches_a_short_kernel(monkeypatch, dropped):
    # both kernels lose the geometric term x^dropped of 1 + x + ... + x^order
    true_geometric = dn._geometric
    monkeypatch.setattr(dn, "_geometric", lambda x, order: true_geometric(
        x, order) - x ** dropped)
    rep = semiclassical_reflection_check(dn_algebra(3), 2)
    assert not rep["ok"] and rep["mismatches"]


@pytest.mark.parametrize("n,order", [(3, 2), (4, 1)])
def test_shared_lam_sides_give_the_windowed_full_product(n, order):
    # the right side restated: the four kernel products in full, then the
    # window lam^-a mu^-b, 0 <= a, b <= order, and the global sign
    alg = dn_algebra(n)
    tables = dn._reflection_tables(alg, order)
    rt, tt = dn._kernels(n, order)
    glam = {(a, b): dn.gcal_entry(alg.canonical, a, b, order, "lam")
            for a, b in itertools.product(range(1, n + 1), repeat=2)}
    gmu2 = {ab: dn.gcal_entry(alg.canonical, *ab, 2 * order, "mu")
            for ab in glam}
    for j, i, p, l in itertools.product(range(1, n + 1), repeat=4):
        full = (rt[j, p] * glam[p, i] * gmu2[j, l]
                - rt[l, i] * glam[j, l] * gmu2[p, i]
                + tt[i, p] * glam[j, p] * gmu2[i, l]
                - tt[l, j] * glam[l, i] * gmu2[p, j])
        want = -full.window("lam", -order, 0).window("mu", -order, 0)
        _, rhs = generating_bracket(alg, (j, i), (p, l), order, tables)
        assert rhs == want


@pytest.mark.parametrize("delta", [1, -1])
def test_reflection_check_catches_a_wrong_kernel_entry(monkeypatch, delta):
    # +-1 on the single kernel entry r~(1, 2); t~ and the other r~ as they are
    true_kernels = dn._kernels

    def mutant(n, order):
        rt, tt = true_kernels(n, order)
        return {**rt, (1, 2): rt[1, 2] + const(delta)}, tt

    monkeypatch.setattr(dn, "_kernels", mutant)
    rep = semiclassical_reflection_check(dn_algebra(3), 2)
    assert not rep["ok"] and rep["mismatches"]
