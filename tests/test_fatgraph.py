"""Geometry of the caterpillar spine: trace identities and the Goldman bracket."""

from fractions import Fraction
import random

import pytest

from geoalg import fatgraph
from geoalg.dn_algebra import an_algebra, bracket
from geoalg.poly_core import ONE, ZERO, const, dot


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_words_traceless_unimodular(n):
    for w in fatgraph.basis_words(n):
        m = w.evaluate()
        assert m.trace().is_zero()
        assert m.det() == ONE


@pytest.mark.parametrize("n", [3, 4, 5])
def test_perimeter_identity(n):
    assert fatgraph.perimeter_identity(n)


@pytest.mark.parametrize("n", [3, 4])
def test_goldman_matches_structure_constants(n):
    graph = fatgraph.canonical_disc_graph(n)
    geo = fatgraph.geodesic_functions(n)
    alg = an_algebra(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for x, a in enumerate(pairs):
        for b in pairs[x:]:
            lhs = fatgraph.goldman_bracket(
                geo[f"G[{a[0]},{a[1]},0]"], geo[f"G[{b[0]},{b[1]},0]"], graph)
            rhs = bracket(alg, alg.canonical(*a, 0),
                          alg.canonical(*b, 0)).subst(geo)
            assert lhs == rhs


def test_goldman_rejects_foreign_variables():
    graph = fatgraph.canonical_disc_graph(3)
    with pytest.raises(ValueError, match="nope"):
        fatgraph.goldman_bracket(fatgraph.E("nope"), ONE, graph)
    with pytest.raises(ValueError, match="nope"):
        fatgraph.goldman_bracket(
            ONE, fatgraph.E("s1") * fatgraph.E("nope"), graph)


def _vertex_cyclic_contraction(f, g, graph):
    """{f, g} from formal partials alone: the shear partial d/dX is
    (u/2) d/du on u = e^{X/2}, and the bivector is written out as
    df_a dg_b - dg_a df_b over the cyclically consecutive edges (a, b) at
    every vertex."""
    def shear(e):
        grad = e.gradient()
        return {v: grad.get(v, ZERO) * fatgraph.E(v) * const(Fraction(1, 2))
                for v in graph.edge_vars()}

    df, dg = shear(f), shear(g)
    out = ZERO
    for order in graph.vertex_orders:
        for a, b in zip(order, order[1:] + order[:1]):
            out = out + df[a] * dg[b] - dg[a] * df[b]
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_goldman_bracket_is_the_vertex_cyclic_contraction(n):
    graph = fatgraph.canonical_disc_graph(n)
    geo = list(fatgraph.geodesic_functions(n).values())
    s1, s2 = fatgraph.E("s1"), fatgraph.E("s2", -3)
    # products, Fraction constants and bare monomials, not only geodesics
    values = geo + [geo[0] * geo[-1] - geo[1],
                    const(Fraction(3, 2)) + const(Fraction(1, 3)) * geo[-1],
                    s1 - s2, ZERO]
    nonzero = fractional = 0
    for f in values:
        for g in values:
            pair = fatgraph.goldman_bracket(f, g, graph)
            assert pair == _vertex_cyclic_contraction(f, g, graph)
            assert pair == -fatgraph.goldman_bracket(g, f, graph)
            nonzero += not pair.is_zero()
            fractional += any(type(c) is Fraction for _, c in pair.terms())
    assert nonzero and fractional


def test_goldman_bracket_keeps_the_exponent_bound():
    # as in dot: operand bounds that sum past +-(2^15 - 1) defer to the
    # products, which raise OverflowError only when they leave the range
    graph = fatgraph.canonical_disc_graph(3)
    s1, s2 = fatgraph.E("s1", 20000), fatgraph.E("s2", 20000)
    # s2 follows s1 at the vertex: {s1^a, s2^b} = a b / 4 s1^a s2^b
    assert fatgraph.goldman_bracket(s1, s2, graph) == \
        const(20000 * 20000 // 4) * s1 * s2
    for x, y in [(s1, s1 * fatgraph.E("s2")), (s2 * s1, s2)]:
        with pytest.raises(OverflowError):
            dot([(1, x, y)])
        with pytest.raises(OverflowError):
            fatgraph.goldman_bracket(x, y, graph)


def test_geodesic_positive_at_real_points():
    rng = random.Random(0)
    for _ in range(5):
        point = {v: const(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
                 for v in ("s1", "s2", "s3", "s4", "t1")}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                val = fatgraph.geodesic_function(4, i, j).subst(point)
                assert val.as_rational() > 2


def test_clashed_hole_reduction():
    assert fatgraph.clashed_hole_coords()
