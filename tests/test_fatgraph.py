"""Geometry of the caterpillar spine: trace identities and the Goldman bracket."""

from fractions import Fraction
import random

import pytest

from geoalg import fatgraph
from geoalg.dn_algebra import an_algebra, bracket
from geoalg.poly_core import ONE, ZERO, const


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
    with pytest.raises(ValueError):
        fatgraph.goldman_bracket(fatgraph.E("nope"), ONE, graph)
    with pytest.raises(ValueError, match="nope"):
        fatgraph.shear_gradient(fatgraph.E("s1") * fatgraph.E("nope"), graph)


def test_gradient_pairing_is_the_goldman_bracket():
    n = 4
    graph = fatgraph.canonical_disc_graph(n)
    geo = list(fatgraph.geodesic_functions(n).values())
    # products and constants too, not only the geodesics themselves
    values = geo + [geo[0] * geo[3] - geo[2], const(Fraction(3, 2)) + geo[5]]
    grads = [fatgraph.shear_gradient(f, graph) for f in values]
    fields = [fatgraph.hamiltonian_field(dg, graph) for dg in grads]
    for f, df, xf in zip(values, grads, fields):
        assert set(df) == set(graph.edge_vars())
        for g, dg, xg in zip(values, grads, fields):
            pair = fatgraph.gradient_pairing(df, xg)
            assert pair == fatgraph.goldman_bracket(f, g, graph)
            assert pair == -fatgraph.gradient_pairing(dg, xf)
    assert any(fatgraph.gradient_pairing(grads[0], xg) for xg in fields)


def test_hamiltonian_field_pairing_is_the_vertex_cyclic_sum():
    n = 5
    graph = fatgraph.canonical_disc_graph(n)
    grads = [fatgraph.shear_gradient(f, graph)
             for f in fatgraph.geodesic_functions(n).values()]
    fields = [fatgraph.hamiltonian_field(dg, graph) for dg in grads]

    def cyclic_sum(df, dg):
        # the bivector written out: df_a dg_b - dg_a df_b over the
        # cyclically consecutive edges (a, b) at every vertex
        out = ZERO
        for order in graph.vertex_orders:
            for a, b in zip(order, order[1:] + order[:1]):
                out = out + df[a] * dg[b] - dg[a] * df[b]
        return out

    nonzero = 0
    for df, xf in zip(grads, fields):
        for dg, xg in zip(grads, fields):
            pair = fatgraph.gradient_pairing(df, xg)
            assert pair == cyclic_sum(df, dg)
            assert pair == -fatgraph.gradient_pairing(dg, xf)
            nonzero += not pair.is_zero()
    assert nonzero


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
