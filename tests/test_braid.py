"""Braid-group actions on the generator families."""

import pytest

from geoalg import braid
from geoalg.dn_algebra import bracket, dn_algebra
from geoalg.poly_core import E, Mat


def test_symbol_matrix_shape():
    # the level-0 matrix is Gcal at cap 0
    a = braid.LambdaMatrix.generic(3, 0).mat
    assert a.shape == (3, 3)
    assert a[0, 0] == E("G[1,1,0]") or a[0, 0].is_rational()
    assert a[0, 1] == E("G[1,2,0]")


def test_unknown_flavor():
    with pytest.raises(ValueError):
        braid.verify_relations("X", 3)


def test_adjacent_action_is_involution_up_to_inverse():
    # at level 0 the conjugation stays upper-triangular with unit
    # diagonal, so both forms give the same matrix: the level-0 centers'
    # braid check reads the componentwise form for the matrix one
    for n in range(2, 6):
        a0 = braid.LambdaMatrix.generic(n, 0)
        for i in range(1, n):
            b = braid.adjacent(i)
            assert braid.act_matrix(b, a0) == braid.act_frakDn(b, a0)
            for act in (braid.act_matrix, braid.act_frakDn):
                assert act(b.inv(), act(b, a0)) == a0


def test_action_preserves_bracket():
    # the substitution induced by a braid move is a Poisson automorphism
    alg = dn_algebra(3)
    b = braid.adjacent(1)
    acted = braid.act_matrix(b, braid.LambdaMatrix.generic(3, 0)).mat
    sub = {f"G[{i},{j},0]": acted[i - 1, j - 1]
           for i in range(1, 4) for j in range(i + 1, 4)}
    f = alg.canonical(1, 2, 0)
    g = alg.canonical(2, 3, 0)
    lhs = bracket(alg, f, g).subst(sub)
    rhs = bracket(alg, f.subst(sub), g.subst(sub))
    assert lhs == rhs


def test_matrix_and_componentwise_actions_agree():
    gm = braid.LambdaMatrix.generic(3, 4)
    for b in [braid.adjacent(1), braid.adjacent(2), braid.wrap()]:
        via_fam = braid.act_frakDn(b, gm)
        via_mat = braid.act_matrix(b, gm)
        window = min(via_fam.cert, via_mat.cert)
        assert window >= 1
        for k in range(window + 1):
            assert via_fam.coefficient(k) == via_mat.coefficient(k)


def test_combination_streams_transform_consistently():
    rep = braid.combination_transform_check(3)
    assert all(rep.values()), rep


@pytest.mark.parametrize("i,ip,x", [(1, 2, E("lam", 0)), (3, 1, E("lam")),
                                    (1, 3, E("lam", -1))])
def test_elementary_inverse_is_the_swapped_pair(i, ip, x):
    g = E("g")
    b = braid.elementary_matrix(3, i, ip, g, x)
    assert b * braid.elementary_matrix(3, ip, i, g, x.inverse()) \
        == Mat.identity(3)


def test_lambda_window_holds_the_certified_coefficients():
    gm = braid.act_matrix(braid.wrap(), braid.LambdaMatrix.generic(3, 4))
    expected = Mat.zero(3)
    for k in range(gm.cert + 1):
        expected = expected + gm.coefficient(k).scale(E("lam", -k))
    assert gm.window(gm.cert) == expected
    with pytest.raises(braid.CertificationError):
        gm.window(gm.cert + 1)


@pytest.mark.parametrize("n", [3, 4])
def test_wrap_relation_is_compared_below_level_zero(n):
    # the wrap's relation word holds two wraps, which consume four levels:
    # it is compared on lam^0 .. lam^-2, not at lam^0 only
    checks = braid.verify_relations("frakD", n)["checks"]
    window = [int(c["relation"].rsplit(" ", 1)[1]) for c in checks
              if c["relation"].startswith(f"RRR(adj{n - 1},wrap0)")]
    assert window and window[0] >= 2


def test_an_inverse_verdict_fails_a_rule_that_does_not_undo_the_matrix(
        monkeypatch):
    # an inverse verdict applies act_matrix, then act_frakDn of the
    # inverse: a componentwise rule that leaves the wrap out fails it
    act = braid.act_frakDn
    monkeypatch.setattr(braid, "act_frakDn", lambda b, gm: gm
                        if b.kind == braid.WRAP else act(b, gm))
    checks = {c["relation"]: c["ok"]
              for c in braid.verify_relations("frakD", 3)["checks"]}
    assert not checks["inverse(wrap0)"]
    assert checks["inverse(adj1)"]


def _generators(n):
    return [braid.adjacent(i, inv) for i in range(1, n)
            for inv in (False, True)] + [braid.wrap(), braid.wrap(True)]


@pytest.mark.parametrize("n,cap", [(3, 4), (3, 6), (4, 4), (4, 6)])
def test_gcal_holds_the_exchange_rule_at_level_zero(n, cap):
    # Gcal stores level 0 above the diagonal only; levels() derives the
    # rest (mirror, diagonal 2), which must be what the exchange rule
    # itself gives there, for every generator and inverse
    level = dn_algebra(n).canonical
    gm = braid.LambdaMatrix.generic(n, cap)
    for b in _generators(n):
        new = braid._exchange(level, *braid._pair(b, n))
        derived = braid.act_frakDn(b, gm).levels()
        for a in range(1, n + 1):
            for c in range(1, a + 1):
                assert new(a, c, 0) == derived[a, c, 0], (b, a, c)
