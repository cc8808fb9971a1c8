"""Ring axioms, calculus rules, and parsing for the exact Laurent ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geoalg.poly_core import (
    E, Expr, Mat, ONE, ZERO, const, gen, ghat, parse,
    parse_gen, parse_ghat,
)

NAMES = ("x", "y", "z")


def exprs(max_terms=4):
    monos = st.lists(
        st.tuples(st.sampled_from(NAMES), st.integers(-3, 3)),
        max_size=2)
    term = st.tuples(monos, st.integers(-5, 5))
    return st.lists(term, max_size=max_terms).map(_build)


def _build(terms):
    out = ZERO
    for mono, c in terms:
        piece = const(c)
        for name, k in mono:
            piece = piece * E(name, k)
        out = out + piece
    return out


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_diff_product_rule(a, b):
    da, db, dab = a.gradient(), b.gradient(), (a * b).gradient()
    for name in NAMES:
        lhs = dab.get(name, ZERO)
        rhs = da.get(name, ZERO) * b + a * db.get(name, ZERO)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_subst_identity(a):
    assert a.subst({n: E(n) for n in NAMES}) == a


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_rename_is_the_substitution_of_symbols(a):
    # a one-to-one map whose targets include symbols of the value itself
    names = {"x": "y", "y": "w", "z": "x"}
    assert a.rename(names) == a.subst({n: E(m) for n, m in names.items()})
    assert a.rename({n: n for n in NAMES}) == a


def test_monomial_inverse():
    m = const(Fraction(3, 2)) * E("x", 2) * E("y", -1)
    assert m * m.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        (E("x") + ONE).inverse()


def test_negative_powers():
    e = E("x") + E("y")
    assert E("x", -2) == E("x") ** -2
    assert e ** 0 == ONE
    assert (E("x", -1) * E("x")) == ONE


def test_coeff_views():
    e = E("x", 2) * E("y") + const(3) * E("x", -1) - E("y")
    by_x = e.coeffs_in("x")
    assert by_x[2] == E("y")
    assert by_x[-1] == const(3)
    assert by_x[0] == -E("y")
    assert e.coeff_of("x", 5) == ZERO


def test_generator_names():
    assert gen(1, 2, 3) == "G[1,2,3]"
    assert parse_gen("G[1,2,3]") == (1, 2, 3)
    assert parse_gen("H[1,2]") is None
    assert parse_ghat(ghat(2, 5)) == (2, 5)


@pytest.mark.parametrize("text", [
    "2*G[1,2,0]*G[3,4,0] - 2*G[1,4,0]*G[2,3,0]",
    "x^2 + 3/4 x^-1 - (y + 1)(y - 1)",
    "-lam^-2 + Ghat[1,2]^3",
])
def test_parse_round_trip(text):
    e = parse(text)
    assert parse(str(e)) == e


def test_parse_matches_arithmetic():
    assert parse("x^2 - 1") == E("x") ** 2 - ONE
    assert parse("1/2 x y^-1") == const(Fraction(1, 2)) * E("x") * E("y", -1)


def test_matrix_det_and_inverse_shape():
    m = Mat([[E("a"), E("b")], [E("c"), E("d")]])
    assert m.det() == E("a") * E("d") - E("b") * E("c")
    assert (m * Mat.identity(2)) == m
    assert m.transpose().transpose() == m


def test_matrix_det_laplace_vs_permutation():
    n = 3
    m = Mat([[E(f"a{i}{j}") for j in range(n)] for i in range(n)])
    # permanent-style expansion with signs, written out directly
    import itertools
    total = ZERO
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = const(sign)
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + term
    assert m.det() == total


def _an_matrix(n):
    a = Mat([[ONE if i == j else E(gen(i, j, 0)) if i < j else ZERO
              for j in range(1, n + 1)] for i in range(1, n + 1)])
    return a.scale(E("lam")) + a.transpose().scale(E("lam", -1))


def test_det_by_power_lo_keeps_exactly_the_powers_from_lo():
    for n in (3, 4, 5):
        m = _an_matrix(n)
        full = m.det_by_power("lam")
        assert full == m.det().coeffs_in("lam")
        for lo in range(-n - 2, n + 3):
            assert m.det_by_power("lam", lo) == {k: c for k, c in full.items()
                                                 if k >= lo}


@pytest.mark.parametrize("n", range(1, 7))
def test_an_determinant_is_palindromic(n):
    # M(1/lam) = M(lam)^T, so det M has equal coefficients at lam^+-k
    by_power = _an_matrix(n).det_by_power("lam")
    assert by_power[n] == ONE and set(by_power) == set(range(-n, n + 1, 2))
    assert all(by_power[-k] == c for k, c in by_power.items())


def test_constants_hash_as_their_value():
    # equal values must hash alike, so a constant Expr, an int and a
    # Fraction of the same value are one set element and one dict key
    assert const(2) == 2 and hash(const(2)) == hash(2)
    assert 2 in {const(2)} and const(2) in {2}
    assert 0 in {ZERO} and ZERO in {0}
    assert Fraction(1, 2) in {const(Fraction(1, 2))}
    assert len({const(2), 2, Fraction(2), const(1) + const(1)}) == 1
    table = {const(3): "three", ZERO: "zero", E("x"): "x"}
    assert table[3] == table[Fraction(3)] == "three"
    assert table[0] == "zero"
    assert table[parse("x")] == "x"
    assert E("x") not in {2} and 2 not in {E("x")}
