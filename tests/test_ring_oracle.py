"""The exact ring checked against sympy, which shares none of its code.

Coefficients mix ints and Fractions, exponents may be negative.  Also the
coefficient representation itself: an integral result is stored as an int,
and `as_rational()` always hands back a Fraction.
"""

import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from geoalg import centers
from geoalg.poly_core import E, Expr, ZERO, const, parse

NAMES = ("x", "y", "z")
SYMS = {name: sympy.Symbol(name) for name in NAMES}

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def exprs(max_terms=4):
    monos = st.lists(
        st.tuples(st.sampled_from(NAMES), st.integers(-3, 3)), max_size=3)
    return st.lists(st.tuples(monos, rationals), max_size=max_terms).map(
        _build)


def _build(terms):
    out = ZERO
    for mono, c in terms:
        piece = const(c)
        for name, k in mono:
            piece = piece * E(name, k)
        out = out + piece
    return out


def to_sympy(e: Expr):
    total = sympy.Integer(0)
    for mono, c in e.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, k in mono:
            term *= SYMS[name] ** k
        total += term
    return total


def same(e: Expr, s) -> bool:
    return sympy.expand(to_sympy(e) - s) == 0


def well_typed(e: Expr) -> bool:
    """Integral coefficients are ints; only the others are Fractions."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for _, c in e.terms())


@settings(max_examples=80, deadline=None)
@given(exprs(), exprs())
def test_add_and_mul_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    for got, want in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)):
        assert same(got, want)
        assert well_typed(got)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.lists(st.tuples(st.sampled_from(NAMES),
                                   st.sampled_from(NAMES),
                                   st.integers(-2, 2), rationals,
                                   st.booleans()),
                         min_size=1, max_size=3))
def test_subst_matches_sympy(a, spec):
    # values are nonzero monomials (invertible, so negative powers are
    # fine) or, for names that appear with nonnegative powers only, a
    # binomial; names may map into one another (simultaneous substitution)
    negative = {n for mono, _ in a.terms() for n, k in mono if k < 0}
    bindings = {}
    for name, target, k, c, binomial in spec:
        value = const(c or 1) * E(target, k)
        if binomial and name not in negative:
            value = value + const(c)
        bindings[name] = value
    got = a.subst(bindings)
    want = to_sympy(a).xreplace(
        {SYMS[n]: to_sympy(v) for n, v in bindings.items()})
    assert same(got, want)
    assert well_typed(got)


def test_integral_results_store_ints():
    half = const(Fraction(1, 2))
    assert type(dict((half * 2).terms())[()]) is int
    assert type(dict((half + half).terms())[()]) is int
    assert type(dict((E("x") * half * const(4)).terms())[(("x", 1),)]) is int
    assert type(dict(half.inverse().terms())[()]) is int
    assert type(dict((half * E("x", 2)).diff("x").terms())[(("x", 1),)]) \
        is int
    assert type(dict(parse("4/2 x").terms())[(("x", 1),)]) is int
    assert type(dict(Expr({(): Fraction(6, 3)}).terms())[()]) is int


def test_as_rational_is_always_a_fraction():
    for e in (ZERO, const(2), const(Fraction(4, 2)), const(Fraction(1, 3)),
              const(Fraction(1, 2)) * 2, parse("x + 2").subst({"x": 1})):
        assert type(e.as_rational()) is Fraction
    # integral values divide exactly, not as floats
    a = parse("2 x").subst({"x": 5}).as_rational()
    b = parse("3 x").subst({"x": 5}).as_rational()
    assert a / b == Fraction(2, 3)


class _IntegerPoints(random.Random):
    """`centers._random_point` draws each denominator as randint(1, 7);
    pin those draws to 1 so that every sample point is integral."""

    def randint(self, a, b):
        return 1 if a == 1 else super().randint(a, b)


def test_casimir_fit_exact_at_integer_points():
    p = parse("G[1,2,0] G[2,3,0] + G[1,3,0]")
    # at integer points both sides take integer values, and the slope 2/3
    # must come out as a Fraction for the fit to be exact
    rep = centers.match_printed_casimirs([2 * p + 5], [3 * p],
                                         rng=_IntegerPoints(3))
    (fit,) = rep["fits"]
    assert rep["ok"] and fit["exact"]
    assert fit["alpha"] == Fraction(2, 3) and fit["beta"] == 5
