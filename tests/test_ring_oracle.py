"""The exact ring checked against sympy, which shares none of its code.

Coefficients mix ints and Fractions, exponents may be negative.  `dot` is
checked as the sum of its products, `gradient` against `sympy.diff`, `at`
against sympy's evaluation and `jacobian_rank` against the rank of the
`gradient`/`subst` Jacobian, and `Mat.det_by_power` against a Leibniz sum
over permutations on plain tuples.  Also the representations themselves: an
integral result is stored as an int, `as_rational()` always hands back a
Fraction, monomials decode to name-sorted letters whatever order their
symbols were first used in, and an exponent past the packed range raises
instead of wrapping.
"""

import random
from fractions import Fraction
from operator import add

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from geoalg import centers
from geoalg.dn_algebra import dnp_algebra
from geoalg.poly_core import (E, Expr, Mat, ONE, ZERO, _VECTOR_TERMS, const,
                              dot, parse, rational_rank)

NAMES = ("x", "y", "z")
# names the parser reads back, not in alphabetical order of first use;
# "h" is the first symbol made (by geoalg.reductions, on import), so the
# lowest digit of a packed monomial is read too
WIDE = ("z", "lam", "G[1,2,0]", "x", "Ghat[1,2]", "s1", "y", "G[1,10,2]",
        "h")
SYMS = {name: sympy.Symbol(name) for name in NAMES + WIDE}

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def exprs(max_terms=4, names=NAMES, max_letters=3, min_terms=0):
    monos = st.lists(
        st.tuples(st.sampled_from(names), st.integers(-3, 3)),
        max_size=max_letters)
    return st.lists(st.tuples(monos, rationals), min_size=min_terms,
                    max_size=max_terms).map(_build)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(rationals, exprs(names=WIDE), exprs(names=WIDE)),
                max_size=5))
def test_dot_matches_sympy(triples):
    want = sum((sympy.Rational(c.numerator, c.denominator) * to_sympy(x)
                * to_sympy(y) for c, x, y in triples), sympy.Integer(0))
    got = dot(triples)
    assert same(got, want)
    assert well_typed(got)
    # the sum with every product taken back cancels to the zero value
    back = [(-c, y, x) for c, x, y in reversed(triples)]
    assert dot(triples + back) == ZERO
    assert dot(triples + back).is_zero()


def test_integral_results_store_ints():
    half = const(Fraction(1, 2))
    assert type(dict((half * 2).terms())[()]) is int
    assert type(dict((half + half).terms())[()]) is int
    assert type(dict((E("x") * half * const(4)).terms())[(("x", 1),)]) is int
    assert type(dict(half.inverse().terms())[()]) is int
    assert type(dict((half * E("x", 2)).gradient()["x"].terms())[
        (("x", 1),)]) is int
    assert type(dict(parse("4/2 x").terms())[(("x", 1),)]) is int
    assert type(dict(Expr({(): Fraction(6, 3)}).terms())[()]) is int
    x = E("x", -1)
    total = dot([(Fraction(1, 2), x, const(3)), (Fraction(3, 2), ONE, x),
                 (1, half, x * 2)])
    assert type(dict(total.terms())[(("x", -1),)]) is int


def test_as_rational_is_always_a_fraction():
    for e in (ZERO, const(2), const(Fraction(4, 2)), const(Fraction(1, 3)),
              const(Fraction(1, 2)) * 2, parse("x + 2").subst({"x": 1})):
        assert type(e.as_rational()) is Fraction
    # integral values divide exactly, not as floats
    a = parse("2 x").subst({"x": 5}).as_rational()
    b = parse("3 x").subst({"x": 5}).as_rational()
    assert a / b == Fraction(2, 3)


def test_casimir_fit_exact_at_integer_points():
    p = parse("G[1,2,0] G[2,3,0] + G[1,3,0]")
    # at integer points `at` still hands back Fractions, so a slope fitted
    # between two samples (2/3 here) is exact, not a float quotient of ints
    pts = [{"G[1,2,0]": 1, "G[2,3,0]": 2, "G[1,3,0]": 3},
           {"G[1,2,0]": 4, "G[2,3,0]": -1, "G[1,3,0]": 2}]
    c1, c2 = ((2 * p + 5).at(pt) for pt in pts)
    r1, r2 = ((3 * p).at(pt) for pt in pts)
    assert all(type(v) is Fraction for v in (c1, c2, r1, r2))
    assert (c1 - c2) / (r1 - r2) == Fraction(2, 3)
    assert c1 - Fraction(2, 3) * r1 == 5


@settings(max_examples=80, deadline=None)
@given(exprs(names=WIDE), st.sampled_from(WIDE))
def test_diff_and_coeffs_in_match_sympy(a, name):
    s, x = to_sympy(a), SYMS[name]
    d = a.gradient().get(name, ZERO)
    assert same(d, sympy.diff(s, x))
    assert well_typed(d)
    # the split in one symbol is the unique one with coefficients free of it
    parts = a.coeffs_in(name)
    assert all(c and name not in c.symbols() for c in parts.values())
    assert same(sum((c * E(name, k) for k, c in parts.items()), ZERO), s)
    for k, c in parts.items():
        assert a.coeff_of(name, k) == c


@settings(max_examples=80, deadline=None)
@given(exprs(names=WIDE), st.sampled_from(WIDE + ("absent",)),
       st.integers(-4, 4), st.integers(0, 4))
def test_window_matches_sympy(a, name, lo, width):
    # the terms whose exponent of *name* lies in lo..lo+width
    x = sympy.Symbol(name)
    want = sum((t for t in sympy.Add.make_args(sympy.expand(to_sympy(a)))
                if lo <= t.as_powers_dict().get(x, 0) <= lo + width),
               sympy.Integer(0))
    assert same(a.window(name, lo, lo + width), want)


@settings(max_examples=80, deadline=None)
@given(exprs(names=WIDE))
def test_symbols_match_sympy(a):
    want = {str(x) for x in sympy.expand(to_sympy(a)).free_symbols}
    assert a.symbols() == want


@settings(max_examples=60, deadline=None)
@given(exprs(max_terms=1, names=WIDE), rationals)
def test_inverse_matches_sympy(a, c):
    m = a * const(c or 1) + (ONE if a.is_zero() else ZERO)
    assert same(m.inverse(), 1 / to_sympy(m))
    assert m * m.inverse() == ONE


@settings(max_examples=80, deadline=None)
@given(exprs(names=WIDE, max_terms=6))
def test_gradient_is_every_nonzero_partial(a):
    s, grad = to_sympy(a), a.gradient()
    for name in WIDE + ("absent",):
        want = sympy.diff(s, sympy.Symbol(name))
        assert (name in grad) == (sympy.expand(want) != 0), name
        assert same(grad.get(name, ZERO), want)
    assert all(well_typed(d) for d in grad.values())


# int and Fraction coordinates, 0 among them
points = st.fixed_dictionaries({name: st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
    for name in WIDE})


@settings(max_examples=100, deadline=None)
@given(exprs(names=WIDE, max_terms=6), points)
def test_at_matches_sympy(a, point):
    pole = any(k < 0 and point[name] == 0
               for mono, _ in a.terms() for name, k in mono)
    if pole:  # a negative power meets 0
        with pytest.raises(ZeroDivisionError):
            a.at(point)
        return
    want = to_sympy(a).xreplace({SYMS[name]: sympy.Rational(
        v.numerator, v.denominator) for name, v in point.items()})
    got = a.at(point)
    assert type(got) is Fraction
    assert got == Fraction(int(want.p), int(want.q))


@settings(max_examples=100, deadline=None)
@given(exprs(names=WIDE, max_terms=6), points.filter(
    lambda point: all(point.values())))
def test_at_float_points_are_close(a, point):
    exact = a.at(point)
    got = a.at({name: float(v) for name, v in point.items()})
    assert (type(got) is float) == (not a.is_rational())
    # rounding is relative to the terms' magnitudes, not to a cancelled sum
    scale = sum(abs(Expr({mono: c}).at(point)) for mono, c in a.terms())
    assert abs(got - exact) <= 1e-12 * max(1, scale)


def test_at_is_exact_and_names_what_is_unbound():
    assert parse("x^-2 + 1/2").at({"x": 2}) == Fraction(3, 4)
    assert type(const(3).at({})) is Fraction
    assert ZERO.at({}) == 0
    with pytest.raises(ZeroDivisionError):
        E("x", -1).at({"x": 0.0})
    with pytest.raises(ValueError, match="y is not bound"):
        parse("x y").at({"x": 1})


@pytest.mark.parametrize("n,p", [(3, 2), (2, 3)])
def test_jacobian_rank_matches_diff_and_subst(n, p):
    cs = centers.centers_Dnp(n, p)
    symbols = centers.generator_symbols(dnp_algebra(n, p))
    rng = random.Random(0)
    pts = [{s: 1 for s in symbols}]
    pts += [centers._random_point(symbols, rng) for _ in range(4)]
    for pt, rank in zip(pts, cs.meta["jacobian_ranks"], strict=True):
        grads = [c.gradient() for c in cs.coefficients]
        rows = [[g.get(s, ZERO).subst(pt).as_rational() for s in symbols]
                for g in grads]
        assert centers.jacobian_rank(cs.coefficients, symbols, pt) == rank
        assert sympy.Matrix(rows).rank() == rank


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_rational_rank_matches_sympy(rows, inner, cols, data):
    # a product of rows x inner and inner x cols factors: rank <= inner
    def mat(n, m):
        return [[data.draw(rationals) for _ in range(m)] for _ in range(n)]
    a, b = mat(rows, inner), mat(inner, cols)
    m = [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
          for j in range(cols)] for i in range(rows)]
    want = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator)
                                     for row in m for x in row]).rank()
    assert rational_rank(m) == want


@settings(max_examples=80, deadline=None)
@given(exprs(names=WIDE, max_terms=5))
def test_parse_round_trips_str(a):
    text = str(a)
    assert parse(text) == a
    assert str(parse(text)) == text


TOP = 2 ** 15 - 1
# "late*" are first used after 300 other symbols (in the printer test)
PRINTED = ("h", "x", "G[1,2,0]", "late_z", "late_a", "late_m")


def reference_str(e: Expr) -> str:
    """The printing contract, from terms() alone: terms ordered by their
    name-sorted letter tuples, fewer letters first; a coefficient of +-1 is
    left out before letters; x^1 prints as x."""
    terms = sorted(e.terms(), key=lambda t: (len(t[0]), t[0]))
    out = ""
    for k, (mono, c) in enumerate(terms):
        body = "*".join(v if p == 1 else f"{v}^{p}" for v, p in mono)
        text = body if body and abs(c) == 1 else \
            f"{abs(c)}*{body}" if body else str(abs(c))
        if k == 0:
            out = "-" + text if c < 0 else text
        else:
            out += (" - " if c < 0 else " + ") + text
    return out or "0"


@settings(max_examples=60, deadline=None)
@given(exprs(names=WIDE, max_terms=12, max_letters=4, min_terms=8),
       exprs(names=WIDE, max_terms=12, max_letters=4, min_terms=8),
       exprs(names=WIDE, max_terms=3), rationals)
def test_str_matches_reference_printer(a, b, c, k):
    # the products reach past the printer's vector cut; a and c stay below
    for e in (a, c, a * b + const(k), a * b * (c + 1) - const(k)):
        assert str(e) == reference_str(e)


def test_str_of_casimirs_matches_reference_printer():
    sizes = []
    for e in centers.centers_An(5).coefficients + \
            centers.centers_An(6).coefficients:
        assert str(e) == reference_str(e)
        sizes.append(len(list(e.terms())))
    # both the per-term and the vector path print a coefficient
    assert min(sizes) < _VECTOR_TERMS <= max(sizes)


def test_str_orders_the_largest_exponents():
    # +-(2^15 - 1) sort apart from each other and from a missing letter
    top = 2 ** 15 - 1
    e = sum((E("x", k) * E("y", top) + E("y", -top) * E("z", k)
             + E("x", top) * E("z", -k) for k in range(-30, 30)), ONE)
    assert len(list(e.terms())) >= _VECTOR_TERMS
    assert str(e) == reference_str(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.booleans(),
       st.booleans())
def test_vector_printer_matches_reference_printer(seed, letters, wide,
                                                  constant):
    # values past the vector cut over names interned early ("h" is the
    # first symbol) and late (ids past 300, so their rows are wide and
    # mostly empty), up to *letters* letters a term, +-1 and Fraction
    # coefficients, maybe a constant, maybe +-(2^15 - 1) beside small
    # exponents; each is printed negated too, so a first term is negative
    for i in range(300):
        E(f"pad{i}")
    rng = random.Random(seed)
    names = rng.sample(PRINTED, rng.randint(3, len(PRINTED)))
    small = [k for k in range(-40, 41) if k]
    exponents = small + [TOP, -TOP] * 40 if wide else small

    def coeff():
        return rng.choice((1, -1, Fraction(rng.randint(-9, 9) or 1,
                                           rng.randint(1, 6))))

    terms, size = {}, _VECTOR_TERMS + rng.randrange(_VECTOR_TERMS)
    while len(terms) < size:
        mono = sorted(rng.sample(names, rng.randint(1, letters)))
        terms[tuple((v, rng.choice(exponents)) for v in mono)] = coeff()
    if constant:
        terms[()] = coeff()
    e = Expr(terms)
    assert len(e) >= _VECTOR_TERMS
    for value in (e, -e):
        assert str(value) == reference_str(value)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(exprs(max_terms=2, max_letters=2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_with_laurent_entries_matches_sympy(rows):
    # sympy's determinant runs over QQ[x, y, z], so every entry is first
    # multiplied by a monomial that clears its negative powers
    n, shift = len(rows), E("x", 6) * E("y", 6) * E("z", 6)
    dm = DomainMatrix.from_list_sympy(
        n, n, [[to_sympy(e * shift) for e in row] for row in rows])
    got = Mat(rows).det()
    assert same(got * shift ** n, dm.domain.to_sympy(dm.det()))
    assert well_typed(got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_by_power_is_the_det_graded(data):
    # entries carry several powers of lam (and none), some are zero, and
    # a row may be zero; lo ranges past both ends of the powers
    n = data.draw(st.integers(0, 5), label="n")
    entry = st.one_of(st.just(ZERO),
                      exprs(max_terms=3, names=("x", "lam"), max_letters=2))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    if n and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = [ZERO] * n
    m = Mat(rows)
    full = m.det().coeffs_in("lam")
    assert m.det_by_power("lam") == full
    lo = data.draw(st.integers(-8, 8), label="lo")
    assert m.det_by_power("lam", lo) == {k: c for k, c in full.items()
                                          if k >= lo}


def leibniz_by_power(entries) -> dict:
    """{k: {exponents of NAMES: coefficient}} of lam^k in the determinant
    of the matrix whose entries are lists of (power of lam, exponents of
    NAMES, coefficient) terms: the sum over permutations p of sign(p)
    times the product of entries[i][p(i)], taken one term of each entry
    at a time on plain tuples and dicts (no Expr, dot or coeffs_in).
    Rows are placed in order, so permutations that share their first
    rows share that part of the product."""
    n, out = len(entries), {}

    def place(i, used, sign, k, exps, coeff):
        if i == n:
            part = out.setdefault(k, {})
            part[exps] = part.get(exps, 0) + sign * coeff
            return
        for j in range(n):
            if j not in used:
                # each used column right of j is one more inversion
                s = sign * (-1) ** sum(c > j for c in used)
                for q, e, c in entries[i][j]:
                    place(i + 1, used | {j}, s, k + q,
                          tuple(map(add, exps, e)), coeff * c)

    place(0, frozenset(), 1, 0, (0, 0, 0), 1)
    out = {k: {e: c for e, c in part.items() if c} for k, part in out.items()}
    return {k: part for k, part in out.items() if part}


def leibniz_terms(c: Expr) -> dict:
    """{exponents of NAMES: coefficient} of an Expr in NAMES."""
    return {tuple(dict(mono).get(s, 0) for s in NAMES): v
            for mono, v in c.terms()}


@pytest.mark.parametrize("n", range(8))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_det_by_power_matches_a_leibniz_sum(n, data):
    # test_det_by_power_is_the_det_graded compares det_by_power with det(),
    # which is det_by_power itself, so it is no oracle; this one is.  Odd n
    # gives halves of unequal size; n = 6 and 7 (5,040 permutations) have
    # single-term entries with int coefficients, to stay under a second.
    # Entries carry several powers of lam, some are zero, a row may be
    # zero, and lo runs past both ends of the powers.
    most = 1 if n >= 6 else 2 if n == 5 else 3
    coeff = st.integers(-3, 3) if n >= 6 else rationals  # Fractions are slow
    term = st.tuples(st.integers(-2, 2), st.tuples(*[st.integers(-2, 2)] * 3),
                     coeff.filter(bool))
    entries = [[data.draw(st.lists(term, min_size=1, max_size=most))
                for _ in range(n)] for _ in range(n)]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in data.draw(st.sets(cells, max_size=n)) if n else ():
        entries[i][j] = []
    if n and data.draw(st.integers(0, 3)) == 0:
        entries[data.draw(st.integers(0, n - 1))] = [[]] * n
    m = Mat([[sum((const(c) * E("lam", q) * E("x", a) * E("y", b)
                   * E("z", d) for q, (a, b, d), c in entry), ZERO)
              for entry in row] for row in entries])
    want = leibniz_by_power(entries)
    got = m.det_by_power("lam")
    assert {k: leibniz_terms(c) for k, c in got.items()} == want
    low, high = min(want, default=0), max(want, default=0)
    lo = data.draw(st.integers(low - 2, high + 2), label="lo")
    got = m.det_by_power("lam", lo)
    assert {k: leibniz_terms(c) for k, c in got.items()} == {
        k: part for k, part in want.items() if k >= lo}


def test_terms_are_sorted_by_name_not_by_first_use():
    late, early = E("zq9"), E("aq9")  # "zq9" gets the smaller id
    e = const(Fraction(-3, 2)) * early * late ** -2 + late
    assert list(e.terms()) == [((("aq9", 1), ("zq9", -2)), Fraction(-3, 2)),
                               ((("zq9", 1),), 1)]
    assert str(e) == "zq9 - 3/2*aq9*zq9^-2"
    assert Expr({(("zq9", -2), ("aq9", 1)): Fraction(-3, 2),
                 (("zq9", 1),): 1}) == e
    # the digit walk meets "zq9" first, past the cut as below it
    big = sum((late * E("x", k) - early * E("y", k) for k in range(40)), e)
    assert len(e) < _VECTOR_TERMS <= len(big)
    for value in (e, big):
        assert all(list(mono) == sorted(mono) for mono, _ in value.terms())
        assert str(value) == reference_str(value)


def test_largest_exponents_round_trip():
    top = 2 ** 15 - 1
    e = E("x", top) * E("y", -top) + E("x", -top) - 3 * E("y", top)
    assert parse(str(e)) == e
    assert dict(e.terms()) == {(("x", top), ("y", -top)): 1,
                               (("x", -top),): 1, (("y", top),): -3}
    assert str(e) == reference_str(e)
    # the range is checked symbol by symbol, not on the sum of the bounds
    assert E("x", top) * E("x", -1) == E("x", top - 1)
    assert E("x", top) * E("x", -top) == ONE


@pytest.mark.parametrize("build", [
    lambda: E("x", 2 ** 15),
    lambda: E("x", -(2 ** 15)),
    lambda: E("x", 20000) * E("x", 20000),
    lambda: dot([(1, E("x", 20000), E("x", 20000))]),
    lambda: E("x", 200) ** 200,
    lambda: E("x", -(2 ** 15 - 1)).gradient(),
    lambda: Expr({(("x", 40000),): 1}),
    lambda: Expr({(("x", 20000), ("x", 20000)): 1}),
    lambda: E("x", 20000).subst({"x": E("y", 2)}),
    lambda: parse("x^40000"),
])
def test_exponent_overflow_raises(build):
    # a carry would silently change the monomial: it must raise instead
    with pytest.raises(OverflowError):
        build()
