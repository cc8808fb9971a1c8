"""Structure-constant engines for the level-graded Poisson algebras.

Generators are the symbols G[i,j,k] standing for the geodesic functions
G^(k)_{i,j} = -Tr(M_i M_h^k M_j M_h^-k) on the annulus with n orbifold
points; level 0 is the polygon (A_n / Nelson-Regge) algebra.  The mirror
relation G^(k)_{i,j} = G^(-k)_{j,i} fixes the canonical storage: k >= 1
with arbitrary (i,j), or k = 0 with i <= j; G[i,i,0] is the constant 2.

The bracket is given by closed-form structure constants (quadratic in the
generators, with the sign function epsilon of index differences and
telescoping level sums).  Everything here is exact over Q; the infinite
family closes at levels <= m + k, so no truncation is ever needed.

Each algebra compiles its structure constants into one table (_Table,
one per algebra and process).  Each canonical generator triple has an int
id from 1 up; one index canonicalization, (i, j, k) -> (factor, id or
None for the constant 2), also serves GenAlgebra.canonical.  The row of
an id pair is {G_x, G_y} = sum c G_u G_v as a tuple of term tuples
(c, m, u, v), built once from the (c, x, y) lists of _structure_constant
with no Expr: m is the packed monomial of G_u G_v, constants are folded
into c, id 0 is the factor 1, and d/dG_u of a term is c G_v.  Readers:
_pair_bracket (a row's Expr), jacobi_check, the Stokes realization
(sum c v[u] v[v] at floats) and representative_independence.

The same structure constants are packaged as a generating-function
identity: with

    Gcal_{i,j}(lam) = A0_{i,j} + sum_{k>=1} G^(k)_{i,j} lam^-k,

A0 upper-triangular with unit diagonal, the bracket of two matrix entries
of Gcal is a rational-kernel quadratic expression, the entry of a
classical twisted reflection equation.  The generating-function form and
the reflection form are one entrywise check (generating_bracket): both
sides are Exprs in lam, mu, the kernels are the entries of
classical_r_matrix over lam - mu and over 1/lam - mu, and the sides are
compared coefficient by coefficient up to lam^-order mu^-order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .poly_core import (Expr, E, ZERO, ONE, _expr, _normalized, _rat,
                        _symbol, const, dot, gen, parse_gen, parse_ghat)

FLAVOR_A = "A"
FLAVOR_D = "D"
FLAVOR_DP = "Dp"


def _eps(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class GenAlgebra:
    """A Poisson algebra of generators G[i,j,k] of rank n.

    flavor "A": level 0 only; "D": all levels k >= 0; "Dp": levels folded
    by the period relation G^(k)_{i,j} = G^(p-k)_{j,i}.
    """

    n: int
    flavor: str = FLAVOR_D
    period: int = 0

    def __post_init__(self):
        if self.flavor not in (FLAVOR_A, FLAVOR_D, FLAVOR_DP):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == FLAVOR_DP and self.period < 1:
            raise ValueError("periodic flavor needs period >= 1")

    def check_index(self, i: int, j: int, k: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator index ({i},{j}) outside 1..{self.n}")
        if self.flavor == FLAVOR_A and k != 0:
            raise ValueError("level-0 algebra has no higher-level generators")

    def canonical(self, i: int, j: int, k: int) -> Expr:
        """G^(k)_{i,j} as symbol / constant in canonical storage form."""
        table = _table(self)
        factor, x = table.canonical(i, j, k)
        return const(factor) if x is None else E(gen(*table.triples[x]))


def an_algebra(n: int) -> GenAlgebra:
    return GenAlgebra(n, FLAVOR_A)


def dn_algebra(n: int) -> GenAlgebra:
    return GenAlgebra(n, FLAVOR_D)


def dnp_algebra(n: int, p: int) -> GenAlgebra:
    return GenAlgebra(n, FLAVOR_DP, p)


def generator_tuples(n: int, level: int) -> list:
    """Index triples (i, j, k) of the generators up to *level*: i < j at
    level 0, every ordered pair at each level k >= 1."""
    gens = [(i, j, 0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for k in range(1, level + 1):
        gens += [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)]
    return gens


class _Table:
    """The structure constants of one algebra, by generator id."""

    def __init__(self, alg: GenAlgebra):
        self.alg = alg
        self.index = {}        # (i, j, k) -> (factor, id or None)
        self.triples = [None]  # id -> canonical triple (id 0: the factor 1)
        self.units = [0]       # id -> packed monomial of G_id
        self.monos = {}        # packed monomial -> its one copy in the rows
        self.rows = {}         # (x, y) -> the row of {G_x, G_y}

    def canonical(self, i: int, j: int, k: int) -> tuple:
        """(factor, id) with G^(k)_{i,j} = factor * G_id, or (2, None) for
        the constant G[i,i,0]."""
        a = i, j, k
        hit = self.index.get(a)
        if hit is None:
            self.alg.check_index(i, j, k)
            if self.alg.flavor == FLAVOR_DP:
                p = self.alg.period
                k %= p
                # fold the upper half of the period window via the mirror
                if k and (2 * k > p or (2 * k == p and i > j)):
                    i, j, k = j, i, p - k
            if k < 0 or (k == 0 and i > j):
                i, j, k = j, i, -k
            hit = (2, None) if i == j and k == 0 else self.index.get((i, j, k))
            if hit is None:
                hit = self.index[i, j, k] = 1, len(self.triples)
                self.triples.append((i, j, k))
                self.units.append(_symbol(gen(i, j, k))[0])
            self.index[a] = hit
        return hit

    def row(self, x: int, y: int) -> tuple:
        """The row of {G_x, G_y}, built on first use."""
        row = self.rows.get((x, y))
        if row is None:
            row = self.rows[x, y] = self.compile(_structure_constant(
                self.alg, self.triples[x], self.triples[y]))
        return row

    def pair(self, a, b) -> tuple:
        """The row of {G_a, G_b} for index triples a, b."""
        x, y = self.canonical(*a)[1], self.canonical(*b)[1]
        return () if x is None or y is None else self.row(x, y)

    def compile(self, terms) -> tuple:
        """The row of sum c G_x G_y over (c, x, y), x and y index triples."""
        units, share = self.units, self.monos.setdefault
        index, canonical = self.index.get, self.canonical
        acc = {}  # packed monomial -> [c, u, v], u <= v
        for c, a, b in terms:
            fa, u = index(a) or canonical(*a)
            fb, v = index(b) or canonical(*b)
            u, v = u or 0, v or 0
            if u > v:
                u, v = v, u
            acc.setdefault(units[u] + units[v], [0, u, v])[0] += c * fa * fb
        return tuple((_rat(c), share(m, m), u, v)
                     for m, (c, u, v) in sorted(acc.items()) if c)


@cache
def _table(alg: GenAlgebra) -> _Table:
    return _Table(alg)


def _pair_bracket(alg: GenAlgebra, a, b) -> Expr:
    """{G^(m)_{j,i}, G^(k)_{p,l}}: the Expr of the table's row."""
    t = _table(alg).pair(a, b)
    return _expr({m: c for c, m, _, _ in t}, 2)  # exponents are <= 2


def _structure_constant(alg: GenAlgebra, a, b) -> list:
    """{G^(m)_{j,i}, G^(k)_{p,l}} from the closed form, as a list of
    (c, x, y): the terms c * G_x * G_y, x and y index triples."""
    (j, i, m), (p, l, k) = a, b
    if m < 0:
        j, i, m = i, j, -m
    if k < 0:
        p, l, k = l, p, -k
    if m > k:
        return [(-c, x, y) for c, x, y in _structure_constant(alg, b, a)]
    if m == 0:
        c1 = _eps(j - l) - _eps(i - l)
        c2 = _eps(j - p) - _eps(i - p)
        terms = [(c1, (l, i, 0), (p, j, k)), (-c1, (l, j, 0), (p, i, k)),
                 (c2, (p, i, 0), (j, l, k)), (-c2, (p, j, 0), (i, l, k))]
    else:  # 0 < m <= k
        c1, c2, c3, c4 = _eps(i - l), _eps(i - p), _eps(j - l), _eps(j - p)
        terms = [(c1, (p, i, k), (j, l, m)), (-c1, (i, l, 0), (p, j, k - m)),
                 (c2, (j, p, m), (i, l, k)), (-c2, (i, p, 0), (j, l, k + m)),
                 (c3, (p, j, k), (l, i, m)), (-c3, (j, l, 0), (p, i, k + m)),
                 (c4, (p, i, m), (j, l, k)), (-c4, (j, p, 0), (i, l, k - m))]
        for r in range(m + 1):
            c = 1 if r in (0, m) else 2
            terms += [(c, (p, i, k + m - r), (j, l, r)),
                      (-c, (p, i, m - r), (j, l, k + r)),
                      (c, (i, l, k - m + r), (j, p, r)),
                      (-c, (l, i, r), (p, j, k - m + r))]
    return [t for t in terms if t[0]]


def _generator_partials(alg: GenAlgebra, f: Expr) -> list:
    """[(index triple, df/dG)] over the generators G that f depends on."""
    out = []
    for s, df in f.gradient().items():
        a = parse_gen(s)
        if a is not None:
            alg.check_index(*a)
            out.append((a, df))
        elif parse_ghat(s):
            raise ValueError(f"{s} is a reduced generator; brackets take "
                             f"G[i,j,k] generators")
    return out


def _leibniz_terms(alg: GenAlgebra, f: Expr, g: Expr) -> list:
    """The triples (1, df/dG_a * dg/dG_b, {G_a, G_b}) that dot sums to
    {f, g}."""
    dfs = _generator_partials(alg, f)
    if not dfs:
        return []
    dgs = _generator_partials(alg, g)
    return [(1, df * dg, _pair_bracket(alg, a, b))
            for a, df in dfs for b, dg in dgs]


def bracket(alg: GenAlgebra, f: Expr, g: Expr) -> Expr:
    """Leibniz extension of the structure constants to polynomials."""
    return dot(_leibniz_terms(alg, f, g))


def jacobi_check(alg: GenAlgebra, a, b, c) -> Expr:
    """{{G_a,G_b},G_c} + {{G_b,G_c},G_a} + {{G_c,G_a},G_b} for generator
    index triples a, b, c; zero iff Jacobi holds on them.

    Each term is sum_w d{G_x,G_y}/dG_w {G_w,G_z}, read off the table's
    rows: a term c G_u G_v of {G_x,G_y} meets each term k2 m2 of
    {G_u,G_z} as c k2 on G_v m2 (and of {G_v,G_z} as c k2 on G_u m2),
    summed in one dict keyed by the packed monomial.  Generators
    suffice: the Jacobiator of a biderivation is a derivation in each
    argument, so Jacobi on the generators implies it on every polynomial.
    """
    table = _table(alg)
    x, y, z = (table.canonical(*t)[1] for t in (a, b, c))
    if None in (x, y, z):  # a bracket with a constant vanishes
        return ZERO
    acc = {}
    get = acc.get
    rows, row, units = table.rows, table.row, table.units
    for x, y, z in ((x, y, z), (y, z, x), (z, x, y)):
        for c, _, u, v in rows.get((x, y)) or row(x, y):
            # d/dG_w of c G_u G_v is c times the other factor, w = u, v
            for w, other in ((u, v), (v, u)):
                if not w:  # the factor 1
                    continue
                m = units[other]
                for k2, m2, _, _ in rows.get((w, z)) or row(w, z):
                    mono = m + m2
                    acc[mono] = get(mono, 0) + c * k2
    out = {m: c for m, c in acc.items() if c}
    return _normalized(out, 3) if out else ZERO


# ---------------------------------------------------------------------------
# generating-function / semiclassical reflection form
# ---------------------------------------------------------------------------
# Series are Exprs in the spectral symbols lam, mu.  The kernels reach
# positive powers of mu, so the kernel side is cut to the window lam^-a
# mu^-b, 0 <= a, b <= order, early in lam (per lam side), in mu at the end.


def gcal_entry(level, i: int, j: int, order: int, var="lam") -> Expr:
    """Gcal_{i,j}(var) = A0_{i,j} + sum_{k=1..order} G^(k)_{i,j} var^-k,
    with G^(k)_{i,j} = level(i, j, k): an algebra's canonical or a
    braid.LevelFamily's get."""
    a0 = ONE if i == j else (level(i, j, 0) if i < j else ZERO)
    return dot([(1, a0, ONE)] + [(1, level(i, j, k), E(var, -k))
                                 for k in range(1, order + 1)])


def _geometric(x: Expr, order: int) -> Expr:
    """1 + x + ... + x^order."""
    return sum((x ** r for r in range(order + 1)), ZERO)


def _kernels(n: int, order: int) -> tuple:
    """(r~, t~), keyed by (a, b).  r~(a,b) is the E_ab (x) E_ba entry
    r(lam, mu) of classical_r_matrix over lam - mu, expanded in mu/lam;
    t~(a,b) is r(1/lam, mu) over 1/lam - mu, expanded in 1/(lam mu).
    order + 1 geometric terms give every coefficient of the window
    exactly."""
    over = E("lam", -1) * _geometric(E("mu") * E("lam", -1), order)
    over_t = -E("mu", -1) * _geometric(E("lam", -1) * E("mu", -1), order)
    to_inverse = {"lam": E("lam", -1)}
    r = classical_r_matrix(n)
    idx = list(itertools.product(range(1, n + 1), repeat=2))
    return ({ab: r[ab, ab[::-1]] * over for ab in idx},
            {ab: r[ab, ab[::-1]].subst(to_inverse) * over_t for ab in idx})


def _reflection_tables(alg: GenAlgebra, order: int):
    """The Gcal entries and lam sides that generating_bracket combines.

    Gcal(lam) to lam^-order, Gcal(mu) to mu^-order (the bracket side) and
    to mu^-2order (the kernel side: a power (mu/lam)^r with r <= order
    meets mu^-(b+r)).  A term of the reflection form is (kernel *
    Gcal(lam)) * Gcal(mu), and its lam side reads three of the four
    indices: the four families of lam sides are built once per check,
    keyed by those three, and cut to lam^-order .. lam^0 at once.  The
    cut is exact, as Gcal(mu) holds no lam.
    """
    n = alg.n
    rng = range(1, n + 1)
    idx = list(itertools.product(rng, repeat=2))
    glam = {ij: gcal_entry(alg.canonical, *ij, order, "lam") for ij in idx}
    gmu = {ij: gcal_entry(alg.canonical, *ij, order, "mu") for ij in idx}
    gmu2 = {ij: gcal_entry(alg.canonical, *ij, 2 * order, "mu") for ij in idx}
    rt, tt = _kernels(n, order)
    side = lambda k, g: (k * g).window("lam", -order, 0)
    abc = list(itertools.product(rng, repeat=3))
    return glam, gmu, gmu2, (
        {(a, b, c): side(rt[a, b], glam[b, c]) for a, b, c in abc},
        {(a, b, c): side(rt[a, b], glam[c, a]) for a, b, c in abc},
        {(a, b, c): side(tt[a, b], glam[c, b]) for a, b, c in abc},
        {(a, b, c): side(tt[a, b], glam[a, c]) for a, b, c in abc})


def generating_bracket(alg: GenAlgebra, ji, pl, order: int, tables=None):
    """Both sides of the generating-function bracket identity.

    Left: {Gcal_{j,i}(lam), Gcal_{p,l}(mu)} by Leibniz from the structure
    constants (lam and mu are not generators).  Right: minus entry
    ((j,p),(i,l)) of the reflection form

        [r/(lam-mu), G1 G2] + G1 rT1/(lam^-1-mu) G2 - G2 rT1/(lam^-1-mu) G1,

    that is r~(j,p) G_pi(lam) G_jl(mu) - r~(l,i) G_jl(lam) G_pi(mu)
    + t~(i,p) G_jp(lam) G_il(mu) - t~(l,j) G_li(lam) G_pj(mu).  Returns
    (lhs, rhs) up to lam^-order mu^-order: the left side has no other
    terms, the right side is one dot of the four lam sides (already cut
    in lam) with their Gcal(mu), cut in mu.  *tables* is
    _reflection_tables(alg, order), built once for many entries.
    """
    glam, gmu, gmu2, (s1, s2, s3, s4) = (tables
                                         or _reflection_tables(alg, order))
    j, i = ji
    p, l = pl
    lhs = bracket(alg, glam[j, i], gmu[p, l])
    rhs = dot([(-1, s1[j, p, i], gmu2[j, l]), (1, s2[l, i, j], gmu2[p, i]),
               (-1, s3[i, p, j], gmu2[i, l]), (1, s4[l, j, i], gmu2[p, j])])
    return lhs, rhs.window("mu", -order, 0)


def semiclassical_reflection_check(alg: GenAlgebra, order: int):
    """Entrywise comparison of the bracket with the reflection form.

    Compares {Gcal(lam) (x), Gcal(mu)} with the reflection form entry by
    entry (generating_bracket), to the requested series order.  With the
    commutator and exchange terms oriented as there, the reflection form
    is the exact entrywise *negative* of the bracket (the orientation
    that makes the hbar^0 term of the quantum R-matrix come out as
    -(lam-mu) on the diagonal tensor part); the check compares against
    the orientation-corrected side and reports the global sign
    separately.  Returns a report dict.
    """
    n = alg.n
    tables = _reflection_tables(alg, order)
    mismatches = []
    checked = 0
    for j, i, p, l in itertools.product(range(1, n + 1), repeat=4):
        lhs, rhs = generating_bracket(alg, (j, i), (p, l), order, tables)
        checked += 1
        if lhs != rhs:
            mismatches.append(((j, i), (p, l), lhs, rhs))
    return {"checked": checked, "mismatches": mismatches,
            "ok": not mismatches, "printed_orientation_sign": -1}


def quantum_r_expansion(n: int):
    """Exact hbar-expansion of the quantum R-matrix at q = -exp(i pi hbar).

    Returns (h0, h1): dicts {((i,al),(j,be)): Expr in lam, mu} with the
    order-0 term and the coefficient of (i pi hbar).  h1 is the classical
    r-matrix; note the order-0 term is (lam - mu) on the off-diagonal
    tensor part but -(lam - mu) on the diagonal E_ii (x) E_ii part
    (q -> -1 makes q^-1 lam - q mu -> -(lam - mu)).
    """
    lam, mu = E("lam"), E("mu")
    h0 = {}
    h1 = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                h0[((i, j), (i, j))] = lam - mu
            else:
                # q^-1 lam - q mu at q=-e^{i pi hbar}:
                #   order 0: -(lam-mu); order (i pi hbar): lam + mu
                h0[((i, i), (i, i))] = -(lam - mu)
                h1[((i, i), (i, i))] = lam + mu
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                h1[((i, j), (j, i))] = const(2) * lam
            elif i > j:
                h1[((i, j), (j, i))] = const(2) * mu
    return h0, h1


def classical_r_matrix(n: int):
    """The classical r-matrix as a dict {((i,al),(j,be)): Expr in lam,mu}."""
    lam, mu = E("lam"), E("mu")
    out = {}
    for i in range(1, n + 1):
        out[((i, i), (i, i))] = lam + mu
        for j in range(1, n + 1):
            if i < j:
                out[((i, j), (j, i))] = const(2) * lam
            elif i > j:
                out[((i, j), (j, i))] = const(2) * mu
    return out
