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
with no Expr: constants are folded into c, id 0 is the factor 1, and
d/dG_u of a term is c G_v.  m is the compact key of G_u G_v, the sum of
the units 1 << 2 id of its factors (0 for id 0): two bits per table id,
so its width follows the table, not every symbol the process has
interned, and it holds the multiplicity 3 of the cubes that Jacobiators
reach.  A row's terms are ordered by their compact keys.  The exact
readers sum them into dicts, where order is immaterial; only the float
sums of the Stokes realization follow it.  At unequal
canonical levels the closed form of {G_y, G_x} is the negated closed
form of {G_x, G_y}, so a row whose mirror is built is its negation.
Readers: _pair_bracket (a row's Expr), jacobi_check, the reflection
form, the Stokes realization (sum c v[u] v[v] at floats) and
representative_independence.

The same structure constants are packaged as a generating-function
identity: with

    Gcal_{i,j}(lam) = A0_{i,j} + sum_{k>=1} G^(k)_{i,j} lam^-k,

A0 upper-triangular with unit diagonal, the bracket of two matrix entries
of Gcal is a rational-kernel quadratic expression, the entry of a
classical twisted reflection equation.  The generating-function form and
the reflection form are one entrywise check (generating_bracket), made
coefficient by coefficient of lam^-K mu^-K', 0 <= K, K' <= order: the
kernels are the entries of classical_r_matrix over lam - mu and over
1/lam - mu, and each coefficient of either side is an integer form
sum c G_u G_v keyed by table ids, the left one read off the table's rows,
with no Expr in lam and mu.
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

    def storage_form(self, e: Expr) -> Expr:
        """*e* with every generator symbol in canonical storage form: the
        trace oracle and the braid substitutions index generators freely,
        and the period relation of `Dp` folds their levels (G[3,2,1] is
        G[2,3,1] at period 2)."""
        return e.subst({name: self.canonical(*idx) for name in e.symbols()
                        if (idx := parse_gen(name))})


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
        self.keys = [0]        # id -> compact key 1 << 2 id of G_id
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
                self.keys.append(1 << 2 * hit[1])
            self.index[a] = hit
        return hit

    def row(self, x: int, y: int) -> tuple:
        """The row of {G_x, G_y}, built on first use: the negated mirror
        row when that is built and the canonical levels differ (where
        _structure_constant negates the swapped closed form), else
        compiled from the closed form."""
        row = self.rows.get((x, y))
        if row is None:
            a, b = self.triples[x], self.triples[y]
            mirror = self.rows.get((y, x)) if a[2] != b[2] else None
            row = self.rows[x, y] = (
                self.compile(_structure_constant(self.alg, a, b))
                if mirror is None else _negated(mirror))
        return row

    def pair(self, a, b) -> tuple:
        """The row of {G_a, G_b} for index triples a, b."""
        x, y = self.canonical(*a)[1], self.canonical(*b)[1]
        return () if x is None or y is None else self.row(x, y)

    def compile(self, terms) -> tuple:
        """The row of sum c G_x G_y over (c, x, y), x and y index triples."""
        keys = self.keys
        index, canonical = self.index.get, self.canonical
        acc = {}  # compact key -> [c, u, v], u <= v
        for c, a, b in terms:
            fa, u = index(a) or canonical(*a)
            fb, v = index(b) or canonical(*b)
            u, v = u or 0, v or 0
            if u > v:
                u, v = v, u
            acc.setdefault(keys[u] + keys[v], [0, u, v])[0] += c * fa * fb
        return tuple((_rat(c), m, u, v)
                     for m, (c, u, v) in sorted(acc.items()) if c)

    def packed(self, key: int) -> int:
        """The packed monomial of the compact key *key*: digit i (bits
        2i, 2i + 1) is the multiplicity of G_i, and id 0 has none."""
        units = self.units
        mono, i = 0, 0
        key >>= 2
        while key:
            i += 1
            if key & 3:
                mono += (key & 3) * units[i]
            key >>= 2
        return mono


def _negated(row: tuple) -> tuple:
    """The row -{G_x, G_y} of a row {G_x, G_y}."""
    return tuple((-c, m, u, v) for c, m, u, v in row)


@cache
def _table(alg: GenAlgebra) -> _Table:
    return _Table(alg)


def _pair_bracket(alg: GenAlgebra, a, b) -> Expr:
    """{G^(m)_{j,i}, G^(k)_{p,l}}: the Expr of the table's row."""
    table = _table(alg)
    units = table.units
    return _expr({units[u] + units[v]: c for c, _, u, v in table.pair(a, b)},
                 2)  # exponents are <= 2


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


def bracket(alg: GenAlgebra, f: Expr, g: Expr) -> Expr:
    """Leibniz extension of the structure constants to polynomials: one dot
    over the triples (1, df/dG_a * dg/dG_b, {G_a, G_b})."""
    dfs = _generator_partials(alg, f)
    if not dfs:
        return ZERO
    dgs = _generator_partials(alg, g)
    return dot([(1, df * dg, _pair_bracket(alg, a, b))
                for a, df in dfs for b, dg in dgs])


def jacobi_check(alg: GenAlgebra, a, b, c) -> Expr:
    """{{G_a,G_b},G_c} + {{G_b,G_c},G_a} + {{G_c,G_a},G_b} for generator
    index triples a, b, c; zero iff Jacobi holds on them.

    Each term is sum_w d{G_x,G_y}/dG_w {G_w,G_z}, read off the table's
    rows: a term c G_u G_v of {G_x,G_y} meets each term k2 m2 of
    {G_u,G_z} as c k2 on G_v m2 (and of {G_v,G_z} as c k2 on G_u m2),
    summed in one dict keyed by the compact key (a cube G_u^3 is the
    widest); only a nonzero Jacobiator is turned into packed monomials.
    Generators suffice: the Jacobiator of a biderivation is a derivation
    in each argument, so Jacobi on the generators implies it on every
    polynomial.
    """
    table = _table(alg)
    x, y, z = (table.canonical(*t)[1] for t in (a, b, c))
    if None in (x, y, z):  # a bracket with a constant vanishes
        return ZERO
    acc = {}
    get = acc.get
    rows, row, keys = table.rows, table.row, table.keys
    for x, y, z in ((x, y, z), (y, z, x), (z, x, y)):
        for c, _, u, v in rows.get((x, y)) or row(x, y):
            # d/dG_w of c G_u G_v is c times the other factor, w = u, v;
            # u <= v, and id 0 (the factor 1) has no partial
            if u:
                m = keys[v]
                for k2, m2, _, _ in rows.get((u, z)) or row(u, z):
                    key = m + m2
                    acc[key] = get(key, 0) + c * k2
            if v:
                m = keys[u]
                for k2, m2, _, _ in rows.get((v, z)) or row(v, z):
                    key = m + m2
                    acc[key] = get(key, 0) + c * k2
    if not any(acc.values()):
        return ZERO
    return _normalized({table.packed(m): c for m, c in acc.items() if c}, 3)


# ---------------------------------------------------------------------------
# generating-function / semiclassical reflection form
# ---------------------------------------------------------------------------
# Gcal and the kernels are Exprs in the spectral symbols lam, mu; the check
# reads them as (level or power, coefficient) terms.  The kernels reach
# positive powers of mu, so the kernel side is cut to the window lam^-K
# mu^-K', 0 <= K, K' <= order, in lam per lam side and in mu where a lam
# side meets Gcal(mu).


def gcal_entry(level, i: int, j: int, order: int, var="lam") -> Expr:
    """Gcal_{i,j}(var) = A0_{i,j} + sum_{k=1..order} G^(k)_{i,j} var^-k,
    with G^(k)_{i,j} = level(i, j, k): an algebra's canonical or the
    componentwise rule of braid.act_frakDn."""
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


def _gcal_atoms(table: _Table, n: int, top: int) -> dict:
    """{(i, j): the coefficients of lam^0 .. lam^-top in Gcal_{i,j}(lam)},
    each (factor, id) for factor * G_id (id 0: the factor 1) or None for
    0; A0 is 1 on the diagonal, G[i,j,0] above it and 0 below.  Built
    level by level, so that symbols are interned in order of level."""
    def atom(i, j, k):
        f, u = table.canonical(i, j, k)
        return f, u or 0  # u None: the constant G[i,i,0] = 2
    idx = list(itertools.product(range(1, n + 1), repeat=2))
    out = {(i, j): [(1, 0) if i == j else atom(i, j, 0) if i < j else None]
           for i, j in idx}
    for k in range(1, top + 1):
        for i, j in idx:
            out[i, j].append(atom(i, j, k))
    return out


def _reflection_tables(alg: GenAlgebra, order: int):
    """(table, gens, mus, sides), built once per check for
    generating_bracket.  A term of the reflection form is (kernel *
    Gcal(lam)) * Gcal(mu), and its lam side reads three of the four
    indices: *sides* holds the four families of lam sides keyed by those
    three, each a list of (K, b, c, u) for c G_u lam^-K mu^b, cut to
    0 <= K <= order here (exact, as Gcal(mu) holds no lam), from the
    kernel terms of _kernels.  mus[x, y][b] lists (K', f, v) for the atom
    f G_v of Gcal_{x,y}(mu) at level K' + b, 0 <= K' <= order: the mu
    window.  gens[x, y] lists (K, f, u) for the generator atoms of
    Gcal_{x,y} to level order, which the left side brackets."""
    n = alg.n
    table = _table(alg)
    rt, tt = [{ab: [(dict(m).get("lam", 0), dict(m).get("mu", 0), c)
                    for m, c in kernel.terms()] for ab, kernel in k.items()}
              for k in _kernels(n, order)]
    atoms = _gcal_atoms(table, n, order)

    def side(kernel, g):
        return [(k - a, b, c * atom[0], atom[1]) for a, b, c in kernel
                for k, atom in enumerate(g) if atom and 0 <= k - a <= order]

    abc = list(itertools.product(range(1, n + 1), repeat=3))
    sides = (
        {(a, b, c): side(rt[a, b], atoms[b, c]) for a, b, c in abc},
        {(a, b, c): side(rt[a, b], atoms[c, a]) for a, b, c in abc},
        {(a, b, c): side(tt[a, b], atoms[c, b]) for a, b, c in abc},
        {(a, b, c): side(tt[a, b], atoms[a, c]) for a, b, c in abc})
    bs = {t[1] for family in sides for terms in family.values() for t in terms}
    gens = {ij: [(k, *a) for k, a in enumerate(g) if a and a[1]]
            for ij, g in atoms.items()}
    deep = _gcal_atoms(table, n, order + max(bs, default=0))
    mus = {ij: {b: [(k2, *g[k2 + b]) for k2 in range(max(0, -b), order + 1)
                    if g[k2 + b]] for b in bs} for ij, g in deep.items()}
    return table, gens, mus, sides


def generating_bracket(tables, ji, pl):
    """Both sides of the generating-function bracket identity, up to
    lam^-order mu^-order, as dicts {(K, K', u, v): c} of the nonzero
    terms c G_u G_v lam^-K mu^-K', u <= v; *tables* is
    _reflection_tables(alg, order), built once for many entries.

    Left: {Gcal_{j,i}(lam), Gcal_{p,l}(mu)} (lam and mu are not
    generators), the table row of each pair of generator atoms times
    their factors.  Right: minus entry ((j,p),(i,l)) of the reflection
    form

        [r/(lam-mu), G1 G2] + G1 rT1/(lam^-1-mu) G2 - G2 rT1/(lam^-1-mu) G1,

    that is r~(j,p) G_pi(lam) G_jl(mu) - r~(l,i) G_jl(lam) G_pi(mu)
    + t~(i,p) G_jp(lam) G_il(mu) - t~(l,j) G_li(lam) G_pj(mu), each lam
    side meeting its Gcal(mu) in the mu window.
    """
    table, gens, mus, (s1, s2, s3, s4) = tables
    j, i = ji
    p, l = pl
    rows, row = table.rows, table.row
    lhs = {}
    ys = gens[pl]
    for k, fx, x in gens[ji]:
        for k2, fy, y in ys:
            for c, _, u, v in rows.get((x, y)) or row(x, y):
                lhs[k, k2, u, v] = c * fx * fy
    rhs = {}
    get = rhs.get
    for sign, side, mu in ((-1, s1[j, p, i], mus[j, l]),
                           (1, s2[l, i, j], mus[p, i]),
                           (-1, s3[i, p, j], mus[i, l]),
                           (1, s4[l, j, i], mus[p, j])):
        for k, b, c, u in side:
            c *= sign
            for k2, f, v in mu[b]:
                key = (k, k2, u, v) if u <= v else (k, k2, v, u)
                rhs[key] = get(key, 0) + c * f
    return lhs, {key: c for key, c in rhs.items() if c}


def _series(table: _Table, form: dict) -> Expr:
    """The Expr of a generating_bracket side."""
    g = [ONE] + [E(gen(*t)) for t in table.triples[1:]]
    return dot((c, g[u] * g[v], E("lam", -k) * E("mu", -k2))
               for (k, k2, u, v), c in form.items())


def semiclassical_reflection_check(alg: GenAlgebra, order: int):
    """Entrywise comparison of the bracket with the reflection form.

    Compares {Gcal(lam) (x), Gcal(mu)} with the reflection form entry by
    entry (generating_bracket), coefficient by coefficient of
    lam^-K mu^-K', 0 <= K, K' <= order, as integer forms over table ids
    with no Expr in lam and mu.  With the commutator and exchange terms
    oriented as there, the reflection form is the exact entrywise
    *negative* of the bracket (the orientation that makes the hbar^0 term
    of the quantum R-matrix come out as -(lam-mu) on the diagonal tensor
    part); the check compares against the orientation-corrected side and
    reports the global sign separately.  Returns a report dict whose
    "mismatches" lists the failing entries ((j,i), (p,l)) and whose
    "first" is None or (j,i), (p,l), (K, K') and lhs - rhs at the first
    one's lowest differing lam^-K mu^-K', an Expr.
    """
    n = alg.n
    tables = _reflection_tables(alg, order)
    mismatches = []
    first = None
    for j, i, p, l in itertools.product(range(1, n + 1), repeat=4):
        lhs, rhs = generating_bracket(tables, (j, i), (p, l))
        if lhs != rhs:
            mismatches.append(((j, i), (p, l)))
            if first is None:
                diff = {key: lhs.get(key, 0) - rhs.get(key, 0)
                        for key in lhs.keys() | rhs.keys()}
                low = min(key[:2] for key, c in diff.items() if c)
                first = (j, i), (p, l), low, _series(tables[0], {
                    key: c for key, c in diff.items() if key[:2] == low})
    return {"checked": n ** 4, "mismatches": mismatches, "first": first,
            "ok": not mismatches, "printed_orientation_sign": -1}


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
