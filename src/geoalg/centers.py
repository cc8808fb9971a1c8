"""Central elements for the three algebra flavors.

All flavors produce their Casimirs as coefficients of a determinant
generating polynomial, expanded by Mat.det_by_power graded by lam:

* level-0 algebra: det(lam A + lam^-1 A^T) with A the upper-triangular
  unit-diagonal generator matrix, palindromic in lam, so its Casimirs
  are read from the powers >= n % 2 alone.  That cut (det_by_power's lo)
  is exact: each row reaches lam^1 at most, so a block of a minor on k
  of the rows below lam^(n % 2 - (n - k)) cannot reach lam^(n % 2) in
  any term of the determinant, and neither can a pair of complementary
  half-minor blocks whose powers sum below lam^(n % 2);
* level-p algebra: det Gp(lam) of the finite generating matrix;
* reduced n x n algebra: det M of the lam-combination of the structure
  matrices Rhat, Shat, Ahat, Ahat^T, which factors as (lam-1)^(n-1) Q
  with Q palindromic and its coefficients the n Casimirs.  Shat has
  rank one, so by the matrix determinant lemma Q is (lam+1) times one
  n x n determinant minus twice another (centers_Dn), with no division:
  450,528 monomial products at n = 6, where det M alone took 3,226,099.

Centrality is verified exactly with the structure constants, and
invariance under every braid generator by exact substitution
(braid_invariance) of the level-0 and level-p centers and of the
reference Casimirs that the reduced ones are tied to; independence by
the exact rational rank of the Jacobian of the coefficient map at
integer points, where Expr.at stays in ints.  A rank at one point is a
deterministic lower bound on the generic rank (a minor that is nonzero
at a point is a nonzero polynomial, and an integer point is as good as a
rational one), so reaching floor(np/2) at any point certifies
independence with no probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .poly_core import E, ZERO, ONE, const, gen, ghat, rational_rank
from .dn_algebra import dnp_algebra, bracket
from .reductions import build_Gp
from . import braid as _braid


@dataclass
class CenterSet:
    flavor: str
    coefficients: list
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rational linear algebra helpers
# ---------------------------------------------------------------------------


def _random_point(symbols, rng) -> dict:
    return {s: rng.randint(-9, 9) for s in symbols}


def jacobian_rank(coeffs, symbols, point) -> int:
    """Rank of d(coeffs)/d(symbols) evaluated at a point of integers."""
    rows = []
    for c in coeffs:
        grad = c.gradient()
        rows.append([grad[s].at(point) if s in grad else 0 for s in symbols])
    return rational_rank(rows)


# ---------------------------------------------------------------------------
# level-0 flavor
# ---------------------------------------------------------------------------


def centers_An(n: int) -> CenterSet:
    """The floor(n/2) nontrivial Casimirs of the level-0 algebra: the
    coefficients of lam^(n-2m), 0 < m <= n/2, of det(lam A + lam^-1 A^T)."""
    a = _braid.LambdaMatrix.generic(n, 0).mat
    mat = a.scale(E("lam")) + a.transpose().scale(E("lam", -1))
    by_power = mat.det_by_power("lam", lo=n % 2)
    coeffs = [by_power.get(n - 2 * m, ZERO) for m in range(1, n // 2 + 1)]
    return CenterSet("A", coeffs, {"n": n, "count": n // 2})


# ---------------------------------------------------------------------------
# level-p flavor
# ---------------------------------------------------------------------------


def generator_symbols(alg) -> list:
    """The generator symbols of *alg* at levels 0 .. (period or 1) - 1, in
    first-use order: every level of a level-p algebra, level 0 of the
    others."""
    n = alg.n
    return list(dict.fromkeys(
        s for k in range(alg.period or 1)
        for i in range(1, n + 1) for j in range(1, n + 1)
        for s in alg.canonical(i, j, k).symbols()))


def centers_Dnp(n: int, p: int, seed: int = 0) -> CenterSet:
    """Coefficients of det Gp(lam); independence count floor(np/2)
    certified by the exact Jacobian rank at the all-ones assignment and
    four random integer points, entries in [-9, 9] drawn from *seed*."""
    coeffs = []
    for k, c in sorted(build_Gp(n, p).mat.det_by_power("lam").items()):
        c = c - c.at({s: 0 for s in c.symbols()})  # drop constants
        if not c.is_zero() and c not in coeffs:
            coeffs.append(c)
    symbols = generator_symbols(dnp_algebra(n, p))
    rng = random.Random(seed)
    points = [{s: 1 for s in symbols}]
    points += [_random_point(symbols, rng) for _ in range(4)]
    ranks = [jacobian_rank(coeffs, symbols, pt) for pt in points]
    return CenterSet("Dp", coeffs,
                     {"n": n, "p": p, "count": (n * p) // 2,
                      "jacobian_ranks": ranks,
                      "rank": max(ranks)})


def centrality_report(alg, coeffs) -> dict:
    """{c, g} = 0 exactly for every element c of *coeffs* and every
    generator g of generator_symbols(alg)."""
    symbols = generator_symbols(alg)
    bad = [(idx, s) for idx, c in enumerate(coeffs) for s in symbols
           if not bracket(alg, c, E(s)).is_zero()]
    return {"failures": bad, "ok": not bad}


# ---------------------------------------------------------------------------
# reduced flavor
# ---------------------------------------------------------------------------


def centers_Dn(n: int) -> CenterSet:
    """c_1..c_n of Q, where det M = (lam-1)^(n-1) Q,
        Q = lam^(n+1) + sum lam^i c_i
            + (-1)^(n+1) sum lam^(1-i) c_i + (-1)^(n+1) lam^-n,
    and M = -(lam-1) Rhat + (lam+1) Shat + (lam^2-1) Ahat
    - (lam - lam^-1) Ahat^T (Rhat's sign: braid.combination_matrix).
    As Shat = g g^T (g_i = Ghat_ii), M = (lam-1) N + (lam+1) g g^T with
    N = -Rhat + (lam+1) Ahat - (1 + lam^-1) Ahat^T, and the matrix
    determinant lemma det(N + t g g^T) = det N + t g^T adj(N) g gives
    Q = (lam+1) det(N + g g^T) - 2 det N: two determinants (173,350 and
    277,178 monomial products at n = 6, against 3,226,099 for det M)
    and a shift, with no division.  The leading terms, the span of
    powers -n..n+1 and the palindrome are checked."""
    lam, fam = E("lam"), _braid.ghat_family(n)
    plus, base = (_braid.combination_matrix(
        n, -ONE, c_s, lam + ONE, -(ONE + E("lam", -1)), fam
    ).det_by_power("lam") for c_s in (ONE, ZERO))
    q = {k: v for k in set(plus) | {k + 1 for k in plus} | set(base)
         if (v := plus.get(k - 1, ZERO) + plus.get(k, ZERO)
             - 2 * base.get(k, ZERO))}
    if any(not -n <= k <= n + 1 for k in q):
        raise ValueError("center polynomial has powers outside -n..n+1")
    sign = const((-1) ** (n + 1))
    if q.get(n + 1, ZERO) != ONE or q.get(-n, ZERO) != sign:
        raise ValueError("unexpected leading terms in the center polynomial")
    cs = [q.get(i, ZERO) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        if q.get(1 - i, ZERO) != sign * cs[i - 1]:
            raise ValueError("palindromic symmetry violated")
    return CenterSet("D", cs, {"n": n})


def printed_d2_casimirs():
    g = lambda i, j: E(ghat(i, j))
    return [
        g(1, 1) * g(2, 2) - g(1, 2) - g(2, 1),
        g(1, 2) * g(2, 1) - g(1, 1) ** 2 - g(2, 2) ** 2,
    ]


def printed_d3_casimirs():
    g = lambda i, j: E(ghat(i, j))
    c1 = (g(1, 1) * g(2, 2) * g(3, 3)
          - g(1, 1) * (g(3, 2) + g(2, 3))
          - g(2, 2) * (g(1, 3) + g(3, 1))
          - g(3, 3) * (g(2, 1) + g(1, 2)))
    c2 = (g(1, 2) * g(2, 3) * g(3, 1) - g(1, 2) * g(2, 1)
          - g(2, 3) * g(3, 2) - g(3, 1) * g(1, 3)
          + g(1, 1) ** 2 + g(2, 2) ** 2 + g(3, 3) ** 2)
    c3 = (g(1, 3) * g(2, 1) * g(3, 2)
          - g(1, 2) * g(2, 1) * g(3, 3) ** 2
          - g(2, 3) * g(3, 2) * g(1, 1) ** 2
          - g(3, 1) * g(1, 3) * g(2, 2) ** 2
          + 2 * g(1, 1) * g(2, 2) * (g(2, 3) * g(3, 1) - g(2, 1) - g(1, 2))
          + 2 * g(2, 2) * g(3, 3) * (g(3, 1) * g(1, 2) - g(3, 2) - g(2, 3))
          + 2 * g(3, 3) * g(1, 1) * (g(3, 1) * g(1, 2) - g(3, 2) - g(2, 3))
          + g(2, 1) ** 2 + g(3, 2) ** 2 + g(1, 3) ** 2
          - g(1, 2) * g(2, 3) * g(1, 3)
          - g(2, 3) * g(3, 1) * g(2, 1)
          - g(3, 1) * g(1, 2) * g(3, 2)
          + (g(1, 1) ** 2 + 1) * (g(2, 2) ** 2 + 1)
          + (g(2, 2) ** 2 + 1) * (g(3, 3) ** 2 + 1)
          + (g(3, 3) ** 2 + 1) * (g(1, 1) ** 2 + 1))
    return [c1, c2, c3]


def corrected_d3_casimirs():
    """Braid-invariant repairs of the degree-3 and degree-6 reference
    Casimirs (the widely-circulated closed forms contain sign/term
    slips; these versions are certified invariant under all generators
    including the wrap).

    The degree-3 element carries differences, not sums, inside the
    parentheses; the degree-6 element needs the third 2 G_33 G_11 (...)
    factor replaced by its cyclic image and the squares
    G_12^2 + G_23^2 + G_31^2 doubled.
    """
    g = lambda i, j: E(ghat(i, j))
    c1 = (g(1, 1) * g(2, 2) * g(3, 3)
          + g(1, 1) * (g(2, 3) - g(3, 2))
          + g(2, 2) * (g(3, 1) - g(1, 3))
          + g(3, 3) * (g(1, 2) - g(2, 1)))
    c2 = printed_d3_casimirs()[1]
    c3 = (printed_d3_casimirs()[2]
          - 2 * g(3, 3) * g(1, 1) * (g(3, 1) * g(1, 2) - g(3, 2) - g(2, 3))
          + 2 * g(3, 3) * g(1, 1) * (g(1, 2) * g(2, 3) - g(1, 3) - g(3, 1))
          + g(1, 2) ** 2 + g(2, 3) ** 2 + g(3, 1) ** 2)
    return [c1, c2, c3]


def dn_relation_check(n: int) -> dict:
    """Exact polynomial relations between the determinant coefficients
    and the independent reference Casimirs.

    n=2 (refs C1, C2 as printed): c1 = C1^2 - C2 - 2 and c2 = -C2 - 1.
    n=3 (refs the corrected triple): c1 = C1^2 - C3 + 6,
    c2 = C3 - C2 - 6, c3 = C2 - 1.  The degree-3 reference enters only
    through its square: the determinant cannot see it linearly (for
    n = 2, combination_matrix's weights at lam = -1 leave M(-1) = 2 Rhat,
    whose determinant is 4 Rhat_12^2, and Rhat_12 = -C1).
    """
    cs = centers_Dn(n).coefficients
    if n == 2:
        c1r, c2r = printed_d2_casimirs()
        rel = {
            "c1": (cs[0] - (c1r * c1r - c2r - const(2))).is_zero(),
            "c2": (cs[1] - (-c2r - ONE)).is_zero(),
        }
    elif n == 3:
        c1r, c2r, c3r = corrected_d3_casimirs()
        rel = {
            "c1": (cs[0] - (c1r * c1r - c3r + const(6))).is_zero(),
            "c2": (cs[1] - (c3r - c2r - const(6))).is_zero(),
            "c3": (cs[2] - (c2r - ONE)).is_zero(),
        }
    else:
        raise ValueError("reference Casimirs available for n = 2, 3 only")
    return {"n": n, "relations": rel, "ok": all(rel.values())}


# ---------------------------------------------------------------------------
# braid invariance
# ---------------------------------------------------------------------------


def braid_invariance(flavor: str, coeffs, n: int, p: int = 0) -> list:
    """One flag per element of *coeffs*: every braid generator fixes it,
    exactly.  The generators are the adjacent ones, and the wrap too but
    for flavor "A"; "Dp" reads the period *p*, and its substitution is
    built from levels up to p + 2."""
    gens = [_braid.adjacent(i) for i in range(1, n)]
    if flavor == "A":
        subs = [_an_substitution(b, n) for b in gens]
    elif flavor == "D":
        subs = [_braid.Dn_substitution(b, n) for b in gens + [_braid.wrap()]]
    elif flavor == "Dp":
        subs = [_dnp_substitution(b, n, p) for b in gens + [_braid.wrap()]]
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return [all(c.subst(sub) == c for sub in subs) for c in coeffs]


def _an_substitution(b, n: int) -> dict:
    """The level-0 action of *b* on the symbols G[i,j,0], i < j."""
    a1 = _braid.act_matrix(b, _braid.LambdaMatrix.generic(n, 0)).mat
    return {gen(i, j, 0): a1[i - 1, j - 1]
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def _dnp_substitution(b, n: int, p: int) -> dict:
    """Braid substitution folded to canonical level-p symbols."""
    alg = dnp_algebra(n, p)
    raw = _braid.frakDn_substitution(b, n, p + 2)
    return {s: alg.storage_form(raw[s]) for s in generator_symbols(alg)}
