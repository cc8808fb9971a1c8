"""Braid / mapping-class-group actions on the generator algebras.

Every generator exchanges a pair of points (i, ip) and acts as one adjoint
action G -> B G B^T, with the same elementary block

    [[g, -x^-1], [x, 0]]   on rows and columns (i, ip),

where g is the generator's own entry G_{i,ip} (invariant under it).

* adjacent(i) exchanges (i, i+1) at level shift s = 0, so x = 1.
* the wrap exchanges (n, 1) at shift s = 1: point 1 is carried round the
  hole, so its levels are read one step shifted, g = G^(1)_{n,1}, and in
  the spectral-parameter form x = lam^s.
* an inverse is the swapped pair (ip, i, -s), with the same g: the block's
  inverse is the same block on (ip, i) with x^-1.

The level-graded family has one container, `LambdaMatrix`: Gcal(lam) =
A0 + sum_k G^(k) lam^-k with its certified window, and the level-0
matrix is its cap-0 case.  One componentwise rule (`_exchange`, in
`act_frakDn`) covers every generator at every cap, where the family has
G_ii = 2; a shift s consumes levels k +- s, so the output is certified
2|s| levels lower.  The matrix form B(lam) Gcal(lam) B(lam^-1)^T
(`act_matrix`) is computed independently and checks it: each inverse
verdict of `verify_relations` applies a generator by the matrix form and
its inverse by the componentwise rule.  The symbol substitutions
(`frakDn_substitution`) read the rule on the canonical symbols, which
hold every level.  The reduced n x n algebra of entries Ghat[i,j] has its
own tables (its diagonal is not constant and it has no swap symmetry),
with cubic lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dn_algebra import dn_algebra, gcal_entry, generator_tuples
from .poly_core import Expr, Mat, E, ZERO, ONE, const, dot, gen, ghat

ADJ = "adj"
WRAP = "wrap"


@dataclass(frozen=True)
class BraidGen:
    """A braid generator: adjacent(i) exchanging points i, i+1, or the
    wrap generator exchanging points n and 1 around the hole."""

    kind: str
    i: int = 0
    inverse: bool = False

    def inv(self) -> "BraidGen":
        return BraidGen(self.kind, self.i, not self.inverse)


def adjacent(i: int, inverse: bool = False) -> BraidGen:
    return BraidGen(ADJ, i, inverse)


def wrap(inverse: bool = False) -> BraidGen:
    return BraidGen(WRAP, 0, inverse)


def _points(b: BraidGen, n: int):
    """(i, ip, s) of the forward generator: adjacent(i) is (i, i+1, 0),
    the wrap is (n, 1, 1), which needs two distinct points (n >= 2)."""
    if b.kind == ADJ:
        if not 1 <= b.i <= n - 1:
            raise ValueError(f"adjacent index {b.i} out of range for n={n}")
        return b.i, b.i + 1, 0
    if b.kind == WRAP:
        if n < 2:
            raise ValueError(f"the wrap needs n >= 2, not n={n}")
        return n, 1, 1
    raise ValueError(f"unknown braid kind {b.kind!r}")


def _pair(b: BraidGen, n: int):
    """(i, ip, s): what *b* exchanges; an inverse is the swapped pair."""
    i, ip, s = _points(b, n)
    return (ip, i, -s) if b.inverse else (i, ip, s)


def _exchange(f, i: int, ip: int, s: int):
    """The action of the generator (i, ip, s) on a family f(a, c, k).

    The table is B G B^T with the block [[g, -1], [1, 0]] on (i, ip),
    applied to the view f(a, c, k - s[a=ip] + s[c=ip]) and read back
    through it; g is the view's (i, ip) entry at level 0.
    """
    def v(a, c, k):
        return f(a, c, k - s * (a == ip) + s * (c == ip))

    g = v(i, ip, 0)
    pair = (i, ip)

    def new(a, c, k):
        k += s * (a == ip) - s * (c == ip)
        if a == ip and c not in pair:
            return v(i, c, k)
        if a == i and c not in pair:
            return v(i, c, k) * g - v(ip, c, k)
        if c == ip and a not in pair:
            return v(a, i, k)
        if c == i and a not in pair:
            return v(a, i, k) * g - v(a, ip, k)
        if (a, c) == (i, i):
            return (v(i, i, k) * g * g - v(i, ip, k) * g
                    - v(ip, i, k) * g + v(ip, ip, k))
        if (a, c) == (i, ip):
            return v(i, i, k) * g - v(ip, i, k)
        if (a, c) == (ip, i):
            return v(i, i, k) * g - v(i, ip, k)
        if (a, c) == (ip, ip):
            return v(i, i, k)
        return v(a, c, k)

    return new


def elementary_matrix(n: int, i: int, ip: int, g: Expr, x: Expr) -> Mat:
    """The identity except the block [[g, -x^-1], [x, 0]] on (i, ip).  Its
    inverse is elementary_matrix(n, ip, i, g, x^-1)."""
    rows = [[ONE if a == c else ZERO for c in range(n)] for a in range(n)]
    rows[i - 1][i - 1] = g
    rows[i - 1][ip - 1] = -x.inverse()
    rows[ip - 1][i - 1] = x
    rows[ip - 1][ip - 1] = ZERO
    return Mat(rows)


# ---------------------------------------------------------------------------
# the level-graded family: Gcal(lam) with its certified window
# ---------------------------------------------------------------------------


class CertificationError(Exception):
    """Requested a level beyond what the action chain certifies."""


@dataclass(frozen=True)
class LambdaMatrix:
    """A lam-Laurent matrix together with its certified level window:
    coefficients of lam^-k are trusted for 0 <= k <= cert only."""

    mat: Mat
    cert: int

    @staticmethod
    def generic(n: int, cap: int) -> "LambdaMatrix":
        """Gcal of the generic level-graded family, certified to cap."""
        return gcal_matrix(dn_algebra(n).canonical, n, cap)

    def certify(self, k: int):
        if k > self.cert:
            raise CertificationError(
                f"level {k} beyond certified cap {self.cert}")

    def coefficient(self, k: int) -> Mat:
        self.certify(k)
        return self.mat.map(lambda e: e.coeff_of("lam", -k))

    def window(self, k: int) -> Mat:
        """The terms lam^0 .. lam^-k of every entry."""
        self.certify(k)
        return self.mat.map(lambda e: e.window("lam", -k, 0))

    def levels(self) -> dict:
        """{(i, j, k): G^(k)_{i,j}} for 0 <= k <= cert, all i, j.

        Gcal holds level 0 above the diagonal only: below it level 0 is
        the mirror, and the diagonal is 2.  That is faithful because every
        generator keeps level 0 symmetric with diagonal 2.
        """
        n = len(self.mat.rows)
        out = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                by_power = self.mat[i - 1, j - 1].coeffs_in("lam")
                for k in range(self.cert + 1):
                    out[i, j, k] = by_power.get(-k, ZERO)
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                out[i, j, 0] = out[j, i, 0] if j < i else const(2)
        return out


def gcal_matrix(level, n: int, cap: int) -> LambdaMatrix:
    """The truncated generating matrix of a family level(i, j, k):
    upper-triangular level-0 part plus sum_{k=1..cap} G^(k) lam^-k."""
    idx = range(1, n + 1)
    return LambdaMatrix(Mat([[gcal_entry(level, i, j, cap) for j in idx]
                             for i in idx]), cap)


def act_frakDn(b: BraidGen, gm: LambdaMatrix) -> LambdaMatrix:
    """Componentwise action on the level-graded family.

    Adjacent generators preserve level (output cap unchanged); the wrap
    generator reads levels k +- 1, so the output is certified two levels
    lower.
    """
    n = len(gm.mat.rows)
    i, ip, s = _pair(b, n)
    cap = gm.cert - 2 * abs(s)
    if cap < 0:
        raise CertificationError(
            "wrap generator needs input levels up to cap >= 2")
    # levels 0..cap of the output read levels |k| <= gm.cert; a negative
    # one resolves through the mirror G^(-k)_{a,c} = G^(k)_{c,a}
    levels = gm.levels()
    new = _exchange(lambda a, c, k: levels[(c, a, -k) if k < 0 else (a, c, k)],
                    i, ip, s)
    return gcal_matrix(new, n, cap)


def act_matrix(b: BraidGen, gm: LambdaMatrix) -> LambdaMatrix:
    """Matrix-conjugation form of the braid action on Gcal(lam):
    B(lam) Gcal B(lam^-1)^T with x = lam^s in the elementary block."""
    n = len(gm.mat.rows)
    # g = G^(s)_{i,ip}, read on the forward pair: Gcal holds levels >= 0
    # and its level 0 above the diagonal
    r, c, level = _points(b, n)
    if gm.cert < level:
        raise CertificationError("wrap needs the level-1 corner entry")
    g = gm.mat[r - 1, c - 1].coeff_of("lam", -level)
    i, ip, s = _pair(b, n)
    left = elementary_matrix(n, i, ip, g, E("lam", s))
    right = elementary_matrix(n, i, ip, g, E("lam", -s))
    return LambdaMatrix(left * gm.mat * right.transpose(),
                        gm.cert - 2 * abs(s))


# ---------------------------------------------------------------------------
# reduced n x n algebra
# ---------------------------------------------------------------------------


def ghat_family(n: int):
    """Generic family {(i,j): Ghat[i,j]} of reduced generators."""
    return {(i, j): E(ghat(i, j))
            for i in range(1, n + 1) for j in range(1, n + 1)}


def act_Dn(b: BraidGen, fam: dict, n: int) -> dict:
    """Componentwise action on the reduced n x n generator family."""
    f = fam
    i, ip, _ = _points(b, n)
    g = f[i, ip]
    out = dict(f)
    others = [k for k in range(1, n + 1) if k not in (i, ip)]
    # the inverse is the forward action with the two points' roles swapped,
    # save for the pair entries out[i, ip] and out[ip, i]
    a, c = (ip, i) if b.inverse else (i, ip)
    for k in others:
        out[c, k] = f[a, k]
        out[a, k] = f[a, k] * g - f[c, k]
        out[k, c] = f[k, a]
        out[k, a] = f[k, a] * g - f[k, c]
    out[i, ip] = g
    out[c, c] = f[a, a]
    out[a, a] = f[a, a] * g - f[c, c]
    out[ip, i] = (f[ip, i] + g * f[a, a] * f[a, a]
                  - const(2) * f[a, a] * f[c, c])
    return out


# ---------------------------------------------------------------------------
# the combination matrix of the reduced algebra
# ---------------------------------------------------------------------------


def combination_matrix(n: int, c_r: Expr, c_s: Expr, c_a: Expr, c_at: Expr,
                       fam: dict) -> Mat:
    """c_R Rhat + c_S Shat + c_A Ahat + c_AT Ahat^T on the reduced family
    fam = {(i, j): Ghat_ij}, entry by entry, with

    * Rhat skew: Ghat_ji + Ghat_ij - Ghat_ii Ghat_jj above the diagonal,
      negated below it;
    * Shat the rank-one matrix of products Ghat_ii Ghat_jj;
    * Ahat upper-triangular with unit diagonal and Ghat_ij above it.

    The reduction law's level matrices (reductions.dn_reduce) weight Rhat
    by -rho_k, and the Casimir generating matrix M by -(lam - 1); det M
    is expanded by the matrix determinant lemma from the weights
    (-1, c_S, lam + 1, -(1 + lam^-1)), c_S = 0 and 1 (centers.centers_Dn).
    The wrap braid generator pins that sign: with the opposite one the
    reduction's commuting square fails and the determinant is not
    invariant.  The adjacent generators cannot see it.
    """
    def entry(i, j):
        terms = [(1, c_s, fam[i, i] * fam[j, j])]
        if i == j:
            return dot(terms + [(1, c_a + c_at, ONE)])
        r = fam[j, i] + fam[i, j] - fam[i, i] * fam[j, j]
        if i < j:
            return dot(terms + [(1, c_r, r), (1, c_a, fam[i, j])])
        return dot(terms + [(-1, c_r, r), (1, c_at, fam[j, i])])

    return Mat([[entry(i, j) for j in range(1, n + 1)]
                for i in range(1, n + 1)])


def combination_transform_check(n: int) -> dict:
    """Under each adjacent generator, the combination matrix (with formal
    weights) transforms by B M B^T with the same elementary B as at level
    0.  Exact symbolic check, reported per generator."""
    weights = E("rho"), E("sigma"), E("w1"), E("w2")
    fam = ghat_family(n)
    m0 = combination_matrix(n, *weights, fam)
    report = {"n": n, "checks": [], "ok": True}
    for i in range(1, n):
        f2 = act_Dn(adjacent(i), fam, n)
        m2 = combination_matrix(n, *weights, f2)
        bm = elementary_matrix(n, i, i + 1, fam[i, i + 1], ONE)
        ok = m2 == bm * m0 * bm.transpose()
        report["checks"].append({"generator": i, "ok": bool(ok)})
        report["ok"] = report["ok"] and bool(ok)
    return report


# ---------------------------------------------------------------------------
# expression-level actions (substitution on generator symbols)
# ---------------------------------------------------------------------------


def frakDn_substitution(b: BraidGen, n: int, cap: int) -> dict:
    """Symbol substitution realizing the action on the level-graded
    generators: the exchange rule on the canonical symbols (every level),
    read up to level cap, cap - 2 for the wrap as act_frakDn certifies."""
    i, ip, s = _pair(b, n)
    new = _exchange(dn_algebra(n).canonical, i, ip, s)
    return {gen(*t): new(*t) for t in generator_tuples(n, cap - 2 * abs(s))}


def Dn_substitution(b: BraidGen, n: int) -> dict:
    out = act_Dn(b, ghat_family(n), n)
    return {ghat(i, j): out[i, j]
            for i in range(1, n + 1) for j in range(1, n + 1)}


# ---------------------------------------------------------------------------
# relation verifiers
# ---------------------------------------------------------------------------


def _apply(act, word, x):
    for b in word:
        x = act(b, x)
    return x


def _same(x, y):
    """(verdict, name suffix): level-graded matrices are compared on their
    jointly certified window, the reduced families entry by entry."""
    if isinstance(x, LambdaMatrix):
        window = min(x.cert, y.cert)
        return x.window(window) == y.window(window), f" window<= {window}"
    return x == y, ""


def _rrr(pairs) -> list:
    """The relations (name, b1 b2 b1, b2 b1 b2) of the pairs (b1, b2)."""
    return [(f"RRR({b1.kind}{b1.i},{b2.kind}{b2.i})", [b1, b2, b1],
             [b2, b1, b2]) for b1, b2 in pairs]


def _flavor(flavor: str, n: int):
    """(start, action, inverse action, relations, inverses) of a flavor."""
    adj = [adjacent(i) for i in range(1, n)]
    if flavor == "A":
        return (LambdaMatrix.generic(n, 0), act_matrix, act_frakDn,
                _rrr(zip(adj, adj[1:])) + [
                    (f"(b_n-1,n...b_1,2)^{n}=Id", adj * n, [])], adj)
    if flavor == "D":
        def act(b, fam):
            return act_Dn(b, fam, n)

        gens = adj + [wrap()]
        return (ghat_family(n), act, act,
                _rrr(zip(gens, gens[1:] + gens[:1])), gens)
    if flavor == "frakD":
        # the wrap's relation holds a word with two wraps, which consume
        # four levels: cap 6 compares it on lam^0 .. lam^-2
        return (LambdaMatrix.generic(n, 6), act_matrix, act_frakDn,
                _rrr(list(zip(adj, adj[1:])) + [(adj[-1], wrap())]),
                [adjacent(1), wrap()])
    raise ValueError(f"unknown flavor {flavor!r}")


def verify_relations(flavor: str, n: int) -> dict:
    """Exact symbolic verification of the braid relations.

    flavor "A": on the level-0 matrix (Gcal at cap 0) in the matrix form,
    the adjacent RRR relations and the order-n relation (beta_{n-1,n} ...
    beta_{1,2})^n = Id.  flavor "D": componentwise on the reduced family,
    RRR for all adjacent pairs mod n (wrap included).  flavor "frakD":
    on Gcal at cap 6 in the matrix form, the adjacent RRR relations and
    the wrap's with adjacent(n-1).  An inverse verdict applies a
    generator by the action, its inverse by the inverse action: for the
    matrix flavors act_frakDn undoes act_matrix, so the componentwise
    rule is checked against the adjoint action.
    """
    start, act, undo, relations, inverses = _flavor(flavor, n)
    checks = []
    for name, lhs, rhs in relations:
        ok, window = _same(_apply(act, lhs, start), _apply(act, rhs, start))
        checks.append({"relation": name + window, "ok": bool(ok)})
    for b in inverses:
        ok = _same(undo(b.inv(), act(b, start)), start)[0]
        checks.append({"relation": f"inverse({b.kind}{b.i})", "ok": bool(ok)})
    return {"flavor": flavor, "n": n, "checks": checks,
            "ok": all(c["ok"] for c in checks)}
