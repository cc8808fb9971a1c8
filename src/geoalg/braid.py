"""Braid / mapping-class-group actions on the generator algebras.

Three settings share the same pattern (polynomial maps on generators,
with an equivalent matrix-conjugation form):

* level 0 (polygon): the upper-triangular matrix of G_{i,j} transforms
  componentwise, or as B A B^T with the elementary block
  [[G_{i,i+1}, -1], [1, 0]].
* the level-graded annulus algebra: adjacent generators act level by
  level with the same shape; the extra wrap generator (exchanging the
  first and last points around the hole) shifts levels by +-1 and its
  matrix form uses a spectral-parameter matrix B(lam) with corner
  entries lam, -lam^-1 and G^(1)_{n,1}.
* the reduced n x n algebra of entries Ghat[i,j]: componentwise maps
  including cubic lines.

Every action is an invertible polynomial map; inverses are implemented
in closed form (the entry appearing inside each elementary block is
invariant under its own generator, which makes the inversion exact).
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly_core import Expr, Mat, E, ZERO, ONE, const, gen, ghat

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


# ---------------------------------------------------------------------------
# level 0: upper-triangular matrix form
# ---------------------------------------------------------------------------


def symbol_matrix(n: int) -> Mat:
    """Generic upper-triangular matrix with unit diagonal of G[i,j,0]."""
    rows = [[ONE if i == j else (E(gen(i, j, 0)) if i < j else ZERO)
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return Mat(rows)


def b_block_matrix(n: int, i: int, g: Expr) -> Mat:
    """The elementary matrix: identity except [[g, -1], [1, 0]] at i, i+1."""
    rows = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
    rows[i - 1][i - 1] = g
    rows[i - 1][i] = -ONE
    rows[i][i - 1] = ONE
    rows[i][i] = ZERO
    return Mat(rows)


def _b_block_inverse(n: int, i: int, g: Expr) -> Mat:
    # [[g,-1],[1,0]]^-1 = [[0,1],[-1,g]]
    rows = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
    rows[i - 1][i - 1] = ZERO
    rows[i - 1][i] = ONE
    rows[i][i - 1] = -ONE
    rows[i][i] = g
    return Mat(rows)


def act_An(b: BraidGen, a_mat: Mat) -> Mat:
    """Act on an upper-triangular level-0 matrix; checks that the
    componentwise map and the conjugation B A B^T agree entrywise."""
    n = len(a_mat.rows)
    if b.kind != ADJ:
        raise ValueError("the wrap generator is not defined at level 0 only")
    i = b.i
    if not (1 <= i <= n - 1):
        raise ValueError(f"adjacent index {i} out of range for n={n}")

    def entry(r, c):
        # symmetric access G_{r,c} = G_{c,r} off the diagonal
        if r == c:
            return ONE
        return a_mat[r - 1, c - 1] if r < c else a_mat[c - 1, r - 1]

    g0 = entry(i, i + 1)
    if b.inverse:
        def new(r, c):
            if r == i and c not in (i, i + 1):
                return entry(i + 1, c)
            if r == i + 1 and c not in (i, i + 1):
                return entry(i + 1, c) * g0 - entry(i, c)
            if c == i and r not in (i, i + 1):
                return entry(r, i + 1)
            if c == i + 1 and r not in (i, i + 1):
                return entry(r, i + 1) * g0 - entry(r, i)
            return entry(r, c)
        b_inv = _b_block_inverse(n, i, g0)
        conj = b_inv * a_mat * b_inv.transpose()
    else:
        def new(r, c):
            if r == i + 1 and c not in (i, i + 1):
                return entry(i, c)
            if r == i and c not in (i, i + 1):
                return entry(i, c) * g0 - entry(i + 1, c)
            if c == i + 1 and r not in (i, i + 1):
                return entry(r, i)
            if c == i and r not in (i, i + 1):
                return entry(r, i) * g0 - entry(r, i + 1)
            return entry(r, c)
        b_mat = b_block_matrix(n, i, g0)
        conj = b_mat * a_mat * b_mat.transpose()
    out = Mat([[new(r, c) if r < c else (ONE if r == c else ZERO)
                for c in range(1, n + 1)] for r in range(1, n + 1)])
    # matrix-form agreement on the upper triangle
    for r in range(n):
        for c in range(r + 1, n):
            if out[r, c] != conj[r, c]:
                raise AssertionError(
                    f"componentwise and matrix forms disagree at {(r, c)}")
    return out


# ---------------------------------------------------------------------------
# level-graded family
# ---------------------------------------------------------------------------


class CertificationError(Exception):
    """Requested a level beyond what the action chain certifies."""


class LevelFamily:
    """Entries G^(k)_{i,j} for 0 <= k <= cap, all i, j in 1..n.

    Negative levels resolve through the mirror G^(-k)_{i,j} = G^(k)_{j,i};
    reading past the certified cap raises CertificationError.
    """

    __slots__ = ("n", "cap", "data")

    def __init__(self, n: int, cap: int, data):
        self.n = n
        self.cap = cap
        self.data = data  # {(i, j, k): Expr} for 0 <= k <= cap

    @staticmethod
    def generic(n: int, cap: int) -> "LevelFamily":
        data = {}
        for k in range(cap + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if k == 0:
                        if i == j:
                            data[i, j, k] = const(2)
                        else:
                            data[i, j, k] = E(gen(min(i, j), max(i, j), 0))
                    else:
                        data[i, j, k] = E(gen(i, j, k))
        return LevelFamily(n, cap, data)

    def get(self, i, j, k) -> Expr:
        if k < 0:
            i, j, k = j, i, -k
        if k > self.cap:
            raise CertificationError(
                f"level {k} beyond certified cap {self.cap}")
        return self.data[i, j, k]

    def __eq__(self, other):
        if not isinstance(other, LevelFamily) or self.n != other.n:
            return False
        cap = min(self.cap, other.cap)
        return all(self.data[i, j, k] == other.data[i, j, k]
                   for k in range(cap + 1)
                   for i in range(1, self.n + 1)
                   for j in range(1, self.n + 1))


def act_frakDn(b: BraidGen, fam: LevelFamily) -> LevelFamily:
    """Componentwise action on the level-graded family.

    Adjacent generators preserve level (output cap unchanged); the wrap
    generator consumes levels k +- 2, so the output is certified two
    levels lower.
    """
    n = fam.n
    if b.kind == ADJ:
        i = b.i
        if not (1 <= i <= n - 1):
            raise ValueError(f"adjacent index {i} out of range for n={n}")
        g0 = fam.get(i, i + 1, 0)
        f = fam.get
        if not b.inverse:
            def new(a, c, k):
                if a == i + 1 and c not in (i, i + 1):
                    return f(i, c, k)
                if a == i and c not in (i, i + 1):
                    return f(i, c, k) * g0 - f(i + 1, c, k)
                if c == i + 1 and a not in (i, i + 1):
                    return f(a, i, k)
                if c == i and a not in (i, i + 1):
                    return f(a, i, k) * g0 - f(a, i + 1, k)
                if (a, c) == (i, i):
                    return (f(i, i, k) * g0 * g0 - f(i, i + 1, k) * g0
                            - f(i + 1, i, k) * g0 + f(i + 1, i + 1, k))
                if (a, c) == (i, i + 1):
                    return f(i, i, k) * g0 - f(i + 1, i, k)
                if (a, c) == (i + 1, i):
                    return f(i, i, k) * g0 - f(i, i + 1, k)
                if (a, c) == (i + 1, i + 1):
                    return f(i, i, k)
                return f(a, c, k)
        else:
            def new(a, c, k):
                if a == i and c not in (i, i + 1):
                    return f(i + 1, c, k)
                if a == i + 1 and c not in (i, i + 1):
                    return f(i + 1, c, k) * g0 - f(i, c, k)
                if c == i and a not in (i, i + 1):
                    return f(a, i + 1, k)
                if c == i + 1 and a not in (i, i + 1):
                    return f(a, i + 1, k) * g0 - f(a, i, k)
                if (a, c) == (i, i):
                    return f(i + 1, i + 1, k)
                if (a, c) == (i + 1, i):
                    return f(i + 1, i + 1, k) * g0 - f(i, i + 1, k)
                if (a, c) == (i, i + 1):
                    return f(i + 1, i + 1, k) * g0 - f(i + 1, i, k)
                if (a, c) == (i + 1, i + 1):
                    return (f(i, i, k) + f(i + 1, i + 1, k) * g0 * g0
                            - (f(i + 1, i, k) + f(i, i + 1, k)) * g0)
                return f(a, c, k)
        new_cap = fam.cap
    elif b.kind == WRAP:
        g1 = fam.get(n, 1, 1)
        f = fam.get
        if not b.inverse:
            def new(a, c, k):
                if a == 1 and c not in (1, n):
                    return f(n, c, k + 1)
                if c == 1 and a not in (1, n):
                    return f(a, n, k - 1)
                if a == n and c not in (1, n):
                    return f(n, c, k) * g1 - f(1, c, k - 1)
                if c == n and a not in (1, n):
                    return f(a, n, k) * g1 - f(a, 1, k + 1)
                if (a, c) == (n, n):
                    return (f(n, n, k) * g1 * g1 - f(n, 1, k + 1) * g1
                            - f(1, n, k - 1) * g1 + f(1, 1, k))
                if (a, c) == (n, 1):
                    return f(n, n, k - 1) * g1 - f(1, n, k - 2)
                if (a, c) == (1, n):
                    return f(n, n, k + 1) * g1 - f(n, 1, k + 2)
                if (a, c) == (1, 1):
                    return f(n, n, k)
                return f(a, c, k)
        else:
            def new(a, c, k):
                if a == n and c not in (1, n):
                    return f(1, c, k - 1)
                if c == n and a not in (1, n):
                    return f(a, 1, k + 1)
                if a == 1 and c not in (1, n):
                    return f(1, c, k) * g1 - f(n, c, k + 1)
                if c == 1 and a not in (1, n):
                    return f(a, 1, k) * g1 - f(a, n, k - 1)
                if (a, c) == (n, n):
                    return f(1, 1, k)
                if (a, c) == (n, 1):
                    return f(1, 1, k - 1) * g1 - f(1, n, k - 2)
                if (a, c) == (1, n):
                    return f(1, 1, k + 1) * g1 - f(n, 1, k + 2)
                if (a, c) == (1, 1):
                    return (f(n, n, k) + f(1, 1, k) * g1 * g1
                            - (f(1, n, k - 1) + f(n, 1, k + 1)) * g1)
                return f(a, c, k)
        new_cap = fam.cap - 2
        if new_cap < 0:
            raise CertificationError(
                "wrap generator needs input levels up to cap >= 2")
    else:
        raise ValueError(f"unknown braid kind {b.kind!r}")
    data = {}
    for k in range(new_cap + 1):
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                data[a, c, k] = new(a, c, k)
    return LevelFamily(n, new_cap, data)


# ---------------------------------------------------------------------------
# spectral-parameter matrix form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaMatrix:
    """A lam-Laurent matrix together with its certified level window:
    coefficients of lam^-k are trusted for 0 <= k <= cert only."""

    mat: Mat
    cert: int

    def coefficient(self, k: int) -> Mat:
        if k > self.cert:
            raise CertificationError(
                f"level {k} beyond certified cap {self.cert}")
        n = len(self.mat.rows)
        return Mat([[self.mat[r, c].coeff_of("lam", -k)
                     for c in range(n)] for r in range(n)])


def gcal_matrix(fam: LevelFamily) -> LambdaMatrix:
    """The truncated generating matrix: upper-triangular level-0 part
    plus sum_{k=1..cap} G^(k) lam^-k."""
    n = fam.n
    lam_inv = E("lam", -1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            a0 = ONE if i == j else (fam.get(i, j, 0) if i < j else ZERO)
            e = a0
            p = ONE
            for k in range(1, fam.cap + 1):
                p = p * lam_inv
                e = e + fam.get(i, j, k) * p
            row.append(e)
        rows.append(row)
    return LambdaMatrix(Mat(rows), fam.cap)


def _wrap_b_matrix(n: int, g1: Expr, lam_power: int) -> Mat:
    """B(lam) (lam_power=+1) or B(lam^-1) (lam_power=-1)."""
    lam = E("lam", lam_power)
    rows = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
    for corner in (0, n - 1):
        rows[corner][corner] = ZERO
    rows[0][n - 1] = lam
    rows[n - 1][0] = -(lam ** -1)
    rows[n - 1][n - 1] = g1
    return Mat(rows)


def _mat_inverse(m: Mat) -> Mat:
    """Exact inverse via the adjugate; requires det to be a unit."""
    n = len(m.rows)
    d = m.det()
    d_inv = d.inverse()
    cof = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = Mat([[m[a, b] for b in range(n) if b != c]
                         for a in range(n) if a != r])
            sign = ONE if (r + c) % 2 == 0 else -ONE
            cof[c][r] = sign * minor.det() * d_inv
    return Mat(cof)


def act_matrix(b: BraidGen, gm: LambdaMatrix) -> LambdaMatrix:
    """Matrix-conjugation form of the braid action on Gcal(lam)."""
    n = len(gm.mat.rows)
    if b.kind == ADJ:
        i = b.i
        g0 = gm.mat[i - 1, i].coeff_of("lam", 0)
        bm = b_block_matrix(n, i, g0)
        if b.inverse:
            bm = _b_block_inverse(n, i, g0)
        return LambdaMatrix(bm * gm.mat * bm.transpose(), gm.cert)
    if b.kind == WRAP:
        if gm.cert < 1:
            raise CertificationError("wrap needs the level-1 corner entry")
        g1 = gm.mat[n - 1, 0].coeff_of("lam", -1)
        b_lam = _wrap_b_matrix(n, g1, +1)
        b_inv_lam = _wrap_b_matrix(n, g1, -1)
        if b.inverse:
            left = _mat_inverse(b_lam)
            right = _mat_inverse(b_inv_lam.transpose())
            out = left * gm.mat * right
        else:
            out = b_lam * gm.mat * b_inv_lam.transpose()
        return LambdaMatrix(out, gm.cert - 2)
    raise ValueError(f"unknown braid kind {b.kind!r}")


# ---------------------------------------------------------------------------
# reduced n x n algebra
# ---------------------------------------------------------------------------


def ghat_family(n: int):
    """Generic family {(i,j): Ghat[i,j]} of reduced generators."""
    return {(i, j): E(ghat(i, j))
            for i in range(1, n + 1) for j in range(1, n + 1)}


def act_Dn(b: BraidGen, fam: dict, n: int) -> dict:
    """Componentwise action on the reduced n x n generator family."""
    f = dict(fam)
    if b.kind == ADJ:
        i, ip = b.i, b.i + 1
        if not (1 <= b.i <= n - 1):
            raise ValueError(f"adjacent index {b.i} out of range for n={n}")
    elif b.kind == WRAP:
        i, ip = n, 1
    else:
        raise ValueError(f"unknown braid kind {b.kind!r}")
    g = f[i, ip]
    out = dict(f)
    others = [k for k in range(1, n + 1) if k not in (i, ip)]
    if not b.inverse:
        for k in others:
            out[ip, k] = f[i, k]
            out[i, k] = f[i, k] * g - f[ip, k]
            out[k, ip] = f[k, i]
            out[k, i] = f[k, i] * g - f[k, ip]
        out[i, ip] = g
        out[ip, ip] = f[i, i]
        out[i, i] = f[i, i] * g - f[ip, ip]
        out[ip, i] = (f[ip, i] + f[i, ip] * f[i, i] * f[i, i]
                      - const(2) * f[i, i] * f[ip, ip])
    else:
        for k in others:
            out[i, k] = f[ip, k]
            out[ip, k] = f[ip, k] * g - f[i, k]
            out[k, i] = f[k, ip]
            out[k, ip] = f[k, ip] * g - f[k, i]
        out[i, ip] = g
        out[i, i] = f[ip, ip]
        out[ip, ip] = f[ip, ip] * g - f[i, i]
        out[ip, i] = (f[ip, i] + f[i, ip] * f[ip, ip] * f[ip, ip]
                      - const(2) * f[ip, ip] * f[i, i])
    return out


# ---------------------------------------------------------------------------
# combination matrices of the reduced algebra
# ---------------------------------------------------------------------------


def rhat_matrix(n: int, fam=None) -> Mat:
    """Skew-symmetric matrix with entries Ghat_ji + Ghat_ij - Ghat_ii
    Ghat_jj above the diagonal (negated below)."""
    f = fam if fam is not None else ghat_family(n)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(ZERO)
            else:
                v = f[j, i] + f[i, j] - f[i, i] * f[j, j]
                row.append(v if j > i else -v)
        rows.append(row)
    return Mat(rows)


def shat_matrix(n: int, fam=None) -> Mat:
    """Symmetric rank-one matrix of products Ghat_ii Ghat_jj."""
    f = fam if fam is not None else ghat_family(n)
    return Mat([[f[i, i] * f[j, j] for j in range(1, n + 1)]
                for i in range(1, n + 1)])


def ahat_matrix(n: int, fam=None) -> Mat:
    """Upper-triangular unit-diagonal matrix of Ghat_ij, i < j."""
    f = fam if fam is not None else ghat_family(n)
    return Mat([[ONE if i == j else (f[i, j] if i < j else ZERO)
                 for j in range(1, n + 1)] for i in range(1, n + 1)])


def combination_matrix(n: int, w1: Expr, w2: Expr, rho: Expr, sigma: Expr,
                       fam=None) -> Mat:
    """w1 Ahat + w2 Ahat^T + rho Rhat + sigma Shat."""
    a = ahat_matrix(n, fam)
    return (a.scale(w1) + a.transpose().scale(w2)
            + rhat_matrix(n, fam).scale(rho) + shat_matrix(n, fam).scale(sigma))


def combination_transform_check(n: int) -> dict:
    """Under each adjacent generator, the combination matrix (with formal
    weights) transforms by B M B^T with the same elementary B as at level
    0.  Exact symbolic check, reported per generator."""
    w1, w2, rho, sigma = E("w1"), E("w2"), E("rho"), E("sigma")
    fam = ghat_family(n)
    m0 = combination_matrix(n, w1, w2, rho, sigma, fam)
    report = {"n": n, "checks": [], "ok": True}
    for i in range(1, n):
        f2 = act_Dn(adjacent(i), fam, n)
        m2 = combination_matrix(n, w1, w2, rho, sigma, f2)
        bm = b_block_matrix(n, i, fam[i, i + 1])
        ok = m2 == bm * m0 * bm.transpose()
        report["checks"].append({"generator": i, "ok": bool(ok)})
        report["ok"] = report["ok"] and bool(ok)
    return report


# ---------------------------------------------------------------------------
# expression-level actions (substitution on generator symbols)
# ---------------------------------------------------------------------------


def frakDn_substitution(b: BraidGen, n: int, cap: int) -> dict:
    """Symbol substitution realizing the action on the level-graded
    generators; covers canonical symbols up to level cap (cap - 2 for
    the wrap generator)."""
    out = act_frakDn(b, LevelFamily.generic(n, cap))
    sub = {}
    for k in range(out.cap + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if k == 0 and i >= j:
                    continue
                sub[gen(i, j, k)] = out.data[i, j, k]
    return sub


def Dn_substitution(b: BraidGen, n: int) -> dict:
    out = act_Dn(b, ghat_family(n), n)
    return {ghat(i, j): out[i, j]
            for i in range(1, n + 1) for j in range(1, n + 1)}


# ---------------------------------------------------------------------------
# relation verifiers
# ---------------------------------------------------------------------------


def _compose_An(word, a_mat):
    for b in word:
        a_mat = act_An(b, a_mat)
    return a_mat


def _compose_fam(word, fam):
    for b in word:
        fam = act_frakDn(b, fam)
    return fam


def _compose_matrix(word, gm):
    for b in word:
        gm = act_matrix(b, gm)
    return gm


def _compose_Dn(word, fam, n):
    for b in word:
        fam = act_Dn(b, fam, n)
    return fam


def verify_relations(flavor: str, n: int, cap: int = 0) -> dict:
    """Exact symbolic verification of the braid relations.

    flavor "A": adjacent RRR relations plus the order-n relation
    (beta_{n-1,n} ... beta_{1,2})^n = Id on the generic symbol matrix.
    flavor "D": componentwise RRR for all adjacent pairs mod n (wrap
    included).  flavor "frakD": RRR in the matrix form with the given
    level cap, compared on the jointly certified window.
    """
    report = {"flavor": flavor, "n": n, "checks": [], "ok": True}

    def record(name, ok):
        report["checks"].append({"relation": name, "ok": bool(ok)})
        report["ok"] = report["ok"] and bool(ok)

    if flavor == "A":
        a0 = symbol_matrix(n)
        for i in range(2, n):
            lhs = _compose_An(
                [adjacent(i - 1), adjacent(i), adjacent(i - 1)], a0)
            rhs = _compose_An(
                [adjacent(i), adjacent(i - 1), adjacent(i)], a0)
            record(f"RRR({i - 1},{i})", lhs == rhs)
        word = [adjacent(i) for i in range(1, n)]
        full = a0
        for _ in range(n):
            full = _compose_An(word, full)
        record(f"(b_n-1,n...b_1,2)^{n}=Id", full == a0)
        for i in range(1, n):
            record(f"inverse({i})",
                   _compose_An([adjacent(i), adjacent(i, True)], a0) == a0)
    elif flavor == "D":
        f0 = ghat_family(n)
        gens = [adjacent(i) for i in range(1, n)] + [wrap()]
        for idx in range(n):
            b1 = gens[idx]
            b2 = gens[(idx + 1) % n]
            lhs = _compose_Dn([b1, b2, b1], f0, n)
            rhs = _compose_Dn([b2, b1, b2], f0, n)
            record(f"RRR mod n ({idx})", lhs == rhs)
        for b in gens:
            record(f"inverse({b.kind}{b.i})",
                   _compose_Dn([b, b.inv()], f0, n) == f0)
    elif flavor == "frakD":
        fam = LevelFamily.generic(n, cap)
        gm = gcal_matrix(fam)
        pairs = [(adjacent(i), adjacent(i + 1)) for i in range(1, n - 1)]
        pairs.append((adjacent(n - 1), wrap()))
        for b1, b2 in pairs:
            lhs = _compose_matrix([b1, b2, b1], gm)
            rhs = _compose_matrix([b2, b1, b2], gm)
            window = min(lhs.cert, rhs.cert)
            ok = all(lhs.coefficient(k) == rhs.coefficient(k)
                     for k in range(window + 1))
            record(f"RRR({b1.kind}{b1.i},{b2.kind}{b2.i}) window<= {window}",
                   ok)
        # componentwise inverses
        for b in [adjacent(1), wrap()]:
            f2 = _compose_fam([b, b.inv()], fam)
            record(f"inverse({b.kind}{b.i})", f2 == fam)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return report


# ---------------------------------------------------------------------------
# quantum matrices (constructors only)
# ---------------------------------------------------------------------------


def quantum_matrix(b: BraidGen, n: int) -> Mat:
    """The quantum elementary matrices: entries q G, -q^2 (adjacent) and
    lam, -q^2 lam^-1, q G^(1)_{n,1} (wrap).  Constructors only: the
    q-deformed exchange relations needed to verify them are out of scope.
    """
    q = E("q")
    if b.kind == ADJ:
        i = b.i
        rows = [[ONE if a == c else ZERO for c in range(n)] for a in range(n)]
        rows[i - 1][i - 1] = q * E(gen(i, i + 1, 0))
        rows[i - 1][i] = -(q ** 2)
        rows[i][i - 1] = ONE
        rows[i][i] = ZERO
        return Mat(rows)
    if b.kind == WRAP:
        rows = [[ONE if a == c else ZERO for c in range(n)] for a in range(n)]
        rows[0][0] = ZERO
        rows[n - 1][n - 1] = q * E(gen(n, 1, 1))
        rows[0][n - 1] = E("lam")
        rows[n - 1][0] = -(q ** 2) * E("lam", -1)
        return Mat(rows)
    raise ValueError(f"unknown braid kind {b.kind!r}")
