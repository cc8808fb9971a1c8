"""The two Poissonian reductions of the level-graded algebra.

* level-p reduction: the hole becomes an orbifold point of order p, which
  identifies G^(k) = G^(p-k)^T and makes the algebra finite with a
  generating matrix Gp(lam) of window 0..p.
* reduction to the n x n algebra of Ghat generators: every level matrix
  G^(k) becomes an explicit combination of the four structure matrices
  Rhat, Shat, Ahat, Ahat^T with Laurent-in-h coefficients (h is the
  exponentiated half-perimeter of the hole, Pi = h + h^-1 the hole's
  geodesic function).

The identification G^(k) = G^(p-k)^T is how dnp_algebra.canonical folds
levels and how build_Gp places A^T, so it is not checked again here;
representative_independence checks that the folded bracket does not see
the representative.  The coefficient functions are implemented in closed
form.  The summation identity of dn_sum certifies them against the
rotation recursion f_{k+1} = (Pi^2 - 2) f_k - f_{k-1} (+2 for the Shat
stream), and the whole map is certified by a mechanized commuting square
against the braid actions (th_dn_check).
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly_core import Expr, Mat, E, ZERO, ONE, const, dot, gen
from .dn_algebra import (dnp_algebra, gcal_entry, generator_tuples,
                         _structure_constant, _table)
from . import braid as _braid

# ---------------------------------------------------------------------------
# level-p reduction
# ---------------------------------------------------------------------------


def build_Gp(n: int, p: int) -> "_braid.LambdaMatrix":
    """The finite generating matrix Gp(lam) = A + G^(1)/lam + ... +
    G^(p-1)/lam^(p-1) + A^T/lam^p in canonical level-p symbols."""
    level = dnp_algebra(n, p).canonical
    return _braid.LambdaMatrix(Mat([
        [gcal_entry(level, i, j, p - 1)
         + gcal_entry(level, j, i, 0) * E("lam", -p)
         for j in range(1, n + 1)] for i in range(1, n + 1)]), p)


def representative_independence(n: int, p: int) -> bool:
    """The level-p bracket does not depend on which representative of a
    generator class enters the structure constants: shifting a level by
    -p (equivalently applying the mirror through p-k) leaves the table
    row built from the closed form of every pair unchanged."""
    alg = dnp_algebra(n, p)
    terms = lambda a, b: _table(alg).compile(_structure_constant(alg, a, b))
    idx = [(i, j, k) for k in range(p)
           for i in range(1, n + 1) for j in range(1, n + 1)
           if not (k == 0 and i > j)]
    for a in idx:
        i, j, k = a
        for b in idx:
            i2, j2, k2 = b
            base = terms(a, b)
            if (terms((i, j, k - p), b) != base
                    or terms(a, (i2, j2, k2 - p)) != base):
                return False
    return True


# ---------------------------------------------------------------------------
# reduction to the Ghat algebra
# ---------------------------------------------------------------------------

_X = E("h", 2)     # e^{P_h}
_XI = E("h", -2)


def rho_coeff(k: int) -> Expr:
    """(x^k - x^-k)/(x - x^-1) with x = h^2; Chebyshev-like stream."""
    return sum((_X ** (k - 1 - j) * _XI ** j for j in range(k)), ZERO)


def sigma_coeff(k: int) -> Expr:
    """(x^k - 2 + x^-k)/((x-1)(1-x^-1)): the perfect square
    (h^{k-1} + h^{k-3} + ... + h^{1-k})^2."""
    s = sum((E("h", k - 1 - 2 * j) for j in range(k)), ZERO)
    return s * s


def a_coeff(k: int) -> Expr:
    """x^k/(1-x^-1) - x^-k/(x-1) = x^-k + ... + x^k."""
    if k < 0:
        # only k = -1 is ever needed (the Ahat^T stream at level 0)
        if k == -1:
            return -ONE
        raise ValueError("a_coeff defined for k >= -1")
    return sum((E("h", 2 * j) for j in range(-k, k + 1)), ZERO)


@dataclass(frozen=True)
class ReductionMapDn:
    """Coefficients (c_R, c_S, c_A, c_AT) of one level:
    G^(k) = c_R Rhat + c_S Shat + c_A Ahat + c_AT Ahat^T."""

    k: int
    c_rhat: Expr
    c_shat: Expr
    c_ahat: Expr
    c_ahat_t: Expr

    def as_matrix(self, n: int, fam: dict) -> Mat:
        return _braid.combination_matrix(n, self.c_rhat, self.c_shat,
                                         self.c_ahat, self.c_ahat_t, fam)


def dn_reduce(k: int) -> ReductionMapDn:
    """The reduction law for level k >= 0, in closed form; the Rhat
    stream is -rho_k (its sign: braid.combination_matrix)."""
    if k < 0:
        raise ValueError("negative levels via transposition of dn_reduce(-k)")
    if k == 0:
        return ReductionMapDn(0, ZERO, ZERO, ONE, ZERO)
    return _closed_form(k)


def _closed_form(k: int) -> ReductionMapDn:
    """The closed-form streams at level k >= 0; at k = 0 they give the
    symmetric level-0 matrix Ahat + Ahat^T (a_{-1} = -1)."""
    return ReductionMapDn(k, -rho_coeff(k), sigma_coeff(k),
                          a_coeff(k), -a_coeff(k - 1))


def reduction_substitution(n: int, cap: int) -> dict:
    """Substitution map sending every canonical generator symbol with
    level <= cap to its Ghat/h expression."""
    fam = _braid.ghat_family(n)
    ms = [None] + [dn_reduce(k).as_matrix(n, fam) for k in range(1, cap + 1)]
    return {gen(i, j, k): ms[k][i - 1, j - 1] if k else fam[i, j]
            for i, j, k in generator_tuples(n, cap)}


def th_dn_check(n: int) -> dict:
    """Mechanized commuting square: reducing after a braid action equals
    acting on the reduced generators, for every braid generator and every
    entry up to level 2.

    The generic family carries levels 0..4 (cap): the wrap certifies two
    levels fewer than its input (braid.act_frakDn), so level 2 is the
    highest that every generator's output holds, and the one compared.
    """
    cap, levels = 4, 2
    report = {"n": n, "checks": [], "ok": True}
    red = reduction_substitution(n, cap)
    gm0 = _braid.LambdaMatrix.generic(n, cap)
    fam0 = gm0.levels()
    reduced = {t: fam0[t].subst(red) for t in generator_tuples(n, levels)}
    gens = [_braid.adjacent(i) for i in range(1, n)]
    gens += [_braid.wrap(), _braid.wrap(True)]
    for b in gens:
        fam1 = _braid.act_frakDn(b, gm0).levels()
        dsub = _braid.Dn_substitution(b, n)
        bad = sum(fam1[t].subst(red) != r.subst(dsub)
                  for t, r in reduced.items())
        report["checks"].append(
            {"generator": (b.kind, b.i, b.inverse), "mismatches": bad})
        report["ok"] = report["ok"] and bad == 0
    return report


def dn_sum() -> dict:
    """Summation of the reduction law over lam^-k.

    Verifies, exactly and cross-multiplied in w = 1/lam, that the four
    coefficient streams sum to the rational closed form

      G(lam) -> [-w Rhat + w(1+w)/(1-w) Shat + (1+w) Ahat
                 - w(1+w) Ahat^T] / ((1 - w h^2)(1 - w h^-2)).

    The coefficients w^0 .. w^12 are compared (order 12).  The numerators
    have degree 3 at most and the common denominator is cubic, so w^0 ..
    w^3 fix the numerators, and each w^m past w^3 is the streams' cubic
    recursion on their terms k = m - 3 .. m: nine instances, up to k = 12.
    That cubic recursion is the rotation recursion G^(k+1) = (Pi^2 - 2)
    G^(k) - G^(k-1) + 2 Shat differenced once, and w^0 .. w^3 fix its
    constant: the identity certifies closed form = rotation recursion for
    every level k <= 12.
    """
    order = 12
    w, h2, h2i = E("w"), E("h", 2), E("h", -2)
    denom = (ONE - w) * (ONE - w * h2) * (ONE - w * h2i)
    numerators = {
        "rhat": -(w * (ONE - w)),
        "shat": w * (ONE + w),
        "ahat": (ONE + w) * (ONE - w),
        "ahat_t": -(w * (ONE + w) * (ONE - w)),
    }
    series = {"rhat": ZERO, "shat": ZERO, "ahat": ZERO, "ahat_t": ZERO}
    for k in range(order + 1):
        r = dn_reduce(k)
        wk = w ** k
        series["rhat"] = series["rhat"] + r.c_rhat * wk
        series["shat"] = series["shat"] + r.c_shat * wk
        series["ahat"] = series["ahat"] + r.c_ahat * wk
        series["ahat_t"] = series["ahat_t"] + r.c_ahat_t * wk
    report = {"order": order, "streams": {}, "ok": True}
    for name, num in numerators.items():
        diff = series[name] * denom - num
        ok = all(diff.coeff_of("w", m).is_zero() for m in range(order + 1))
        report["streams"][name] = ok
        report["ok"] = report["ok"] and ok
    return report


def _fold_h(e: Expr, p: int) -> Expr:
    """Impose h^(2p) = 1 by reducing every h exponent modulo 2p."""
    return dot([(1, c, E("h", k % (2 * p)))
                for k, c in e.coeffs_in("h").items()])


def periodicity_check(p: int) -> bool:
    """With h^(2p) = 1 the reduction law is p-periodic in the level.

    For every p, the difference of each coefficient stream across a
    period is annihilated by its defining denominator once exponents are
    folded by h^(2p) = 1 (the folded ring has zero divisors, so this is
    the correct algebraic statement).  A fold to zero means diff * den
    vanishes at every h with h^(2p) = 1.  For p >= 3 no denominator
    vanishes where h^2 is a primitive p-th root of unity (they vanish
    only at h^2 = +-1), so there the streams agree pointwise as well;
    p = 2 is the degenerate Pi = 0 reduction and has no pointwise form.
    """
    x, xi = _X, _XI
    denoms = {"c_rhat": x - xi, "c_shat": (x - ONE) * (ONE - xi),
              "c_ahat": x - ONE, "c_ahat_t": x - ONE}
    # levels 0..4; at k = 0 the symmetric level-0 form, which the statement
    # is about
    for k in range(5):
        lo, hi = _closed_form(k), _closed_form(k + p)
        for field, den in denoms.items():
            diff = getattr(hi, field) - getattr(lo, field)
            if _fold_h(diff * den, p) != ZERO:
                return False
    return True


def resolution_identity(n: int) -> bool:
    """Level-1 off-diagonal entries satisfy the skein resolution
    G^(1)_{i,j} = 2 Ghat_ii Ghat_jj - G^(1)_{j,i} + (Pi^2 - 2) G^(0)_{i,j}
    for i < j."""
    fam = _braid.ghat_family(n)
    m1 = dn_reduce(1).as_matrix(n, fam)
    pi2m2 = _X + _XI
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = m1[i - 1, j - 1]
            rhs = (const(2) * fam[i, i] * fam[j, j] - m1[j - 1, i - 1]
                   + pi2m2 * fam[i, j])
            if lhs != rhs:
                return False
    return True
