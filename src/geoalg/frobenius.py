"""Stokes-matrix realization of the level-graded disc algebras.

A unipotent upper-triangular matrix S (a Stokes matrix) generates the
symmetric form G = S + S^T and the reflection matrices

    M_k = 1 - E_k G,       (E_k)_{ij} = delta_{ik} delta_{kj},

which realize the monodromies of an n-dimensional Fuchsian system.  The
reflections multiply to S M_1 ... M_n = -S^T (product_identity).  The
product of a trailing run of reflections M_h = M_nt ... M_n plays the role
of the clashed-hole monodromy: it has a block structure with an identity
head and a tail that is the reflection product of the trailing principal
Stokes block St, equal to -St^{-1} St^T by the product identity for St,
and it intertwines G via G M_h = M_h^{-T} G.  Every exact identity here
reads its powers from clash_monodromy(s, nt, k).  The family

    G^{(k)} = G M_h^k

then carries the level-graded Poisson algebra of the disc with a marked
hole: for head indices i, j < nt the bracket of the invariant trace
functions n - 4 + (G^{(k)}_{i,j})^2, pushed through the chain rule to the
scalars G^{(k)}_{i,j}, equals 1/4 times the structure constants of the
level-graded algebra of rank nt - 1.  The 1/4 factor (in the bracket
normalization fixed by ks_calculus, the one that reproduces the disc
algebra exactly in the two-dimensional realization) is the single
cross-module normalization constant and is pinned here.

The module also builds Stokes matrices from the fat-graph geodesic
functions at special shear values, recovering the integer matrices
[[1,3,3],[0,1,3],[0,0,1]] and [[1,4,6,4],[0,1,4,6],[0,0,1,4],[0,0,0,1]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .poly_core import Expr, Mat, E, ZERO, ONE, const, dot, rational_rank
from .dn_algebra import dn_algebra, generator_tuples, _table
from .ks_calculus import ks_brackets_numeric
from .fatgraph import geodesic_function


# ---------------------------------------------------------------------------
# Stokes matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StokesMatrix:
    """Unipotent upper-triangular matrix with exact (or symbolic) entries."""

    mat: Mat

    def __post_init__(self):
        n, m = self.mat.shape
        if n != m:
            raise ValueError("square matrices only")
        for i in range(n):
            if self.mat[i, i] != ONE:
                raise ValueError("diagonal entries must be 1")
            for j in range(i):
                if not self.mat[i, j].is_zero():
                    raise ValueError("lower-triangular entries must vanish")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @staticmethod
    def from_rows(rows) -> "StokesMatrix":
        return StokesMatrix(Mat(rows))

    @staticmethod
    def symbolic(n: int) -> "StokesMatrix":
        rows = [[ONE if i == j else (E(f"s_{i + 1}_{j + 1}") if i < j
                                     else ZERO)
                 for j in range(n)] for i in range(n)]
        return StokesMatrix(Mat(rows))

    def symmetrization(self) -> Mat:
        """G = S + S^T, the symmetric form with diagonal 2."""
        return self.mat + self.mat.transpose()

    def trailing_block(self, nt: int) -> "StokesMatrix":
        """The principal block on rows/columns nt..n."""
        rows = [[self.mat[i, j] for j in range(nt - 1, self.n)]
                for i in range(nt - 1, self.n)]
        return StokesMatrix(Mat(rows))


def all_ones_stokes(m: int) -> StokesMatrix:
    return StokesMatrix.from_rows(
        [[1 if i <= j else 0 for j in range(m)] for i in range(m)])


def random_stokes(n: int, rng) -> StokesMatrix:
    """Random rational Stokes matrix with det(S + S^T) != 0 (exact rank)."""
    while True:
        rows = [[1 if i == j else
                 (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if i < j
                  else 0)
                 for j in range(n)] for i in range(n)]
        if rational_rank([[a + b for a, b in zip(row, col)]
                          for row, col in zip(rows, zip(*rows))]) == n:
            return StokesMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# monodromies and the clash block
# ---------------------------------------------------------------------------


def monodromies(s: StokesMatrix):
    """M_1, ..., M_n, each M_k = 1 - E_k G a reflection, all from one
    G = S + S^T.  M_k^2 = 1 + (G_kk - 2) E_k G, so each is an involution
    because StokesMatrix enforces a unit diagonal (G_kk = 2)."""
    g = s.symmetrization()
    n = s.n
    return [Mat([[(ONE if i == j else ZERO) - (g[i, j] if i == k else ZERO)
                  for j in range(n)] for i in range(n)]) for k in range(n)]


def product_identity(s: StokesMatrix) -> bool:
    """S M_1 M_2 ... M_n = -S^T: the reflection product tail_matrix(s) is
    -S^{-1} S^T, certified by one multiplication."""
    return s.mat * tail_matrix(s) == s.mat.transpose().scale(const(-1))


def clash_monodromy(s: StokesMatrix, nt: int, k: int) -> Mat:
    """M_h^k for M_h = M_nt M_{nt+1} ... M_n and any integer k; each factor
    is an involution, so M_h^{-1} = M_n ... M_nt."""
    if not 1 <= nt <= s.n:
        raise ValueError(f"clash start {nt} out of range 1..{s.n}")
    ms = monodromies(s)[nt - 1:]
    step = prod(ms if k >= 0 else ms[::-1], start=Mat.identity(s.n))
    return prod([step] * abs(k), start=Mat.identity(s.n))


def tail_matrix(st: StokesMatrix) -> Mat:
    """M_1 M_2 ... M_m, the reflection product of a trailing Stokes block
    St of size m; it equals -St^{-1} St^T exactly when product_identity(St)
    holds, so no inverse is formed."""
    return prod(monodromies(st), start=Mat.identity(st.n))


@dataclass(frozen=True)
class ClashReport:
    head_identity_ok: bool
    zero_block_ok: bool
    tail_ok: bool
    intertwining_ok: bool

    @property
    def ok(self) -> bool:
        return (self.head_identity_ok and self.zero_block_ok
                and self.tail_ok and self.intertwining_ok)


def clash_block(s: StokesMatrix, nt: int) -> ClashReport:
    """Block structure of M_h: identity head, tail -St^{-1} St^T for the
    trailing block St, and the intertwining G M_h = M_h^{-T} G.

    The tail verdict compares the lower block of M_h with the reflection
    product of St (tail_matrix) and certifies that product as -St^{-1}
    St^T by product_identity(St): a multiplication, not an inverse.  The
    ordered product of monodromies(St) is independent of clash_monodromy,
    so a fault in the order or range of its factors fails here.

    G M_h = (M_n ... M_nt)^T G holds for any symmetric G, as G M_k =
    M_k^T G for each factor.  The reversed product is M_h^{-1} only when
    every M_k is an involution, so the intertwining verdict also requires
    M_h M_n ... M_nt = 1.
    """
    mh = clash_monodromy(s, nt, 1)
    n = s.n
    h = nt - 1  # head size
    head_ok = all(mh[i, j] == (ONE if i == j else ZERO)
                  for i in range(h) for j in range(h))
    zero_ok = all(mh[i, j].is_zero() for i in range(h) for j in range(h, n))
    lower = Mat([[mh[i, j] for j in range(h, n)] for i in range(h, n)])
    st = s.trailing_block(nt)
    tail_ok = lower == tail_matrix(st) and product_identity(st)
    g = s.symmetrization()
    mh_inv = clash_monodromy(s, nt, -1)
    inter_ok = (mh * mh_inv == Mat.identity(n)
                and g * mh == mh_inv.transpose() * g)
    return ClashReport(head_ok, zero_ok, tail_ok, inter_ok)


# ---------------------------------------------------------------------------
# the level-graded generator family G^{(k)} = G M_h^k
# ---------------------------------------------------------------------------


def gk_family(s: StokesMatrix, nt: int, k: int) -> Mat:
    """G^{(k)} = G M_h^k, M_h^k = clash_monodromy(s, nt, k)."""
    return s.symmetrization() * clash_monodromy(s, nt, k)


def gk_mirror_check(s: StokesMatrix, nt: int, k: int) -> bool:
    """G^{(-k)} = (G^{(k)})^T, the mirror rule of the level grading."""
    return gk_family(s, nt, -k) == gk_family(s, nt, k).transpose()


# ---------------------------------------------------------------------------
# level-p condition on the tail
# ---------------------------------------------------------------------------


def characteristic_polynomial(m: Mat) -> Expr:
    n = m.shape[0]
    eta = E("eta")
    shifted = Mat([[m[i, j] - (eta if i == j else ZERO) for j in range(n)]
                   for i in range(n)])
    return shifted.det()


def level_p_condition(st: StokesMatrix, p: int) -> dict:
    """Periodicity of the clash monodromy from its tail block.

    Checks (-St^{-1} St^T)^p = 1, the tail read as St's reflection
    product (tail_matrix), and nondegeneracy of St + St^T; when both
    hold, the reflection product of ANY Stokes matrix with trailing block St
    has order p, which is certified on a symbolic head of size 2.
    """
    m = st.n
    tail = tail_matrix(st)
    power = Mat.identity(m)
    partial = Mat.zero(m)
    for _ in range(p):
        partial = partial + power
        power = power * tail
    report = {
        "tail_power_identity": power == Mat.identity(m),
        "nondegenerate": not st.symmetrization().det().is_zero(),
        "partial_sum_zero": partial == Mat.zero(m),
        "full_period": None,
    }
    if not (report["tail_power_identity"] and report["nondegenerate"]):
        return report
    # embed under a fully symbolic head: the conclusion must be identical in
    # the head entries, not an accident of special values
    head = 2
    n = head + m
    tail_entries = {f"s_{head + i + 1}_{head + j + 1}": st.mat[i, j]
                    for i in range(m) for j in range(i + 1, m)}
    full = StokesMatrix(StokesMatrix.symbolic(n).mat.subst(tail_entries))
    report["full_period"] = (clash_monodromy(full, head + 1, p)
                             == Mat.identity(n))
    return report


def all_ones_report(m: int) -> dict:
    """Tail spectrum for the all-ones trailing block: the characteristic
    polynomial is (-1)^m (1 + eta + ... + eta^m), checked exactly, so the
    eigenvalues are the nontrivial (m+1)-st roots of unity."""
    st = all_ones_stokes(m)
    tail = tail_matrix(st)
    char = characteristic_polynomial(tail)
    expected = ZERO
    for i in range(m + 1):
        expected = expected + E("eta") ** i
    if m % 2:
        expected = -expected
    return {
        "char_poly_ok": char == expected,
        "level_p": level_p_condition(st, m + 1),
    }


# ---------------------------------------------------------------------------
# numeric bracket realization
# ---------------------------------------------------------------------------


REALIZATION_FACTOR = Fraction(1, 4)
# relative: see realization_check
REALIZATION_TOL = 1e-9


def _trace_family(gens, nt: int):
    """Tr(M_i M_h^k M_j M_h^{-k}), an invariant equal to n-4+(G^{(k)}_ij)^2,
    for every (i, j, k) of *gens* (k >= 0), as one batch-aware function of
    the monodromies with values (..., len(gens)).  M_h and M_h^{-1} are
    formed once per call; for each j, M_h^k M_j M_h^{-k} is advanced one
    level at a time, so one conjugate is held at a time."""
    reads = sorted((j, k, i, p) for p, (i, j, k) in enumerate(gens))

    def f(mats):
        mh = mats[nt - 1]
        for r in range(nt, len(mats)):
            mh = mh @ mats[r]
        inv = np.linalg.inv(mh)
        out = np.empty(mh.shape[:-2] + (len(gens),), mh.dtype)
        col = None
        for j, k, i, p in reads:
            if j != col:
                col, conj, level = j, mats[j - 1], 0
            while level < k:
                conj = mh @ conj @ inv
                level += 1
            np.einsum("...ab,...ba->...", mats[i - 1], conj, out=out[..., p])
        return out

    return f


def _gk_values(g, nt: int, rank: int, top: int) -> dict:
    """{(i, j, k): G^{(k)}_ij} for i, j <= rank and k <= top, exact: the
    head rows of G M_h^k from G = S + S^T (rows of rationals *g*), each
    reflection applied by a rank-one update, row M_r = row - row_r G_r."""
    rows, out = g[:rank], {}
    for k in range(top + 1):
        if k:
            for r in range(nt - 1, len(g)):
                rows = [[x - row[r] * y for x, y in zip(row, g[r])]
                        for row in rows]
        out.update(((i + 1, j + 1, k), row[j])
                   for i, row in enumerate(rows) for j in range(rank))
    return out


def realization_check(s: StokesMatrix, rank: int) -> dict:
    """Brackets of G^{(k)}_{i,j} vs 1/4 x level-graded structure constants,
    for the generators of levels 0 and 1.

    The first *rank* indices survive as marked points; the trailing block
    of size n - rank is clashed into the hole (nt = rank + 1).  The exact
    G^{(k)} values (row updates, _gk_values) and the float monodromies
    come from the rationals of G = S + S^T.  The left side differentiates
    all trace functions from one complex-step stack (_trace_family) and
    divides out the chain-rule factor 2 G^{(k)}_{i,j} per slot; the right
    side sums c v[u] v[v] over the terms of each pair's row of the
    structure-constant table, v the exact G^{(k)} values as floats.  The
    verdict is this float check.

    The gate is relative: a pair passes when |lhs - rhs| <= REALIZATION_TOL
    * max(1, |lhs|, |rhs|).  Float rounding in the products of n x n
    matrices grows with their entries, and the generator values reach
    thousands at some rational points, so an absolute tolerance fails
    there although the identity holds.  max_deviation is the largest
    |lhs - rhs| / max(1, |lhs|, |rhs|) over the pairs.
    """
    n = s.n
    if not 1 <= rank < n:
        raise ValueError("rank must leave a nonempty trailing block")
    nt = rank + 1
    alg = dn_algebra(rank)
    gens = generator_tuples(rank, 1)
    pairs = [(a, b) for idx, a in enumerate(gens) for b in gens[idx:]]
    g = [[x.as_rational() for x in row] for row in s.symmetrization().rows]
    exact = _gk_values(g, nt, rank, 2)  # level-1 brackets reach level 2
    if any(v == 0 for v in exact.values()):
        raise ValueError("degenerate point: a generator value vanishes")
    index = {x: p for p, x in enumerate(
        dict.fromkeys(x for pair in pairs for x in pair))}
    mats = np.broadcast_to(np.eye(n), (n, n, n)).copy()
    mats[range(n), range(n)] -= np.array(g, dtype=float)  # M_r = 1 - E_r G
    brackets = ks_brackets_numeric(_trace_family(list(index), nt), mats)
    factor = float(REALIZATION_FACTOR)
    floats = {x: float(v) for x, v in exact.items()}
    table = _table(alg)
    rows = [table.pair(a, b) for a, b in pairs]
    # by generator id: 1 for id 0, None past the exact levels
    values = [1.0] + [floats.get(x) for x in table.triples[1:]]
    worst = 0.0
    for (a, b), t in zip(pairs, rows):
        rhs = factor * sum(c * values[u] * values[v] for c, _, u, v in t)
        lhs = float(brackets[index[a], index[b]]) / (4 * floats[a] * floats[b])
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return {"pairs": len(pairs), "max_deviation": worst,
            "ok": worst <= REALIZATION_TOL}


# Degenerate draws are rare (about one in ten), so a suite that needs more
# than this many draws per trial is stuck on its input, not unlucky.
DRAWS_PER_TRIAL = 10


def realization_suite(trials: int, seed: int) -> dict:
    """Run realization_check at random rational 5 x 5 Stokes points, rank 3
    with a clashed block of 2 (resampling the rare degenerate draws, at most
    DRAWS_PER_TRIAL * trials draws in all), and aggregate the worst
    deviation."""
    import random

    rng = random.Random(seed)
    worst = 0.0
    done = 0
    for _ in range(DRAWS_PER_TRIAL * trials):
        if done == trials:
            break
        s = random_stokes(5, rng)
        try:
            rep = realization_check(s, 3)
        except ValueError as exc:
            rejected = exc
            continue
        worst = max(worst, rep["max_deviation"])
        done += 1
    if done < trials:
        raise ValueError(f"only {done} of {trials} Stokes points were usable "
                         f"in {DRAWS_PER_TRIAL * trials} draws ({rejected})")
    return {"trials": done, "max_deviation": worst,
            "ok": worst <= REALIZATION_TOL}


# ---------------------------------------------------------------------------
# Stokes matrices from shear coordinates
# ---------------------------------------------------------------------------


def teich_stokes(n: int, shears: dict) -> StokesMatrix:
    """The unipotent matrix of geodesic functions at a point.

    *shears* binds the half-variables s1..sn, t1..t(n-3) (exponentials of
    half shear coordinates); unbound variables stay symbolic.
    """
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(ONE)
            elif i < j:
                row.append(geodesic_function(n, i, j).subst(shears))
            else:
                row.append(ZERO)
        rows.append(row)
    return StokesMatrix(Mat(rows))


def _fold_fourth_root(e: Expr, var: str, base: int) -> Expr:
    """Evaluate at var = base^{1/4}; only fourth powers may survive."""
    pieces = e.coeffs_in(var)
    for k in pieces:
        if k % 4:
            raise ValueError(f"stray power {k} of {var} at the special point")
    return dot([(Fraction(base) ** (k // 4), coeff, ONE)
                for k, coeff in pieces.items()])


def a3_star() -> StokesMatrix:
    """All shear coordinates zero: every geodesic function equals 3."""
    point = {f"s{i}": ONE for i in range(1, 4)}
    return teich_stokes(3, point)


def a4_star() -> StokesMatrix:
    """Alternating half-log-2 shears, zero inner shear: rows 4, 6, 4.

    The half-variables are fourth roots of 2, handled exactly through a
    fresh symbol folded at the end.
    """
    q = E("qr")
    point = {"s1": q, "s2": q ** -1, "s3": q, "s4": q ** -1, "t1": ONE}
    raw = teich_stokes(4, point)
    folded = raw.mat.map(lambda e: _fold_fourth_root(e, "qr", 2))
    return StokesMatrix(folded)
