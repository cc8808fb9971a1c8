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

The same structure constants are packaged as a generating-function
identity: with

    Gcal_{i,j}(lam) = A0_{i,j} + sum_{k>=1} G^(k)_{i,j} lam^-k,

A0 upper-triangular with unit diagonal, the bracket of two matrix entries
of Gcal is a rational-kernel quadratic expression (a classical twisted
reflection equation); both forms are compared coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .poly_core import (Expr, E, ZERO, ONE, const, gen, is_generator,
                        parse_gen, shared)

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
        """G^(k)_{i,j} as +-symbol / constant in canonical storage form."""
        self.check_index(i, j, k)
        if self.flavor == FLAVOR_DP:
            p = self.period
            k = k % p if p else k
            # fold the upper half of the period window via the mirror
            if k and (2 * k > p or (2 * k == p and i > j)):
                i, j, k = j, i, p - k
        if k < 0:
            i, j, k = j, i, -k
        if k == 0:
            if i == j:
                return const(2)
            i, j = min(i, j), max(i, j)
        return E(gen(i, j, k))


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


@cache
def _pair_bracket(alg: GenAlgebra, a, b) -> Expr:
    """{G^(m)_{j,i}, G^(k)_{p,l}} from the closed-form tables.

    Memoized once per process by (alg, a, b): the algebra is a frozen
    dataclass and every Expr is immutable, so a cached value can be shared
    by all callers, and the table's equal monomials are one object each.
    Callers check the indices (alg.check_index) first.
    """
    return shared(_structure_constant(alg, a, b))


def _structure_constant(alg: GenAlgebra, a, b) -> Expr:
    (j, i, m), (p, l, k) = a, b
    if m < 0:
        j, i, m = i, j, -m
    if k < 0:
        p, l, k = l, p, -k
    if m > k:
        return -_pair_bracket(alg, b, a)
    g = alg.canonical
    if m == 0:
        return (
            const(_eps(j - l) - _eps(i - l))
            * (g(l, i, 0) * g(p, j, k) - g(l, j, 0) * g(p, i, k))
            + const(_eps(j - p) - _eps(i - p))
            * (g(p, i, 0) * g(j, l, k) - g(p, j, 0) * g(i, l, k))
        )
    # 0 < m <= k
    out = (
        const(_eps(i - l)) * (g(p, i, k) * g(j, l, m) - g(i, l, 0) * g(p, j, k - m))
        + const(_eps(i - p)) * (g(j, p, m) * g(i, l, k) - g(i, p, 0) * g(j, l, k + m))
        + const(_eps(j - l)) * (g(p, j, k) * g(l, i, m) - g(j, l, 0) * g(p, i, k + m))
        + const(_eps(j - p)) * (g(p, i, m) * g(j, l, k) - g(j, p, 0) * g(i, l, k - m))
    )
    for r in range(m + 1):
        c = const(1 if r in (0, m) else 2)
        out = out + c * (
            g(p, i, k + m - r) * g(j, l, r)
            - g(p, i, m - r) * g(j, l, k + r)
            + g(i, l, k - m + r) * g(j, p, r)
            - g(l, i, r) * g(p, j, k - m + r)
        )
    return out


def _generator_partials(alg: GenAlgebra, f: Expr) -> list:
    """[(index triple, df/dG)] over the generators G that f depends on."""
    out = []
    for s in f.symbols():
        if is_generator(s):
            df = f.diff(s)
            if not df.is_zero():
                a = parse_gen(s)
                alg.check_index(*a)
                out.append((a, df))
    return out


def bracket(alg: GenAlgebra, f: Expr, g: Expr) -> Expr:
    """Leibniz extension of the structure constants to polynomials."""
    dfs = _generator_partials(alg, f)
    if not dfs:
        return ZERO
    dgs = _generator_partials(alg, g)
    out = ZERO
    for a, df in dfs:
        for b, dg in dgs:
            out = out + df * dg * _pair_bracket(alg, a, b)
    return out


# ---------------------------------------------------------------------------
# generating-function form
# ---------------------------------------------------------------------------
# A Series2 is a dict {(a, b): Expr} for the coefficient of lam^-a mu^-b;
# exponents may be negative internally (positive powers of mu appear in the
# kernel expansions) and are truncated at the end.


def _series_add(s1, s2):
    out = dict(s1)
    for key, v in s2.items():
        t = out.get(key, ZERO) + v
        if t.is_zero():
            out.pop(key, None)
        else:
            out[key] = t
    return out


def _series_scale(s, c):
    return {k: const(c) * v for k, v in s.items()}


def _series_mul(s1, s2, cap):
    out = {}
    for (a1, b1), v1 in s1.items():
        for (a2, b2), v2 in s2.items():
            a, b = a1 + a2, b1 + b2
            if a > cap or b > cap:
                continue
            key = (a, b)
            t = out.get(key, ZERO) + v1 * v2
            if t.is_zero():
                out.pop(key, None)
            else:
                out[key] = t
    return out


def _series_trunc(s, order):
    return {(a, b): v for (a, b), v in s.items()
            if 0 <= a <= order and 0 <= b <= order and not v.is_zero()}


def gcal_entry(alg: GenAlgebra, i: int, j: int, order: int, var="lam"):
    """Series of Gcal_{i,j} in the chosen spectral variable, to lam^-order."""
    slot = 0 if var == "lam" else 1
    out = {}
    a0 = ONE if i == j else (alg.canonical(i, j, 0) if i < j else ZERO)
    if not a0.is_zero():
        out[(0, 0)] = a0
    for k in range(1, order + 1):
        key = (k, 0) if slot == 0 else (0, k)
        v = alg.canonical(i, j, k)
        if not v.is_zero():
            out[key] = v
    return out


def _kernel_sum_diff(order):
    """(lam+mu)/(lam-mu) = 1 + 2 sum_{r>=1} (mu/lam)^r  (|mu| < |lam|)."""
    out = {(0, 0): 1}
    for r in range(1, order + 1):
        out[(r, -r)] = 2
    return out


def _kernel_prod(order):
    """(1+lam mu)/(1-lam mu) = -1 - 2 sum_{r>=1} (lam mu)^-r."""
    out = {(0, 0): -1}
    for r in range(1, order + 1):
        out[(r, r)] = -2
    return out


def _apply_kernel(kernel, series, cap):
    out = {}
    for (ka, kb), kc in kernel.items():
        for (a, b), v in series.items():
            aa, bb = a + ka, b + kb
            if aa > cap or bb > cap:
                continue
            key = (aa, bb)
            t = out.get(key, ZERO) + const(kc) * v
            if t.is_zero():
                out.pop(key, None)
            else:
                out[key] = t
    return out


def generating_bracket(alg: GenAlgebra, ji, pl, order: int):
    """Both sides of the generating-function bracket identity, as Series2.

    Left: {Gcal_{j,i}(lam), Gcal_{p,l}(mu)} from the structure constants.
    Right: the rational-kernel quadratic expression.  Returns (lhs, rhs)
    truncated to lam^-order mu^-order for coefficientwise comparison.
    """
    j, i = ji
    p, l = pl
    cap = 2 * order
    lhs = {}
    glam = gcal_entry(alg, j, i, cap, "lam")
    gmu = gcal_entry(alg, p, l, cap, "mu")
    for (a, _), va in glam.items():
        for (_, b), vb in gmu.items():
            br = bracket(alg, va, vb)
            if not br.is_zero():
                lhs = _series_add(lhs, {(a, b): br})

    def gg(i1, j1, i2, j2, swap=False):
        # Gcal_{i1,j1}(lam) Gcal_{i2,j2}(mu); swap uses (mu, lam) instead
        s1 = gcal_entry(alg, i1, j1, cap, "mu" if swap else "lam")
        s2 = gcal_entry(alg, i2, j2, cap, "lam" if swap else "mu")
        return _series_mul(s1, s2, cap)

    k_sd = _kernel_sum_diff(cap)
    k_pr = _kernel_prod(cap)
    rhs = {}
    # (eps(j-p) - K_sd) Gcal_{p,i}(lam) Gcal_{j,l}(mu)
    t = gg(p, i, j, l)
    rhs = _series_add(rhs, _series_scale(t, _eps(j - p)))
    rhs = _series_add(rhs, _series_scale(_apply_kernel(k_sd, t, cap), -1))
    # (eps(i-l) + K_sd) Gcal_{p,i}(mu) Gcal_{j,l}(lam)
    t = gg(p, i, j, l, swap=True)
    rhs = _series_add(rhs, _series_scale(t, _eps(i - l)))
    rhs = _series_add(rhs, _apply_kernel(k_sd, t, cap))
    # (eps(i-p) - K_pr) Gcal_{j,p}(lam) Gcal_{i,l}(mu)
    t = gg(j, p, i, l)
    rhs = _series_add(rhs, _series_scale(t, _eps(i - p)))
    rhs = _series_add(rhs, _series_scale(_apply_kernel(k_pr, t, cap), -1))
    # (eps(j-l) + K_pr) Gcal_{l,i}(lam) Gcal_{p,j}(mu)
    t = gg(l, i, p, j)
    rhs = _series_add(rhs, _series_scale(t, _eps(j - l)))
    rhs = _series_add(rhs, _apply_kernel(k_pr, t, cap))
    return _series_trunc(lhs, order), _series_trunc(rhs, order)


def jacobi_check(alg: GenAlgebra, f: Expr, g: Expr, h: Expr) -> Expr:
    """{{f,g},h} + {{g,h},f} + {{h,f},g}; zero iff Jacobi holds."""
    return (bracket(alg, bracket(alg, f, g), h)
            + bracket(alg, bracket(alg, g, h), f)
            + bracket(alg, bracket(alg, h, f), g))


# ---------------------------------------------------------------------------
# semiclassical reflection equation
# ---------------------------------------------------------------------------
# Tensor-space objects are dicts {((i,al),(j,be)): Series2} on basis
# E_{i,j} (x) E_{al,be} of End(C^n) (x) End(C^n), indices 1-based.


def _tmat_mul(m1, m2, n, cap):
    out = {}
    for ((i, al), (j, be)), s1 in m1.items():
        for ((j2, be2), (k, ga)), s2 in m2.items():
            if j2 != j or be2 != be:
                continue
            key = ((i, al), (k, ga))
            prod = _series_mul(s1, s2, cap)
            out[key] = _series_add(out.get(key, {}), prod)
    return {k: v for k, v in out.items() if v}


def _tmat_add(m1, m2):
    out = dict(m1)
    for k, v in m2.items():
        out[k] = _series_add(out.get(k, {}), v)
    return {k: v for k, v in out.items() if v}


def _tmat_scale(m, c):
    return {k: _series_scale(v, c) for k, v in m.items()}


def _gcal_tensor(alg: GenAlgebra, n: int, slot: int, cap: int):
    """Gcal(lam) (x) 1 (slot 1) or 1 (x) Gcal(mu) (slot 2)."""
    var = "lam" if slot == 1 else "mu"
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = gcal_entry(alg, i, j, cap, var)
            if not s:
                continue
            for other in range(1, n + 1):
                if slot == 1:
                    key = ((i, other), (j, other))
                else:
                    key = ((other, i), (other, j))
                out[key] = _series_add(out.get(key, {}), s)
    return out


def _r_over_lam_minus_mu(n: int, cap: int):
    """r(lam,mu)/(lam-mu) expanded for |mu| < |lam|.

    Diagonal (lam+mu)/(lam-mu) = 1 + 2 sum (mu/lam)^r; upper 2lam/(lam-mu)
    = 2 sum_{r>=0} (mu/lam)^r; lower 2mu/(lam-mu) = 2 sum_{r>=1} (mu/lam)^r.
    """
    diag = {(0, 0): ONE}
    upper = {(0, 0): const(2)}
    lower = {}
    for r in range(1, cap + 1):
        diag[(r, -r)] = const(2)
        upper[(r, -r)] = const(2)
        lower[(r, -r)] = const(2)
    out = {}
    for i in range(1, n + 1):
        out[((i, i), (i, i))] = dict(diag)
        for j in range(1, n + 1):
            if i < j:
                out[((i, j), (j, i))] = dict(upper)
            elif i > j:
                out[((i, j), (j, i))] = dict(lower)
    return out


def _rt1_over(n: int, cap: int):
    """r(lam^-1, mu)^{T_1} / (lam^-1 - mu) expanded in (lam mu)^-1.

    Writing x = lam mu: diagonal (lam^-1+mu)/(lam^-1-mu) = (1+x)/(1-x) =
    -1 - 2 sum_{r>=1} x^-r; the i<j block carries 2 lam^-1/(lam^-1-mu) =
    2/(1-x) = -2 sum_{r>=1} x^-r; the i>j block 2 mu/(lam^-1-mu) =
    2x/(1-x) = -2 - 2 sum_{r>=1} x^-r.  T_1 transposes the first tensor
    factor: E_ij (x) E_ji -> E_ji (x) E_ji, whose tensor-space matrix
    entry sits at row (j,j), column (i,i).
    """
    diag = {(0, 0): const(-1)}
    small = {}
    big = {(0, 0): const(-2)}
    for r in range(1, cap + 1):
        diag[(r, r)] = const(-2)
        small[(r, r)] = const(-2)
        big[(r, r)] = const(-2)
    out = {}
    for i in range(1, n + 1):
        out[((i, i), (i, i))] = dict(diag)
        for j in range(1, n + 1):
            if i < j:
                out[((j, j), (i, i))] = dict(small)   # T1 of E_ij (x) E_ji
            elif i > j:
                out[((j, j), (i, i))] = dict(big)
    return out


def semiclassical_reflection_check(alg: GenAlgebra, order: int):
    """Entrywise comparison of the bracket with the reflection form.

    Builds {Gcal(lam) (x), Gcal(mu)} entry by entry from the structure
    constants and compares with the reflection-form right-hand side

        [r/(lam-mu), G1 G2] + G1 rT1/(lam^-1-mu) G2 - G2 rT1/(lam^-1-mu) G1

    to the requested series order.  With the commutator and exchange
    terms oriented as above the assembled expression is the exact
    entrywise *negative* of the bracket (the same orientation convention
    that makes the hbar^0 term of the quantum R-matrix come out as
    -(lam-mu) on the diagonal tensor part); the check therefore compares
    against the orientation-corrected right-hand side and reports the
    global sign separately.  Returns a report dict.
    """
    n = alg.n
    cap = 2 * order
    g1 = _gcal_tensor(alg, n, 1, cap)
    g2 = _gcal_tensor(alg, n, 2, cap)
    g1g2 = _tmat_mul(g1, g2, n, cap)
    r_sd = _r_over_lam_minus_mu(n, cap)
    rt1 = _rt1_over(n, cap)
    rhs = _tmat_add(_tmat_mul(r_sd, g1g2, n, cap),
                    _tmat_scale(_tmat_mul(g1g2, r_sd, n, cap), -1))
    rhs = _tmat_add(rhs, _tmat_mul(g1, _tmat_mul(rt1, g2, n, cap), n, cap))
    rhs = _tmat_add(rhs, _tmat_scale(
        _tmat_mul(g2, _tmat_mul(rt1, g1, n, cap), n, cap), -1))
    mismatches = []
    checked = 0
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            for p in range(1, n + 1):
                for l in range(1, n + 1):
                    lhs = {}
                    glam = gcal_entry(alg, j, i, cap, "lam")
                    gmu = gcal_entry(alg, p, l, cap, "mu")
                    for (a, _), va in glam.items():
                        for (_, b), vb in gmu.items():
                            br = bracket(alg, va, vb)
                            if not br.is_zero():
                                lhs = _series_add(lhs, {(a, b): br})
                    entry = rhs.get(((j, p), (i, l)), {})
                    lhs_t = _series_trunc(lhs, order)
                    # orientation correction: the reflection form as
                    # assembled is the entrywise negative of the bracket
                    rhs_t = {key: -v for key, v in
                             _series_trunc(entry, order).items()}
                    checked += 1
                    if lhs_t != rhs_t:
                        mismatches.append(((j, i), (p, l), lhs_t, rhs_t))
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
