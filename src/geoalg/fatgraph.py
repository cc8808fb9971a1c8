"""Fat graphs with pending edges and the geometry behind the A_n algebra.

The disc with n orbifold points is described by a caterpillar-shaped spine:
n-2 three-valent vertices in a row, pending edges Z_1 (left end), Z_2 ..
Z_{n-1} (hanging below vertices 1 .. n-2) and Z_n (right end), and inner
edges Y_1 .. Y_{n-3} joining consecutive vertices.  Each pending edge ends
at an orbifold (dot) vertex where a geodesic undergoes an inversion F.

Matrix conventions (SL(2) lifts):

    R = [[1,1],[-1,0]]   L = [[0,1],[-1,-1]]   F = [[0,1],[-1,0]]
    X_Z = [[0, -e^{Z/2}], [e^{-Z/2}, 0]]

with the shear exponentials carried by the half-variables s_i = e^{Z_i/2}
and t_j = e^{Y_j/2}, so every matrix entry is an exact Laurent polynomial.

The Poisson structure on shear coordinates is log-canonical, {Z_a, Z_b} =
pi_ab with pi the constant vertex-cyclic bivector, so on the half-variables
u = e^{Z/2} monomials bracket as {u^a, u^b} = (a^T pi b / 4) u^(a+b): a
bracket is one pass over pairs of monomials (47,237 in a `verify --suite
goldman --n 7` pass, where shear gradients took 104,371 products).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .poly_core import (Expr, Mat, E, ZERO, ONE, _BITS, _LIMIT, _expr,
                        _exponents, _product_bound, _symbol, dot, gen)

R_MAT = Mat([[1, 1], [-1, 0]])
L_MAT = Mat([[0, 1], [-1, -1]])
F_MAT = Mat([[0, 1], [-1, 0]])


def x_edge(var: str) -> Mat:
    """Edge matrix X for the edge whose half-variable is *var*."""
    u = E(var)
    return Mat([[ZERO, -u], [u ** -1, ZERO]])


def _letter_matrix(letter) -> Mat:
    if letter == "R":
        return R_MAT
    if letter == "L":
        return L_MAT
    if letter == "F":
        return F_MAT
    kind, var = letter
    assert kind == "X"
    return x_edge(var)


@dataclass(frozen=True)
class Mat2Word:
    """A word in {R, L, F, X(edge)} with an overall sign."""

    letters: tuple
    sign: int = 1

    @cache  # once per word and process: a word and its Mat are immutable
    def evaluate(self) -> Mat:
        m = Mat.identity(2)
        for letter in self.letters:
            m = m * _letter_matrix(letter)
        if self.sign < 0:
            m = -m
        return m


@dataclass(frozen=True)
class FatGraph:
    """The canonical caterpillar spine for the disc with n orbifold points."""

    n: int
    # Each entry: the counterclockwise cyclic order of half-variables of the
    # edges incident to one 3-valent vertex.
    vertex_orders: tuple

    @property
    def pending_vars(self):
        return tuple(f"s{i}" for i in range(1, self.n + 1))

    @property
    def inner_vars(self):
        return tuple(f"t{j}" for j in range(1, self.n - 2))

    def edge_vars(self):
        return self.pending_vars + self.inner_vars


def canonical_disc_graph(n: int) -> FatGraph:
    """Caterpillar graph: n pending edges, n-3 inner edges, n-2 vertices."""
    if n < 3:
        raise ValueError("the disc graph needs at least 3 orbifold points")
    orders = []
    for v in range(1, n - 1):
        left = "s1" if v == 1 else f"t{v - 1}"
        down = f"s{v + 1}"
        right = f"s{n}" if v == n - 2 else f"t{v}"
        orders.append((left, down, right))
    return FatGraph(n, tuple(orders))


def basis_words(n: int):
    """The traceless generators gamma_1..gamma_n of the Fuchsian group.

    gamma_i travels from the base edge Z_1 along the spine to the i-th
    pending edge, turns around the dot (one inversion F) and travels back.
    Each word evaluates to a trace-zero SL(2) matrix.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    words = [Mat2Word(("F",))]
    for i in range(2, n + 1):
        out = [("X", "s1")]
        if i == 2:
            out += ["L", ("X", "s2")]
        elif i < n:
            for j in range(1, i - 1):
                out += ["R", ("X", f"t{j}")]
            out += ["L", ("X", f"s{i}")]
        else:
            for j in range(1, n - 2):
                out += ["R", ("X", f"t{j}")]
            out += ["R", ("X", f"s{n}")]
        ret = [("X", out[-1][1])]
        back = [l[1] for l in out[1:-1] if isinstance(l, tuple)]
        back = back[::-1]  # inner stops, innermost first on the way home
        # Around an intermediate dot the way home starts with an R turn;
        # after the far-end dot (i = n) every homeward turn is an L.
        turns = (["L"] if i == n else ["R"]) + ["L"] * len(back)
        for turn, var in zip(turns, back + ["s1"]):
            ret += [turn, ("X", var)]
        words.append(Mat2Word(tuple(out + ["F"] + ret), -1))
    return words


def geodesic_function(n: int, i: int, j: int) -> Expr:
    """G_{i,j} = -Tr(gamma_i gamma_j), a Laurent polynomial in s, t."""
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    words = basis_words(n)
    return -(words[i - 1].evaluate() * words[j - 1].evaluate()).trace()


def geodesic_functions(n: int) -> dict:
    """{gen(i, j, 0): geodesic_function(n, i, j)} for 1 <= i < j <= n."""
    return {gen(i, j, 0): geodesic_function(n, i, j)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}


# {u^a, u^b} = w(a, b) u^(a+b) / _DENOM with w(a, b) = a^T pi b: each
# side of a bracket of shears halves the exponents of u = e^{X/2}
_DENOM = 4


def _shear_form(f: Expr, graph: FatGraph) -> tuple:
    """(f, rows, images): one exponent row per monomial of *f* over the
    edges of *graph*, and its image under pi, the vertex-cyclic bivector
    (pi_ab = 1 (-1) where b follows (precedes) a at a vertex); *f* may
    hold no other symbol."""
    edges = graph.edge_vars()
    foreign = f.symbols() - set(edges)
    if foreign:
        raise ValueError(f"foreign variables {sorted(foreign)} for this graph")
    col = {v: k for k, v in enumerate(edges)}
    pi = np.zeros((len(edges), len(edges)), np.int64)
    for order in graph.vertex_orders:
        for a, b in zip(order, order[1:] + order[:1]):
            pi[col[a], col[b]] += 1
    pi -= pi.T
    ids = [_symbol(v)[1] // _BITS for v in edges]
    flat, width = _exponents(list(f._d), max(ids) + 1)
    rows = np.array(flat, np.int64).reshape(-1, width)[:, ids]
    return f, rows, rows @ pi.T


def _form_bracket(form_f: tuple, form_g: tuple) -> Expr:
    """{f, g} from the shear forms of f and g: one pass over the pairs of
    monomials, c d w(a, b) added at each product, and each sum divided by
    _DENOM exactly.  Exponent bounds are those of dot."""
    (f, rows, _), (g, _, images) = form_f, form_g
    bound = f._bound + g._bound
    if bound >= _LIMIT:
        bound = _product_bound(f._d, g._d)
    d = {}
    get = d.get
    right = list(g._d.items())
    for (m1, c1), ws in zip(f._d.items(), (rows @ images.T).tolist()):
        for (m2, c2), w in zip(right, ws):
            if w:
                mono = m1 + m2
                d[mono] = get(mono, 0) + c1 * c2 * w
    return _expr({m: Fraction(v, _DENOM) if v % _DENOM else v // _DENOM
                  for m, v in d.items() if v}, bound)


def goldman_bracket(f: Expr, g: Expr, graph: FatGraph) -> Expr:
    """The vertex-cyclic Poisson bracket on shear coordinates."""
    return _form_bracket(_shear_form(f, graph), _shear_form(g, graph))


def perimeter_identity(n: int) -> bool:
    """Tr((gamma_1..gamma_n)^-1) = (-1)^{n-1} (e^{P/2} + e^{-P/2})."""
    words = basis_words(n)
    # Paths compose right to left: the matrix of gamma_1 ... gamma_n acts
    # with gamma_1 applied first.
    prod = Mat.identity(2)
    for w in reversed(words):
        prod = prod * w.evaluate()
    a, b = prod.rows[0]
    c, d = prod.rows[1]
    inv_trace = a + d  # adjugate of an SL(2) matrix has the same trace
    del b, c
    half_per = ONE
    for i in range(1, n + 1):
        half_per = half_per * E(f"s{i}", 2)
    for j in range(1, n - 2):
        half_per = half_per * E(f"t{j}", 2)
    rhs = half_per + half_per.inverse()
    if (n - 1) % 2 == 1:
        rhs = -rhs
    return inv_trace == rhs


def _reduce_quadratic(e: Expr, var: str, csum: Expr) -> Expr:
    """Reduce var-exponents modulo var + var^-1 = csum (var^2 - csum*var + 1 = 0)."""
    v = E(var)
    v_inv_poly = csum - v  # var^-1 expressed polynomially
    out = dot([(1, coeff, v ** k if k >= 0 else v_inv_poly ** -k)
               for k, coeff in e.coeffs_in(var).items()])
    # now polynomial in var with degree possibly > 1: reduce with v^2 = csum*v - 1
    while True:
        pieces = out.coeffs_in(var)
        top = max(pieces, default=0)
        if top <= 1:
            return out
        out = dot([(1, coeff, (csum * v - ONE) * v ** (top - 2) if k == top
                    else v ** k) for k, coeff in pieces.items()])


def clashed_hole_coords() -> bool:
    """The two-dot turnaround equals a single hole-edge turnaround.

    Checks X_Y R X_{Z2} F X_{Z2} R X_{Z1} F X_{Z1} R X_Y =
    X_{Yh} R X_{Zh} R X_{Yh} under the coordinate identifications
    Y + Z1 + Z2 = Yh + Zh/2 and e^{Zh/2} + e^{-Zh/2} = G_{12}-expression.
    """
    y, z1, z2 = E("y"), E("z1"), E("z2")
    lhs = (x_edge("y") * R_MAT * x_edge("z2") * F_MAT * x_edge("z2") * R_MAT
           * x_edge("z1") * F_MAT * x_edge("z1") * R_MAT * x_edge("y"))
    # Fresh quarter-variable q4 = e^{Zh/4}: zh = q4^2, yh = y z1 z2 / q4.
    yh = y * z1 * z2 * E("q4", -1)
    zh = E("q4", 2)
    xq = Mat([[ZERO, -yh], [yh ** -1, ZERO]])
    xz = Mat([[ZERO, -zh], [zh ** -1, ZERO]])
    rhs = xq * R_MAT * xz * R_MAT * xq
    csum = z1 ** 2 * z2 ** 2 + z1 ** -2 * z2 ** -2 + z1 ** 2 * z2 ** -2
    for p in range(2):
        for q in range(2):
            diff = lhs[p, q] - rhs[p, q]
            # entries depend on q4 only through even powers; fold q4^2 -> zh
            pieces = diff.coeffs_in("q4")
            if any(k % 2 for k in pieces):
                return False
            folded = dot([(1, coeff, E("zh", k // 2))
                          for k, coeff in pieces.items()])
            if not _reduce_quadratic(folded, "zh", csum).is_zero():
                return False
    return True
