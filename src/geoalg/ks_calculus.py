"""The Korotkin-Samtleben bracket as an executable trace calculus.

Two independent realizations:

* symbolic -- cyclic words in the letters M_1..M_n (trace-zero SL(2)
  symbols) and H^k (an opaque invertible symbol, the clashed hole
  monodromy).  The bracket of two traces is computed letter-pair by
  letter-pair; each elementary bracket is a signed sum of four terms of the
  shape (L1 (x) L2) Omega (R1 (x) R2), and the exchange matrix Omega
  contracts the two trace spaces into a single cyclic trace:

      Tr_{12}[(L1 (x) L2) Omega (R1 (x) R2)(U (x) V)] = Tr(L1 R2 V L2 R1 U).

  Words are then rewritten into polynomials in the generators
  G[i,j,k] = -Tr(M_i H^k M_j H^-k) and the Casimir parameters Tr(H^k)
  via the SL(2) identities Tr M_i = 0, M_i^-1 = -M_i, M_i^2 = -1 and the
  skein relation Tr A Tr B = Tr(AB) + Tr(AB^-1).  M indices enter only
  through == and <: an increasing renaming of them commutes with it all.

* numeric -- the entrywise structure constants on concrete matrices of any
  size, with batched complex-step differentiation for the chain rule.
  This serves as a dimension-agnostic oracle (it is the only route
  available for the n x n monodromy realization).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .poly_core import Expr, _checked, _normalized, _symbol, gen, parse_gen


# ---------------------------------------------------------------------------
# trace words
# ---------------------------------------------------------------------------
# A letter is ("M", i) (exponent +1; inverses are normalized away via
# M^-1 = -M) or ("H", k) with k a nonzero integer.  Inside the oracle a
# letter is a small int: M_i is i and H^k is _H + k, so that int order is
# letter order (the M letters by index, then the H letters by exponent).

_H = 1 << 20        # the code of H^0
_SPLIT = _H >> 1    # M codes lie below, H codes above
_BOTTOM = -_SPLIT   # below every letter code: the top of an empty stack


def M(i: int):
    return ("M", i)


def H(k: int = 1):
    return ("H", k)


def gen_word(i: int, j: int, k: int):
    """The trace word of G[i,j,k] = -Tr(M_i H^k M_j H^-k)."""
    if k == 0:
        return (M(i), M(j))
    return (M(i), H(k), M(j), H(-k))


def _encode(letters) -> list:
    """The int codes of *letters*, with H^0 dropped."""
    out = []
    for kind, v in letters:
        if not -_SPLIT < v < _SPLIT:
            raise ValueError(f"letter {(kind, v)} out of range")
        if kind == "M":
            out.append(v)
        elif v:
            out.append(_H + v)
    return out


def _letter(x: int):
    return ("H", x - _H) if x > _SPLIT else ("M", x)


def _merge(x: int, y: int) -> int:
    """The code of H^a H^b from the codes of H^a and H^b."""
    x += y - _H
    if not _SPLIT < x < _H + _SPLIT:
        raise ValueError(f"H exponent {x - _H} out of range")
    return x


def _normalize(work) -> tuple:
    """(c, w) with Tr(work) = c Tr(w), for a cyclic word of int codes.

    Merges H runs and cancels M_i M_i = -1 in one stack pass, then where
    the two ends meet.  w is the least rotation of what is left, or a
    scalar trace: () for the constant 1 (c = +-2, or 0 for a lone M
    letter, Tr M_i = 0) or (_H + k,) for TrH^k, k > 0.
    """
    sign = 1
    out = []
    top = _BOTTOM  # out[-1], or _BOTTOM while out is empty
    for x in work:
        if x > _SPLIT and top > _SPLIT:
            x = _merge(x, top)
            if x != _H:
                out[-1] = top = x
                continue
        elif x != top:
            out.append(x)
            top = x
            continue
        else:
            sign = -sign
        out.pop()
        top = out[-1] if out else _BOTTOM
    while len(out) >= 2:
        x, y = out[0], out[-1]
        if x > _SPLIT and y > _SPLIT:
            out = out[1:-1]
            x = _merge(x, y)
            if x != _H:
                out.append(x)
        elif x == y:
            out = out[1:-1]
            sign = -sign
        else:
            break
    if len(out) > 1:
        first = min(out)  # the least rotation starts with the least letter
        r = out.index(first)
        if out.count(first) == 1:
            return sign, tuple(out[r:] + out[:r])
        word = tuple(out)
        return sign, min(word[r:] + word[:r] for r, x in enumerate(word)
                         if x == first)
    if not out:
        return 2 * sign, ()
    if out[0] > _SPLIT:
        return sign, (_H + abs(out[0] - _H),)  # Tr H^-k = Tr H^k
    return 0, ()


def _scalar_monomial(w) -> tuple:
    """The monomial of a scalar trace of _normalize: 1 or TrH^k."""
    return ((f"TrH{w[0] - _H}", 1),) if w else ()


class TraceExpr:
    """Linear combination of cyclic trace words.

    Keys are () for the scalar part, an Expr that may carry the TrH
    parameters, or one cyclic word as the tuple of its int letter codes
    in canonical rotation (as _normalize returns it), with a plain
    rational coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __add__(self, other: "TraceExpr") -> "TraceExpr":
        d = dict(self.terms)
        for k, v in other.terms.items():
            d[k] = d[k] + v if k in d else v
        return TraceExpr(d)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TraceExpr) and self.terms == other.terms

    def __repr__(self):
        words = sorted((tuple(map(_letter, w)), v)
                       for w, v in self.terms.items() if w)
        bits = [f"({self.terms[()]})*1"] if () in self.terms else []
        bits += [f"({v})*Tr(" + " ".join(
            f"M{i}" if t == "M" else f"H^{i}" for t, i in w) + ")"
            for w, v in words]
        return " + ".join(bits) or "0"


# ---------------------------------------------------------------------------
# elementary brackets
# ---------------------------------------------------------------------------
# A rule term is (c, L1, L2, R1, R2) with c an int in halves and the L/R
# pieces tuples of letter codes; it stands for
# (c/2) (L1 (x) L2) Omega (R1 (x) R2).

def _t1(a, b):
    return [(a,), (), (), (b,)]       # (A x 1) Omega (1 x B)


def _t2(a, b):
    return [(), (b,), (a,), ()]       # (1 x B) Omega (A x 1)


def _t3(a, b):
    return [(), (), (a,), (b,)]       # Omega (A x B)


def _t4(a, b):
    return [(a,), (b,), (), ()]       # (A x B) Omega


def _swap_negate(terms):
    # {A (x), B} = -P {B (x), A} P : exchange the two trace spaces.
    return [(-c, L2, L1, R2, R1) for c, L1, L2, R1, R2 in terms]


def _rule_mm(i: int, j: int):
    if i == j:
        return [(1, *_t2(i, i)), (-1, *_t1(i, i))]
    if i < j:
        return [(1, *_t1(i, j)), (1, *_t2(i, j)),
                (-1, *_t3(i, j)), (-1, *_t4(i, j))]
    return _swap_negate(_rule_mm(j, i))


def _rule_mh(i: int, k: int):
    # {M_i (x), H^k}, any integer k.
    a, b = i, _H + k
    return [(1, *_t1(a, b)), (1, *_t2(a, b)),
            (-1, *_t3(a, b)), (-1, *_t4(a, b))]


def _rule_h1h(k: int):
    # {H (x), H^k}, any integer k.
    a, b = _H + 1, _H + k
    return [(1, *_t2(a, b)), (1, *_t4(a, b)),
            (-1, *_t3(a, b)), (-1, *_t1(a, b))]


def _conj_first_inverse(terms):
    # {A^-1 (x), B} = -(A^-1 x 1) {A (x), B} (A^-1 x 1); here A = H so
    # A^-1 is the honest letter H^-1.
    inv = _H - 1
    return [(-c, (inv,) + L1, L2, R1 + (inv,), R2)
            for c, L1, L2, R1, R2 in terms]


def _rule_hjh(j: int, k: int):
    # {H^j (x), H^k} by Leibniz over unit H letters in the first slot.
    unit = 1 if j > 0 else -1
    base = _rule_h1h(k) if unit == 1 else _conj_first_inverse(_rule_h1h(k))
    out = []
    for a in range(abs(j)):
        left = (_H + unit * a,) if a else ()
        right = (_H + unit * (abs(j) - 1 - a),) if abs(j) - 1 - a else ()
        for c, L1, L2, R1, R2 in base:
            out.append((c, left + L1, L2, R1 + right, R2))
    return out


@functools.cache  # at most (number of letters)^2 entries
def _rule(a: int, b: int) -> tuple:
    """The rule of the letter pair (a, b) as terms (c, L1 R2, L2 R1): the
    contraction Tr_{12}[(L1 (x) L2) Omega (R1 (x) R2)(U (x) V)] =
    Tr(L1 R2 V L2 R1 U) leaves two runs of letters."""
    if a < _SPLIT and b < _SPLIT:
        terms = _rule_mm(a, b)
    elif a < _SPLIT:
        terms = _rule_mh(a, b - _H)
    elif b < _SPLIT:
        terms = _swap_negate(_rule_mh(b, a - _H))
    else:
        terms = _rule_hjh(a - _H, b - _H)
    return tuple((c, l1 + r2, l2 + r1) for c, l1, l2, r1, r2 in terms)


def ks_bracket_symbolic(w1, w2) -> TraceExpr:
    """{Tr w1, Tr w2} for two trace words (sequences of letters)."""
    c1, w1 = _normalize(_encode(w1))
    c2, w2 = _normalize(_encode(w2))
    if len(w1) < 2 or len(w2) < 2:
        return TraceExpr()  # scalars and Casimir parameters are central
    raw = {}  # the rule coefficients (in halves) summed per raw word
    rotations = [(b, w2[q + 1:] + w2[:q]) for q, b in enumerate(w2)]
    for p, a in enumerate(w1):
        u = w1[p + 1:] + w1[:p]
        for b, v in rotations:
            for c, left, right in _rule(a, b):
                word = left + v + right + u
                raw[word] = raw.get(word, 0) + c
    sums = {}  # then per resulting trace: each raw word normalized once
    for word, c in raw.items():
        s, w = _normalize(word) if c else (0, ())
        if s:
            sums[w] = sums.get(w, 0) + c * s
    terms, scalars = {}, {}
    for w, s in sums.items():
        s *= c1 * c2
        coeff = Fraction(s, 2) if s & 1 else s // 2
        if len(w) > 1:
            terms[w] = coeff
        else:
            scalars[_scalar_monomial(w)] = coeff
    if scalars:
        terms[()] = Expr(scalars)
    return TraceExpr(terms)


# ---------------------------------------------------------------------------
# skein reduction to generators
# ---------------------------------------------------------------------------


class IrreducibleWord(Exception):
    """A trace word that cannot be written in the G[i,j,k] generator set."""


@functools.cache  # one entry per index triple met
def _canonical_generator(i: int, j: int, k: int) -> tuple:
    """-Tr(M_i H^k M_j H^-k) as (factor, packed monomial of the canonical
    generator), or (2, 0) for the constant G[i,i,0] = 2.

    The oracle's own mirror rule, kept apart from GenAlgebra.canonical so
    that the skein reduction shares no code with the structure constants
    it checks.
    """
    if k < 0:
        i, j, k = j, i, -k
    if k == 0:
        if i == j:
            return 2, 0
        i, j = min(i, j), max(i, j)
    return 1, _symbol(gen(i, j, k))[0]


@functools.cache  # one entry per word size
def _matchings(size: int) -> tuple:
    """The perfect matchings of range(size), each as (permutation sign,
    pairs), for the fermionic Wick sum."""
    if not size:
        return ((1, ()),)
    out = []
    for t in range(1, size):
        rest = [x for x in range(1, size) if x != t]
        # pairing 0 with t hops over t-1 intermediate letters
        sign = -1 if (t - 1) % 2 else 1
        out += [(sign * s, ((0, t),) + tuple((rest[u], rest[v])
                                              for u, v in pairs))
                for s, pairs in _matchings(size - 2)]
    return tuple(out)


def _wick(word, coeff, into) -> int:
    """Add coeff * Tr(word), in generators, into *into* and return its
    number of matched pairs: a word of int letter codes in canonical
    rotation, coeff rational.  *into* maps a denominator d to {packed
    monomial: int n}, for the terms (n / d) monomial.

    A cyclic word M_{i1} H^{a1} ... M_{ir} H^{ar} with balanced H exponent
    (sum a_t = 0) factors exactly as N_1 ... N_r with the conjugated letters
    N_t = H^{c_t} M_{i_t} H^{-c_t}, c_t = a_1 + .. + a_{t-1}.  The N_t are
    trace-zero SL(2) elements, so they obey the Clifford relation
    N_s N_t + N_t N_s = Tr(N_s N_t) = -G[i_s, i_t, c_t - c_s], and the
    trace of an even product is the Wick / Pfaffian sum over perfect
    matchings of the pairwise traces (signs counting crossings):

        Tr(N_1 .. N_r) = 2 sum_matchings sign prod (1/2) Tr(N_a N_b).

    A matching's monomial is the sum of its pairs' generator monomials,
    and the signed matchings are counted per monomial as exact ints, so
    the order in which they are visited cannot change the result.  The
    word's scale, the factor 2 in front times (1/2) Tr(N_a N_b) = -G/2 per
    pair times coeff, is one reduced int numerator and denominator.
    Raises IrreducibleWord for words outside the generator span: odd
    M-count or unbalanced total H exponent.
    """
    letters = []  # (index, conjugation exponent) of each M letter
    c = 0
    for x in word:
        if x > _SPLIT:
            c += x - _H
        else:
            letters.append((x, c))
    if len(letters) % 2:
        raise IrreducibleWord(f"odd number of M letters in "
                              f"{tuple(map(_letter, word))}")
    if c:
        raise IrreducibleWord(f"unbalanced H exponent {c} in "
                              f"{tuple(map(_letter, word))}")
    counts = {}  # packed monomial -> signed number of matchings
    for sign, pairs in _matchings(len(letters)):
        mono = 0
        for s, t in pairs:
            (i_s, c_s), (i_t, c_t) = letters[s], letters[t]
            factor, unit = _canonical_generator(i_s, i_t, c_t - c_s)
            sign *= factor
            mono += unit
        counts[mono] = counts.get(mono, 0) + sign
    r = len(letters) // 2
    num = (-2 if r & 1 else 2) * coeff.numerator
    den = coeff.denominator << r
    g = math.gcd(num, den)
    num //= g
    part = into.setdefault(den // g, {})
    for mono, count in counts.items():
        part[mono] = part.get(mono, 0) + count * num
    return r


def skein_reduce(e: TraceExpr) -> Expr:
    """Rewrite a TraceExpr as a polynomial in G[i,j,k] and TrH parameters.

    The key () holds the scalar part.  Each word's Wick sum is added as
    ints per denominator and packed monomial; each total is divided once
    by the denominators' lcm, staying an int where it divides.  A word of
    r pairs has exponents at most r.
    """
    scalar, sums, bound = None, {}, 0
    for word, coeff in e.terms.items():
        if word:
            bound = max(bound, _wick(word, coeff, sums))
        else:
            scalar = coeff
    lcm = math.lcm(*sums)
    totals = {}
    for d, counts in sums.items():
        f = lcm // d
        for mono, n in counts.items():
            totals[mono] = totals.get(mono, 0) + n * f
    out = _normalized({mono: Fraction(n, lcm) if n % lcm else n // lcm
                       for mono, n in totals.items() if n}, _checked(bound))
    return out if scalar is None else scalar + out


def _ranked(a, b) -> tuple:
    """The distinct M indices of a and b, increasing, and a, b by rank."""
    (i, j, k), (p, q, l) = a, b
    index = sorted({i, j, p, q})
    rank = index.index  # ranks count from 1: one more than the position
    return index, (rank(i) + 1, rank(j) + 1, k), (rank(p) + 1, rank(q) + 1, l)


def generator_bracket(a, b, memo: dict) -> Expr:
    """{G_a, G_b} for index triples a, b: reduced once per index pattern
    and levels into *memo*, then renamed from the ranks to the indices."""
    index, ka, kb = _ranked(a, b)
    hit = memo.get((ka, kb))
    if hit is None:
        e = skein_reduce(ks_bracket_symbolic(gen_word(*ka), gen_word(*kb)))
        hit = memo[ka, kb] = e, [(s, t) for s in e.symbols()
                                 if (t := parse_gen(s))]
    return hit[0].rename({s: gen(index[i - 1], index[j - 1], k)
                          for s, (i, j, k) in hit[1]})


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


STEP = 1e-100  # complex step: no subtraction, so no cancellation to balance


def complex_step_gradient(f, mats: np.ndarray) -> np.ndarray:
    """df_p / d(M_i)_ab for every p, i, a, b, as a (K, N, m, m) array.

    *mats* is an (N, m, m) real array.  f maps a list of N matrix stacks,
    each of shape (..., m, m), to the (..., K) array of its K values.
    The N m^2 perturbed points M_i + i STEP E_ab are stacked on a leading
    batch axis and f is called once on them (Squire & Trapp 1998), so one
    stack gives all K gradients.  A function that is not batch-aware
    returns the wrong shape and is rejected, rather than read wrongly.
    """
    nmat, m, _ = mats.shape
    size = nmat * m * m
    pert = np.broadcast_to(mats.astype(complex), (size, nmat, m, m)).copy()
    pert.reshape(size, size)[np.arange(size), np.arange(size)] += 1j * STEP
    vals = np.asarray(f([pert[:, i] for i in range(nmat)]))
    if vals.ndim != 2 or len(vals) != size:
        raise ValueError(f"f returned shape {vals.shape} on a stack of "
                         f"{size} points; it must map (..., m, m) stacks "
                         "to a (..., K) array")
    return (vals.imag / STEP).T.reshape(-1, nmat, m, m)


def exchange_tensors(mats: np.ndarray) -> np.ndarray:
    """T[i, j, a, c, b, d] = {(M_i)_ab, (M_j)_cd} for all i, j at once.

    With X = M_i, Y = M_j and U = the four-term exchange combination

        2 U = d_cb (XY)_ad + d_ad (YX)_cb - X_cb Y_ad - X_ad Y_cb,

    the bracket is U for i < j and -U for i > j (the space-swapped rule);
    on the diagonal it is (d_ad (XX)_cb - d_cb (XX)_ad) / 2.
    """
    nmat, m, _ = mats.shape
    eye = np.eye(m)
    idx = np.arange(nmat)
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    # summed in place: one full-size temporary at a time
    out = np.einsum("ad,jicb->ijacbd", eye, prod)
    swap_right = np.einsum("cb,ijad->ijacbd", eye, prod)
    diag = out[idx, idx] - swap_right[idx, idx]
    out += swap_right
    del swap_right
    out -= np.einsum("icb,jad->ijacbd", mats, mats)
    out -= np.einsum("iad,jcb->ijacbd", mats, mats)
    sign = np.sign(idx[None, :] - idx[:, None])  # +1 for i < j, -1 for i > j
    out *= 0.5 * sign[:, :, None, None, None, None]
    out[idx, idx] = 0.5 * diag
    return out


def ks_brackets_numeric(f, mats) -> np.ndarray:
    """{f_p, f_q} for every pair of the K values of *f* at one point, as a
    (K, K) array, from the entrywise structure constants and the chain rule.

    *mats* is a list of invertible m x m matrices; f is batch-aware with
    values (..., K) (see complex_step_gradient).  One perturbation stack
    gives every gradient; all pairs are contracted in one step.
    """
    mats = np.asarray(mats, dtype=float)
    # Keeps out points where a trace function's M^-1 does not exist; a
    # guard, not a conditioning test.  Every Stokes monodromy 1 - E_r G
    # has det 1 - G_rr = -1, so it never fires on the realization, and a
    # matrix of unit-scale entries that is singular comes out of LU with
    # |det| at rounding level (about 1e-16), four decades below the gate.
    if np.any(np.abs(np.linalg.det(mats)) < 1e-12):
        raise ValueError("singular matrix in evaluation point")
    grads = complex_step_gradient(f, mats)
    return np.einsum("pIab,IJacbd,qJcd->pq", grads, exchange_tensors(mats),
                     grads, optimize=True)


def ks_bracket_numeric(f, g, mats) -> float:
    """{f, g} at a concrete point (list of invertible square matrices).

    f and g map a list of matrix stacks to the (...) array of their
    values; ks_brackets_numeric takes them stacked as one function with
    values (..., 2).
    """
    return float(ks_brackets_numeric(
        lambda ms: np.stack([f(ms), g(ms)], axis=-1), mats)[0, 1])
