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
  skein relation Tr A Tr B = Tr(AB) + Tr(AB^-1).

* numeric -- the entrywise structure constants on concrete matrices of any
  size, with batched complex-step differentiation for the chain rule.
  This serves as a dimension-agnostic oracle (it is the only route
  available for the n x n monodromy realization).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .poly_core import Expr, E, ZERO, const, gen

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# trace words
# ---------------------------------------------------------------------------
# A letter is ("M", i) (exponent +1; inverses are normalized away via
# M^-1 = -M) or ("H", k) with k a nonzero integer.


def M(i: int):
    return ("M", i)


def H(k: int = 1):
    return ("H", k)


def gen_word(i: int, j: int, k: int):
    """The trace word of G[i,j,k] = -Tr(M_i H^k M_j H^-k)."""
    if k == 0:
        return (M(i), M(j))
    return (M(i), H(k), M(j), H(-k))


def _letter_key(letter):
    return (0, letter[1], 0) if letter[0] == "M" else (1, 0, letter[1])


def normalize_word(letters, sign=1):
    """Canonicalize a cyclic trace word.

    Returns (coeff, word) where word is a tuple in canonical rotation, or
    (scalar_expr, None) when the trace is itself scalar: the empty word has
    trace 2, a pure H-power word has trace TrH|k| (a Casimir parameter).
    Accepts ("M", i, -1) input letters and folds the sign.
    """
    work = []
    for letter in letters:
        if letter[0] == "M":
            if len(letter) == 3:
                if letter[2] not in (1, -1):
                    raise ValueError("M exponents must be +-1")
                if letter[2] == -1:
                    sign = -sign
            work.append(("M", letter[1]))
        else:
            if letter[1]:
                work.append(("H", letter[1]))
    # merge H runs and cancel M_i M_i = -1, cyclically, until stable
    changed = True
    while changed:
        changed = False
        out = []
        for letter in work:
            if out and letter[0] == "H" and out[-1][0] == "H":
                k = out[-1][1] + letter[1]
                out.pop()
                if k:
                    out.append(("H", k))
                changed = True
            elif out and letter[0] == "M" and out[-1] == letter:
                out.pop()
                sign = -sign
                changed = True
            else:
                out.append(letter)
        # wrap-around merges
        while len(out) >= 2:
            if out[0][0] == "H" and out[-1][0] == "H":
                k = out[0][1] + out[-1][1]
                out = out[1:-1] + ([("H", k)] if k else [])
                changed = True
            elif out[0][0] == "M" and out[0] == out[-1]:
                out = out[1:-1]
                sign = -sign
                changed = True
            else:
                break
        work = out
    if not work:
        return const(2 * sign), None
    if all(l[0] == "H" for l in work):
        k = abs(sum(l[1] for l in work))
        if k == 0:
            return const(2 * sign), None
        return const(sign) * E(f"TrH{k}"), None
    if all(l[0] == "M" for l in work) and len(work) == 1:
        return ZERO, None  # Tr M_i = 0
    if len(work) == 2 and work[0][0] == "M" and work[1][0] == "H":
        pass  # Tr(M_i H^k): kept; reducible only through skein context
    keys = [_letter_key(l) for l in work]
    # the first rotation whose key sequence is least
    r = min(range(len(work)), key=lambda r: keys[r:] + keys[:r])
    return const(sign), tuple(work[r:] + work[:r])


class TraceExpr:
    """Linear combination of products of cyclic trace words.

    Keys are sorted tuples of words (multisets); values are Expr
    coefficients (which may carry the TrH parameters).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if not v.is_zero():
                    self.terms[k] = v

    @staticmethod
    def scalar(c) -> "TraceExpr":
        c = c if isinstance(c, Expr) else const(c)
        return TraceExpr({(): c})

    @staticmethod
    def tr(letters, sign=1) -> "TraceExpr":
        coeff, word = normalize_word(letters, sign)
        if isinstance(coeff, Expr) and coeff.is_zero():
            return TraceExpr()
        if word is None:
            return TraceExpr({(): coeff})
        return TraceExpr({(word,): coeff})

    def __add__(self, other: "TraceExpr") -> "TraceExpr":
        d = dict(self.terms)
        for k, v in other.terms.items():
            s = d.get(k, ZERO) + v
            if s.is_zero():
                d.pop(k, None)
            else:
                d[k] = s
        return TraceExpr(d)

    def __sub__(self, other: "TraceExpr") -> "TraceExpr":
        return self + other.scale(const(-1))

    def scale(self, c) -> "TraceExpr":
        c = c if isinstance(c, Expr) else const(c)
        return TraceExpr({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "TraceExpr") -> "TraceExpr":
        d = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(sorted(k1 + k2))
                s = d.get(key, ZERO) + v1 * v2
                if s.is_zero():
                    d.pop(key, None)
                else:
                    d[key] = s
        return TraceExpr(d)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TraceExpr) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            words = " * ".join(
                "Tr(" + " ".join(
                    (f"M{i}" if t == "M" else f"H^{i}") for t, i in w) + ")"
                for w in key) or "1"
            bits.append(f"({self.terms[key]})*{words}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# elementary brackets
# ---------------------------------------------------------------------------
# A rule term is (coeff: Fraction, L1, L2, R1, R2) with the L/R pieces
# lists of letters; it stands for coeff * (L1 (x) L2) Omega (R1 (x) R2).

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
        a = M(i)
        return [(HALF, *_t2(a, a)), (-HALF, *_t1(a, a))]
    if i < j:
        a, b = M(i), M(j)
        return [(HALF, *_t1(a, b)), (HALF, *_t2(a, b)),
                (-HALF, *_t3(a, b)), (-HALF, *_t4(a, b))]
    return _swap_negate(_rule_mm(j, i))


def _rule_mh(i: int, k: int):
    # {M_i (x), H^k}, any integer k.
    a, b = M(i), H(k)
    return [(HALF, *_t1(a, b)), (HALF, *_t2(a, b)),
            (-HALF, *_t3(a, b)), (-HALF, *_t4(a, b))]


def _rule_h1h(k: int):
    # {H (x), H^k}, any integer k.
    a, b = H(1), H(k)
    return [(HALF, *_t2(a, b)), (HALF, *_t4(a, b)),
            (-HALF, *_t3(a, b)), (-HALF, *_t1(a, b))]


def _conj_first_inverse(terms):
    # {A^-1 (x), B} = -(A^-1 x 1) {A (x), B} (A^-1 x 1); here A = H so
    # A^-1 is the honest letter H^-1.
    inv = H(-1)
    return [(-c, (inv,) + L1, L2, R1 + (inv,), R2)
            for c, L1, L2, R1, R2 in terms]


def _rule_hjh(j: int, k: int):
    # {H^j (x), H^k} by Leibniz over unit H letters in the first slot.
    if j == 1:
        return _rule_h1h(k)
    if j == -1:
        return _conj_first_inverse(_rule_h1h(k))
    unit = 1 if j > 0 else -1
    base = _rule_h1h(k) if unit == 1 else _conj_first_inverse(_rule_h1h(k))
    out = []
    for a in range(abs(j)):
        left = (H(unit * a),) if a else ()
        right = (H(unit * (abs(j) - 1 - a)),) if abs(j) - 1 - a else ()
        for c, L1, L2, R1, R2 in base:
            out.append((c, left + L1, L2, R1 + right, R2))
    return out


def _elementary_rule(a, b):
    if a[0] == "M" and b[0] == "M":
        return _rule_mm(a[1], b[1])
    if a[0] == "M" and b[0] == "H":
        return _rule_mh(a[1], b[1])
    if a[0] == "H" and b[0] == "M":
        return _swap_negate(_rule_mh(b[1], a[1]))
    return _rule_hjh(a[1], b[1])


def ks_bracket_symbolic(w1, w2) -> TraceExpr:
    """{Tr w1, Tr w2} for two trace words (sequences of letters)."""
    c1, w1 = normalize_word(w1)
    c2, w2 = normalize_word(w2)
    if w1 is None or w2 is None:
        return TraceExpr()  # scalars and Casimir parameters are central
    # sum the rule coefficients per resulting trace, then scale once
    sums = {}
    for p, a in enumerate(w1):
        u = w1[p + 1:] + w1[:p]
        for q, b in enumerate(w2):
            v = w2[q + 1:] + w2[:q]
            for c, l1, l2, r1, r2 in _elementary_rule(a, b):
                word = tuple(l1) + tuple(r2) + v + tuple(l2) + tuple(r1) + u
                coeff, word = normalize_word(word)
                key = () if word is None else (word,)
                sums[key] = sums.get(key, ZERO) + coeff * c
    return TraceExpr(sums).scale(c1 * c2)


# ---------------------------------------------------------------------------
# skein reduction to generators
# ---------------------------------------------------------------------------


class IrreducibleWord(Exception):
    """A trace word that cannot be written in the G[i,j,k] generator set."""


def _canonical_generator(i: int, j: int, k: int) -> Expr:
    """-Tr(M_i H^k M_j H^-k) as +- a canonical generator symbol.

    The oracle's own mirror rule, kept apart from GenAlgebra.canonical so
    that the skein reduction shares no code with the structure constants
    it checks.
    """
    if k < 0:
        i, j, k = j, i, -k
    if k == 0:
        if i == j:
            return const(2)
        i, j = min(i, j), max(i, j)
    return E(gen(i, j, k))


def _matchings(items):
    """Perfect matchings with their permutation signs (fermionic Wick)."""
    if not items:
        yield 1, []
        return
    first = items[0]
    for t in range(1, len(items)):
        rest = items[1:t] + items[t + 1:]
        # pairing first with items[t] hops over t-1 intermediate letters
        sign = -1 if (t - 1) % 2 else 1
        for s, pairs in _matchings(rest):
            yield sign * s, [(first, items[t])] + pairs


def _reduce_word(word, memo, rng=None):
    """Rewrite Tr(word) as an Expr in generators and TrH parameters.

    A cyclic word M_{i1} H^{a1} ... M_{ir} H^{ar} with balanced H exponent
    (sum a_t = 0) factors exactly as N_1 ... N_r with the conjugated letters
    N_t = H^{c_t} M_{i_t} H^{-c_t}, c_t = a_1 + .. + a_{t-1}.  The N_t are
    trace-zero SL(2) elements, so they obey the Clifford relation
    N_s N_t + N_t N_s = Tr(N_s N_t) = -G[i_s, i_t, c_t - c_s], and the
    trace of an even product is the Wick / Pfaffian sum over perfect
    matchings of the pairwise traces (signs counting crossings):

        Tr(N_1 .. N_r) = 2 sum_matchings sign prod (1/2) Tr(N_a N_b).

    Raises IrreducibleWord for words outside the generator span: odd
    M-count or unbalanced total H exponent.
    """
    if word in memo:
        return memo[word]
    mpos = [p for p, l in enumerate(word) if l[0] == "M"]
    if not mpos:
        coeff, w = normalize_word(word)
        assert w is None
        return coeff
    if len(mpos) % 2:
        raise IrreducibleWord(f"odd number of M letters in {word}")
    total = sum(l[1] for l in word if l[0] == "H")
    if total != 0:
        raise IrreducibleWord(f"unbalanced H exponent {total} in {word}")
    # prefix H exponents in front of each M letter
    letters = []  # (index, conjugation exponent)
    c = 0
    for letter in word:
        if letter[0] == "H":
            c += letter[1]
        else:
            letters.append((letter[1], c))
    positions = list(range(len(letters)))
    out = ZERO
    pairings = list(_matchings(positions))
    if rng is not None:
        rng.shuffle(pairings)
    for sign, pairs in pairings:
        term = const(sign)
        for s, t in pairs:
            i_s, c_s = letters[s]
            i_t, c_t = letters[t]
            term = term * _canonical_generator(i_s, i_t, c_t - c_s)
        out = out + term
    # the factor 2 in front and (1/2) Tr(N_a N_b) = -G/2 for each pair
    r = len(letters) // 2
    out = out * const(Fraction(2 * (-1) ** r, 2 ** r))
    memo[word] = out
    return out


def skein_reduce(e: TraceExpr, rng=None) -> Expr:
    """Rewrite a TraceExpr as a polynomial in G[i,j,k] and TrH parameters."""
    memo = {}
    out = ZERO
    for key, coeff in e.terms.items():
        term = coeff
        for word in key:
            term = term * _reduce_word(word, memo, rng)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


STEP = 1e-100  # complex step: no subtraction, so no cancellation to balance


def complex_step_gradient(f, mats: np.ndarray) -> np.ndarray:
    """df / d(M_i)_ab for every i, a, b, as an (N, m, m) array.

    *mats* is an (N, m, m) real array.  f maps a list of N matrix stacks,
    each of shape (..., m, m), to the (...)-shaped array of its values.
    The N m^2 perturbed points M_i + i STEP E_ab are stacked on a leading
    batch axis and f is called once on them (Squire & Trapp 1998).  A
    function that is not batch-aware returns the wrong shape and is
    rejected, rather than read wrongly.
    """
    nmat, m, _ = mats.shape
    size = nmat * m * m
    pert = np.broadcast_to(mats.astype(complex), (size, nmat, m, m)).copy()
    pert.reshape(size, size)[np.arange(size), np.arange(size)] += 1j * STEP
    vals = np.asarray(f([pert[:, i] for i in range(nmat)]))
    if vals.shape != (size,):
        raise ValueError(f"f returned shape {vals.shape} on a stack of "
                         f"{size} points; it must map (..., m, m) stacks "
                         "to a (...) array")
    return (vals.imag / STEP).reshape(nmat, m, m)


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


def ks_brackets_numeric(fs, mats) -> np.ndarray:
    """{f_p, f_q} for every pair of *fs* at one point, as a (K, K) array.

    *mats* is a list of invertible m x m matrices; each f is batch-aware
    (see complex_step_gradient).  Each gradient is computed once and all
    pairs are contracted with the exchange tensors in one step.
    """
    mats = np.asarray(mats, dtype=float)
    if np.any(np.abs(np.linalg.det(mats)) < 1e-12):
        raise ValueError("singular matrix in evaluation point")
    grads = np.stack([complex_step_gradient(f, mats) for f in fs])
    return np.einsum("pIab,IJacbd,qJcd->pq", grads, exchange_tensors(mats),
                     grads, optimize=True)


def ks_bracket_numeric(f, g, mats) -> float:
    """{f, g} at a concrete point (list of invertible square matrices).

    f and g map a list of matrix stacks to the array of their values (see
    complex_step_gradient); the bracket is assembled from the entrywise
    structure constants and the chain rule.
    """
    return float(ks_brackets_numeric([f, g], mats)[0, 1])
