"""Exact multivariate Laurent polynomials with rational coefficients.

Everything downstream (geodesic functions, Poisson brackets, braid actions,
determinants of generating matrices) is computed in this ring.  A value is a
finite sum of monomials; a monomial is an integer exponent vector over named
symbols.  Negative exponents are first class, so e.g. ``s1 + s1^-1`` is a
perfectly good element.

A monomial is stored packed into one int: every symbol gets an id when it is
first used in the process, and the exponent of symbol i is the signed
16-bit digit at position i, so multiplying monomials is adding ints.  An
exponent must stay within +-(2^15 - 1); an operation that could leave that
range raises ``OverflowError``.  Names are decoded only where they are
shown (``terms()``, ``symbols()``, ``str``); ``terms()`` walks each
monomial's nonzero digits rather than a row as wide as every symbol in use.

``str`` prints the terms in an order fixed by the value alone: by their
monomials as ``terms()`` decodes them, fewer letters first, then
lexicographically, so the text does not depend on the order in which
symbols were first used.  A value of ``_VECTOR_TERMS`` terms or more is
printed with no Python work per term: its letters are read off blocks of
exponent rows, one ``np.lexsort`` over a sparse key (the letter count,
then the number of each distinct letter) orders the monomials, and one
join assembles per-coefficient prefixes and the texts of the distinct
letters.  A smaller value sorts the tuples of ``terms()``.

A sum of products goes through ``dot``: it multiplies the monomials of
each pair straight into one dict and normalizes once, where a chain of
``out = out + x*y`` would build every product and copy the running sum.

Symbols are plain strings.  The conventional names are

* ``s1, s2, ...``  -- exponentiated pending shear halves  e^{Z_i/2}
* ``t1, t2, ...``  -- exponentiated inner shear halves    e^{Y_j/2}
* ``lam``, ``mu``  -- spectral variables
* ``h``            -- e^{P_h/2} (so the hole parameter Pi = h + h^-1)
* ``Pi``, ``hbar``, ``q``, ``eta`` -- occasional formal parameters
* ``G[i,j,k]``, ``Ghat[i,j]`` -- abstract algebra generators, treated as
  opaque commuting symbols by the ring (the algebra modules give them life).

Coefficients are exact rationals: an ``int`` when the value is integral and
a ``fractions.Fraction`` only when its denominator is not 1, so the common
integral arithmetic runs on machine-sized ints.  Floating point enters only
where a caller evaluates at float numbers (``Expr.at``).
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from itertools import combinations, product
from math import inf
from typing import Iterable, Mapping, Union

import numpy as np

Rat = Union[int, Fraction]

_GEN_RE = re.compile(r"^G\[(-?\d+),(-?\d+),(-?\d+)\]$")
_GHAT_RE = re.compile(r"^Ghat\[(-?\d+),(-?\d+)\]$")


# Generator names are built once and shared: every monomial holding
# G[i,j,k] refers to the same string, and parsing a name is a dict lookup.
_GEN_NAMES: dict = {}
_PARSED_GENS: dict = {}


def gen(i: int, j: int, k: int) -> str:
    """Symbol name for the level-k generator G^{(k)}_{i,j}."""
    name = _GEN_NAMES.get((i, j, k))
    if name is None:
        name = _GEN_NAMES[(i, j, k)] = f"G[{i},{j},{k}]"
    return name


def ghat(i: int, j: int) -> str:
    """Symbol name for the reduced generator Ghat_{i,j}."""
    return f"Ghat[{i},{j}]"


def parse_gen(name: str):
    """Return (i, j, k) if *name* is a G-generator symbol, else None."""
    try:
        return _PARSED_GENS[name]
    except KeyError:
        m = _GEN_RE.match(name)
        out = tuple(int(g) for g in m.groups()) if m else None
        _PARSED_GENS[name] = out
        return out


def parse_ghat(name: str):
    """Return (i, j) if *name* is a Ghat-generator symbol, else None."""
    m = _GHAT_RE.match(name)
    if m:
        return tuple(int(g) for g in m.groups())
    return None


class Expr:
    """Immutable Laurent polynomial in canonical normal form.

    Stored as a dict mapping monomials to nonzero rationals, each an
    ``int`` when integral and a ``Fraction`` otherwise.  A monomial is one
    packed int (see "monomials" below): the exponent of the symbol with id
    i is the signed base-2^16 digit at position i, so the constant monomial
    is 0, a product of monomials is their sum and an inverse is the
    negation.  The packing is canonical, so structural equality of the
    dicts is semantic equality of the polynomials.  A constant hashes as
    its rational value, so ``const(2) == 2`` and
    ``hash(const(2)) == hash(2)``.

    Every exponent must satisfy |e| < 2^15.  Each value carries an upper
    bound on its |exponent|s; an operation whose result could leave that
    range raises ``OverflowError`` instead of carrying into the next digit.
    ``terms()`` hands out the decoded view: ((symbol, exponent), ...)
    tuples sorted by symbol, with their coefficients.
    """

    # two slots keep an Expr in the 48-byte allocation class
    __slots__ = ("_d", "_bound")

    def __init__(self, terms: Mapping[tuple, Rat] | None = None):
        # terms as terms() yields them; a symbol may repeat in a monomial
        # and terms with equal monomials add up
        d = {}
        bound = 0
        if terms:
            for mono, c in terms.items():
                if not c:
                    continue
                exps: dict = {}
                for name, e in mono:
                    exps[name] = exps.get(name, 0) + e
                m = 0
                for name, e in exps.items():
                    if e:
                        bound = max(bound, _checked(abs(e)))
                        m += e * _symbol(name)[0]
                v = d.get(m, 0) + _rat(c)
                if v:
                    d[m] = _rat(v)
                else:
                    del d[m]
        self._d = d
        self._bound = bound

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: Rat) -> "Expr":
        c = _rat(c)
        return _expr({0: c} if c else {}, 0)

    @staticmethod
    def var(name: str, power: int = 1) -> "Expr":
        e = _VARS.get((name, power))
        if e is None:
            if power == 0:
                return ONE
            bound = _checked(abs(power))
            e = _VARS[name, power] = _expr({power * _symbol(name)[0]: 1},
                                           bound)
        return e

    # -- ring structure ---------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._d, other._d
        if len(a) < len(b):
            a, b = b, a
        d = dict(a)
        for mono, c in b.items():
            v = d.get(mono, 0) + c
            if v:
                d[mono] = v
            else:
                del d[mono]
        bound = self._bound
        if other._bound > bound:
            bound = other._bound
        return _normalized(d, bound)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr({m: -c for m, c in self._d.items()}, self._bound)

    def __sub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        if len(a) != 1:
            return dot(((1, self, other),))
        bound = self._bound + other._bound
        if bound >= _LIMIT:
            bound = _product_bound(a, b)
        # a single monomial shifts the other side's monomials apart
        ((m1, c1),) = a.items()
        if not m1:  # a constant: share the other side's monomials
            return _normalized({m2: c2 * c1 for m2, c2 in b.items()}, bound)
        return _normalized({m2 + m1: c2 * c1 for m2, c2 in b.items()}, bound)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return ONE
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = ONE
        acc = base
        while k:
            if k & 1:
                result = result * acc
            acc = acc * acc if k > 1 else acc
            k >>= 1
        return result

    def inverse(self) -> "Expr":
        """Exact inverse, defined only for single-monomial values."""
        if len(self._d) != 1:
            raise ZeroDivisionError(
                f"not invertible in the Laurent ring: {self}"
            )
        ((mono, c),) = self._d.items()
        return _expr({-mono: _rat(Fraction(1) / c)}, self._bound)

    def __truediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- queries ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        if self.is_rational():
            # equal to its value, so it must hash as that value
            return hash(self._d.get(0, 0))
        return hash(frozenset(self._d.items()))

    def __bool__(self) -> bool:
        return bool(self._d)

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def is_rational(self) -> bool:
        return not self._d or (len(self._d) == 1 and 0 in self._d)

    def as_rational(self) -> Fraction:
        """The constant's value, always as a Fraction (so that dividing two
        values stays exact even when both are integral)."""
        if not self.is_rational():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._d.get(0, 0))

    def symbols(self) -> set:
        # added in the order the monomials, each read in name order, first
        # show them; only the digits of names not yet seen are read
        out = set()
        bias = _BIASES[len(_NAMES)]
        unseen = -1  # all ones but in the digits of the names in out
        for mono in self._d:
            x = ((mono + bias) ^ bias) & unseen
            if x:
                new = []
                i = 0
                while x:
                    skip = ((x & -x).bit_length() - 1) // _BITS
                    i += skip
                    new.append(_NAMES[i])
                    unseen &= ~(_MASK << (_BITS * i))
                    x >>= _BITS * (skip + 1)
                    i += 1
                new.sort()
                out.update(new)
        return out

    def terms(self):
        """(((symbol, exponent), ...) sorted by symbol, coefficient) pairs."""
        return zip(_decode_all(list(self._d)), self._d.values())

    # -- calculus ---------------------------------------------------------

    def gradient(self) -> dict:
        """{name: formal partial derivative in name} over the symbols with
        a nonzero partial, in one pass over the terms."""
        parts: dict = {}  # symbol id -> {monomial: coefficient}
        bias = _BIASES[len(_NAMES)]
        for mono, c in self._d.items():
            x = (mono + bias) ^ bias  # each digit its exponent, mod 2^16
            i = 0
            while x:
                skip = ((x & -x).bit_length() - 1) // _BITS
                i += skip
                x >>= _BITS * skip
                e = ((x & _MASK) ^ _LIMIT) - _LIMIT
                # a symbol's partial takes each term from one monomial, so
                # nothing cancels
                part = parts.get(i)
                if part is None:
                    part = parts[i] = {}
                part[mono - (1 << (_BITS * i))] = c * e
                x >>= _BITS
                i += 1
        bound = self._bound + 1
        out = {}
        for i, d in parts.items():
            out[_NAMES[i]] = _normalized(
                d, bound if bound < _LIMIT else _checked(_max_exponent(d)))
        return out

    def at(self, point: Mapping[str, "Rat | float"]):
        """The value at *point* ({name: number} over every symbol of the
        value): exact, as a Fraction like as_rational(), for rational
        numbers, and a float for floats (a constant reads no number and
        stays a Fraction).

        One pass over the terms, reading the digits as gradient() does;
        each (symbol, exponent) power is taken once.  A negative power of
        an int stays exact, and a negative power of 0 raises
        ZeroDivisionError, as in subst.
        """
        powers = {}  # symbol id << _BITS | exponent mod 2^16 -> the power
        bias = _BIASES[len(_NAMES)]
        total = 0
        for mono, c in self._d.items():
            x = (mono + bias) ^ bias  # each digit its exponent, mod 2^16
            i = 0
            while x:
                skip = ((x & -x).bit_length() - 1) // _BITS
                i += skip
                x >>= _BITS * skip
                key = i << _BITS | (x & _MASK)
                p = powers.get(key)
                if p is None:
                    e = ((x & _MASK) ^ _LIMIT) - _LIMIT
                    try:
                        v = point[_NAMES[i]]
                    except KeyError:
                        raise ValueError(f"{_NAMES[i]} is not bound") from None
                    if e < 0 and type(v) is not float:
                        v = Fraction(v)
                    p = powers[key] = v ** e
                c = c * p
                x >>= _BITS
                i += 1
            total += c
        return total if type(total) is float else Fraction(total)

    def subst(self, bindings: Mapping[str, "Expr | Rat"]) -> "Expr":
        """Simultaneous substitution, then normalization.

        Substituting into a negative power requires the bound value to be
        invertible in the Laurent ring (a nonzero monomial); otherwise this
        raises ZeroDivisionError rather than guessing a limit.
        """
        # in name order, as the letters of a monomial were multiplied in
        targets = []
        for name, value in sorted(bindings.items(), key=lambda kv: kv[0]):
            value = _coerce(value)
            sym = _SYMBOLS.get(name)
            if sym is not None:  # else no monomial holds the name
                targets.append((sym, value, {}))
        products = []
        for mono, c in self._d.items():
            factors = []
            for (unit, shift, bias), value, powers in targets:
                e = ((mono + bias) >> shift & _MASK) - _LIMIT
                if e:
                    mono -= e * unit
                    p = powers.get(e)
                    if p is None:
                        p = powers[e] = value ** e
                    factors.append(p)
            term = _expr({mono: c}, self._bound)
            last = factors.pop() if factors else ONE
            for p in factors:
                term = term * p
            products.append((1, term, last))
        return dot(products)

    def rename(self, names: Mapping[str, str]) -> "Expr":
        """The value with its symbols renamed at once through *names*, which
        must send them to distinct symbols: each exponent digit moves."""
        moves = [(sym, _symbol(new)[0] - sym[0]) for old, new in names.items()
                 if old != new and (sym := _SYMBOLS.get(old)) is not None]
        d = {}
        for mono, c in self._d.items():
            d[mono + sum((((mono + bias) >> shift & _MASK) - _LIMIT) * delta
                         for (_, shift, bias), delta in moves)] = c
        return _expr(d, self._bound)

    def coeffs_in(self, name: str) -> dict:
        """View the value as a Laurent polynomial in one symbol.

        Returns {exponent: Expr-without-name}.
        """
        sym = _SYMBOLS.get(name)
        if sym is None:
            return {0: self} if self._d else {}
        unit, shift, bias = sym
        out: dict[int, dict] = {}
        for mono, c in self._d.items():
            k = ((mono + bias) >> shift & _MASK) - _LIMIT
            out.setdefault(k, {})[mono - k * unit if k else mono] = c
        return {k: _expr(d, self._bound) for k, d in out.items()}

    def coeff_of(self, name: str, k: int) -> "Expr":
        return self.coeffs_in(name).get(k, ZERO)

    def window(self, name: str, lo: int, hi: int) -> "Expr":
        """The terms whose exponent of *name* lies in lo..hi."""
        sym = _SYMBOLS.get(name)
        if sym is None:
            return self if lo <= 0 <= hi else ZERO
        _, shift, bias = sym
        return _expr({m: c for m, c in self._d.items()
                      if lo <= ((m + bias) >> shift & _MASK) - _LIMIT <= hi},
                     self._bound)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._d:
            return "0"
        if len(self._d) >= _VECTOR_TERMS:
            return _vector_str(self._d)
        terms = sorted(self.terms(), key=_mono_sort_key)
        return _join_terms(["*".join([_factor(v, e) for v, e in mono])
                            for mono, _ in terms], [c for _, c in terms])

    __repr__ = __str__


def dot(terms: Iterable[tuple]) -> Expr:
    """The sum of c*x*y over the triples (c, x, y) of *terms*: c a
    rational, x and y Exprs.

    Every product of monomials goes straight into one dict, entries that
    cancel are deleted, and the result is normalized once, so a sum of
    products costs no intermediate Expr and no copy of the running sum.
    Exponent bounds are those of x*y: an operand pair whose product could
    leave the packed range raises OverflowError.
    """
    d = {}
    get = d.get
    bound = 0
    for c, x, y in terms:
        a, b = x._d, y._d
        if not c or not a or not b:
            continue
        pair = x._bound + y._bound
        if pair >= _LIMIT:
            pair = _product_bound(a, b)
        if pair > bound:
            bound = pair
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            c1 *= c
            for m2, c2 in b.items():
                mono = m1 + m2
                v = get(mono, 0) + c1 * c2
                if v:
                    d[mono] = v
                else:
                    del d[mono]
    return _normalized(d, bound)


def _coerce(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    return NotImplemented


def _rat(c: Rat) -> Rat:
    """*c* as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _expr(d: dict, bound: int) -> Expr:
    """Wrap *d* (nonzero, normalized coefficients; not copied) as an Expr
    whose exponents are at most *bound* in absolute value."""
    e = object.__new__(Expr)
    e._d = d
    e._bound = bound
    return e


def _normalized(d: dict, bound: int) -> Expr:
    """_expr(d, bound) after turning integral Fraction coefficients into
    ints."""
    for mono, c in d.items():
        if type(c) is Fraction and c.denominator == 1:
            d[mono] = c.numerator
    return _expr(d, bound)


# -- monomials ---------------------------------------------------------------
#
# Each symbol gets an id on first use, process-wide; a monomial is the int
#     sum_s e_s * 2^(_BITS * id_s)
# with signed digits |e_s| < _LIMIT.  Adding _LIMIT to every digit (the
# bias) makes them all nonnegative, after which shifts and masks read them.

_BITS = 16  # the width of an "h" array item, as _exponents reads digits
_LIMIT = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1

_NAMES: list = []     # symbol id -> name
_SYMBOLS: dict = {}   # name -> (unit, shift, bias over digits 0..id)
_BIASES: list = [0]   # n -> the bias of digits 0..n-1
_ORDER = sys.byteorder  # that of the "h" array
_VARS: dict = {}      # (name, power) -> Expr.var(name, power)


def _symbol(name: str) -> tuple:
    sym = _SYMBOLS.get(name)
    if sym is None:
        shift = _BITS * len(_NAMES)
        _NAMES.append(name)
        _BIASES.append(_BIASES[-1] + (_LIMIT << shift))
        sym = _SYMBOLS[name] = (1 << shift, shift, _BIASES[-1])
    return sym


def _checked(bound: int) -> int:
    if bound >= _LIMIT:
        raise OverflowError(f"exponent beyond +-{_LIMIT - 1}")
    return bound


def _width(monos) -> int:
    """The number of digits, at most len(_NAMES), past which every
    monomial of *monos* is 0."""
    # a monomial's top nonzero digit lies in the last two fields its bit
    # length reaches into
    return min(len(_NAMES),
               max(max(monos), -min(monos)).bit_length() // _BITS + 1)


def _exponents(monos, n: int | None = None) -> tuple:
    """The exponents of each monomial of *monos*, as one flat array that
    holds a row of n entries (indexed by symbol id; by default the fewest
    that hold every nonzero one) per monomial, and the row length."""
    if n is None:
        n = _width(monos)
    bias = _BIASES[n]
    # biased digits are e + 2^15 in [0, 2^16); flipping their top bit
    # leaves e as a 16-bit two's complement number
    size = _BITS // 8 * n
    return array("h", b"".join([((m + bias) ^ bias).to_bytes(size, _ORDER)
                                for m in monos])), n


def _max_exponent(d) -> int:
    """The largest |exponent| among the monomials of *d*."""
    return max(map(abs, _exponents(list(d))[0]), default=0) if d else 0


def _product_bound(a: dict, b: dict) -> int:
    """The largest |exponent| among the products of a monomial of *a* with
    one of *b*, read symbol by symbol; raises OverflowError past the
    packed range."""
    if not a or not b:
        return 0
    (fa, na), (fb, nb) = _exponents(list(a)), _exponents(list(b))
    bound = 0
    for j in range(max(na, nb)):
        column_a = fa[j::na] if j < na else (0,)
        column_b = fb[j::nb] if j < nb else (0,)
        bound = max(bound, max(column_a) + max(column_b),
                    -min(column_a) - min(column_b))
    return _checked(bound)


def _decode_all(monos) -> list:
    """((symbol, exponent), ...) sorted by symbol, for each monomial, from
    its nonzero digits alone, walked as gradient() walks them."""
    bias = _BIASES[len(_NAMES)]
    out = []
    for mono in monos:
        x = (mono + bias) ^ bias  # each digit its exponent, mod 2^16
        letters = []
        i = 0
        while x:
            skip = ((x & -x).bit_length() - 1) // _BITS
            i += skip
            x >>= _BITS * skip
            letters.append((_NAMES[i], ((x & _MASK) ^ _LIMIT) - _LIMIT))
            x >>= _BITS
            i += 1
        letters.sort()
        out.append(tuple(letters))
    return out


# -- printing ----------------------------------------------------------------
#
# str's term order is in the module docstring.  Per value, the vector path
# (_vector_str) and sorting the digit-walked tuples of terms() cross at
# about 30 terms.  On the values `verify --suite goldman --n 7` prints, the
# tuples take 89 us at 16-31 terms (24 on average) against 96, and the
# vector path is 1.7x quicker at 32-47 (171 against 103 us), 2.2x at
# 64-127 and 3.7x at 128-511.  The cut also keeps passes on small values
# (at most 30 terms each in `verify --suite all`, 10 in `ks` and none in
# `jacobi`) from ever filling numpy's buffers, which would raise their
# peak memory.

_VECTOR_TERMS = 32
# monomials whose dense exponent rows exist at once while str reads letters
_BLOCK = 1 << 12
_NAME_COLUMNS: dict = {}  # row width n -> (ids 0..n-1 by name, their names)


def _mono_sort_key(term: tuple):
    mono = term[0]
    return (len(mono), mono)


def _factor(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _vector_str(d: dict) -> str:
    """str of a value of _VECTOR_TERMS terms or more, with no Python work
    per term: one sparse lexsort orders the monomials, and the text is one
    join over per-coefficient prefixes and a table of the distinct
    letters."""
    monos = list(d)
    m = len(monos)
    n = _width(monos)
    cols = _NAME_COLUMNS.get(n)
    if cols is None:
        ids = sorted(range(n), key=_NAMES.__getitem__)
        cols = _NAME_COLUMNS[n] = (np.array(ids, np.intp),
                                   [_NAMES[i] for i in ids])
    perm, names = cols
    # every letter in printed order within its monomial: the monomial, the
    # rank of its name and its exponent, read off a block of rows at a time
    # so that no dense row exists for the whole value at once
    parts = []
    for start in range(0, m, _BLOCK):
        flat, _ = _exponents(monos[start:start + _BLOCK], n)
        rows = np.frombuffer(flat, np.int16).reshape(-1, n)[:, perm].ravel()
        at = np.flatnonzero(rows != 0).astype(np.int32)
        mono = at // np.int32(n)
        parts.append((mono + np.int32(start), at - mono * np.int32(n),
                      rows[at]))
    mono, rank, exps = map(np.concatenate, zip(*parts))
    del parts
    count = np.bincount(mono, minlength=m)
    slot = np.arange(len(mono), dtype=np.int32)
    slot -= (np.cumsum(count) - count).astype(np.int32)[mono]
    # number the distinct letters in (name rank, exponent) order, from a
    # code in a wide int.  Where a table of every (name, exponent) pair in
    # range would outnumber the letters, a sort compacts the codes instead
    lo = int(exps.min())
    span = int(exps.max()) - lo + 1
    code = rank.astype(np.int64) * span + (exps - np.int64(lo))
    del rank, exps
    if n * span <= len(code):
        seen = np.zeros(n * span, bool)
        seen[code] = True
        distinct = np.flatnonzero(seen)
        letter = (np.cumsum(seen) - 1)[code]
    else:
        distinct, letter = np.unique(code, return_inverse=True)
    del code
    # the key of a monomial: its letter count, then its letters' numbers.
    # In one letter count the first difference is where the letter tuples
    # of terms() differ too, so the padding (0) is never compared
    k = int(count.max())
    key = np.zeros((k + 1, m), np.min_scalar_type(max(k, len(distinct))))
    key[0] = count
    key.ravel()[(slot + 1) * np.int64(m) + mono] = letter
    order = np.lexsort(key[::-1])
    # the text: per term in printed order, its prefix (" - 2*"), then its
    # letters, so a term's prefix follows every piece of the terms before
    # it.  Each distinct letter is printed once with a trailing "*" (at
    # index 2i of texts) and once without (2i + 1), then each distinct
    # coefficient's prefix
    texts = []
    for c in distinct.tolist():
        r, e = divmod(c, span)
        text = _factor(names[r], e + lo)
        texts += (text + "*", text)
    coeffs = list(d.values())
    prefix = {}
    for c in dict.fromkeys(coeffs):
        a = abs(c)
        prefix[c] = len(texts)
        texts.append((" - " if c < 0 else " + ") + ("" if a == 1 else f"{a}*"))
    ahead = count[order]
    where = np.empty(m, np.intp)
    where[order] = np.arange(m) + np.cumsum(ahead) - ahead
    ix = np.empty(m + len(mono), np.intp)
    last = np.ones(len(mono), bool)
    last[:-1] = mono[1:] != mono[:-1]
    ix[where[mono] + slot + 1] = 2 * letter + last
    del mono, slot, letter, last
    ix[where] = np.fromiter(map(prefix.__getitem__, coeffs), np.intp, m)
    # the first term has no " + " before it, and a constant no "*"
    c = coeffs[order[0]]
    text = texts[ix[0]][3:] if count[order[0]] else str(abs(c))
    ix[0] = len(texts)
    texts.append("-" + text if c < 0 else text)
    pieces = np.array(texts, object)[ix].tolist()
    del ix
    return "".join(pieces)


def _join_terms(bodies, coeffs) -> str:
    """The printed sum of the terms coeff*body, in the given order."""
    parts = []
    for body, c in zip(bodies, coeffs):
        if c < 0:
            parts.append(" - ")
            c = -c
        else:
            parts.append(" + ")
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


ZERO = Expr()
ONE = Expr.const(1)


def E(name: str, power: int = 1) -> Expr:
    """Shorthand variable constructor."""
    return Expr.var(name, power)


def const(c: Rat) -> Expr:
    return Expr.const(c)


# -- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<gen>G\[-?\d+,-?\d+,-?\d+\]|Ghat\[-?\d+,-?\d+\])"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def parse(text: str) -> Expr:
    """Parse the expression grammar used by the CLI and golden files.

    Rationals ``p/q``; variables like ``s1 t1 lam h Pi hbar``; generators
    ``G[i,j,k]`` and ``Ghat[i,j]``; operators ``+ - * ^``; parentheses.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("gen"):
            tokens.append(("sym", m.group("gen")))
        elif m.group("num"):
            num, _, den = m.group("num").partition("/")
            if den and not int(den):
                raise ValueError(f"zero denominator in {m.group('num')!r}")
            tokens.append(("num", Fraction(m.group("num"))))
        elif m.group("name"):
            tokens.append(("sym", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))

    idx = [0]

    def peek():
        return tokens[idx[0]]

    def take():
        t = tokens[idx[0]]
        idx[0] += 1
        return t

    def parse_sum() -> Expr:
        kind, val = peek()
        neg = False
        if (kind, val) == ("op", "-"):
            take()
            neg = True
        elif (kind, val) == ("op", "+"):
            take()
        node = parse_product()
        if neg:
            node = -node
        while peek()[:2] in (("op", "+"), ("op", "-")):
            _, op = take()
            rhs = parse_product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_product() -> Expr:
        node = parse_power()
        while True:
            kind, val = peek()
            if (kind, val) == ("op", "*"):
                take()
                node = node * parse_power()
            elif kind in ("sym", "num") or (kind, val) == ("op", "("):
                node = node * parse_power()  # implicit multiplication
            else:
                return node

    def parse_power() -> Expr:
        base = parse_atom()
        if peek()[:2] == ("op", "^"):
            take()
            sign = 1
            if peek()[:2] == ("op", "-"):
                take()
                sign = -1
            kind, val = take()
            if kind != "num" or val.denominator != 1:
                raise ValueError("exponent must be an integer")
            return base ** (sign * int(val))
        return base

    def parse_atom() -> Expr:
        kind, val = take()
        if kind == "num":
            return Expr.const(val)
        if kind == "sym":
            return Expr.var(val)
        if (kind, val) == ("op", "("):
            node = parse_sum()
            if take()[:2] != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return node
        raise ValueError(f"unexpected token {val!r}")

    node = parse_sum()
    if peek()[0] != "end":
        raise ValueError(f"trailing input near token {peek()!r}")
    return node


# -- matrices -------------------------------------------------------------


def rational_rank(rows) -> int:
    """Exact rank of a matrix of rationals by forward elimination: each row
    is reduced by the pivot rows kept before it, and kept if it is not 0."""
    pivots = []  # (column, row): each row is 0 at the columns before it
    for row in rows:
        row = list(map(Fraction, row))
        for c, top in pivots:
            if row[c]:
                f = row[c] / top[c]
                row = [a - f * b for a, b in zip(row, top)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            pivots.append((c, row))
    return len(pivots)


def _half_minors(rows, tops, floor, n) -> dict:
    """Every minor of *rows* (k rows of n entries, each {power: Expr})
    on k of the n columns, as {cols: {power: Expr}} keyed by the sorted
    columns.  Minors of the last j rows are built from those of the last
    j - 1 by expansion along row k - j.  A block of power q is skipped
    when q < *floor* - (the highest power of each row above the minor,
    *tops*, summed); *floor* is the one for the minor of all k rows."""
    k = len(rows)
    minors = {(): {0: ONE}} if floor - sum(tops) <= 0 else {}
    for j in range(1, k + 1):
        row, least = rows[k - j], floor - sum(tops[:k - j])
        bigger = {}
        for cols in combinations(range(n), j):
            parts = {}
            for pos, c in enumerate(cols):
                minor = minors.get(cols[:pos] + cols[pos + 1:], {})
                for (e, x), (q, y) in product(row[c].items(), minor.items()):
                    if e + q >= least:
                        parts.setdefault(e + q, []).append(
                            (-1 if pos % 2 else 1, x, y))
            if parts:
                bigger[cols] = {p: v for p, terms in parts.items()
                                if (v := dot(terms))}
        minors = bigger
    return minors


class Mat:
    """Dense matrix over Expr (used for SL(2) words, 𝒢(λ), Stokes data)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Expr | Rat]]):
        self.rows = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> "Mat":
        return Mat([[ZERO] * n for _ in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat([[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in row] for row in self.rows])

    def scale(self, c: Expr | Rat) -> "Mat":
        c = _coerce(c)
        return Mat([[c * a for a in row] for row in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.rows))
        return Mat([[dot([(1, a, b) for a, b in zip(row, col)])
                     for col in bt] for row in self.rows])

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows)))

    def map(self, f) -> "Mat":
        return Mat([[f(a) for a in row] for row in self.rows])

    def subst(self, bindings) -> "Mat":
        return self.map(lambda e: e.subst(bindings))

    def trace(self) -> Expr:
        n, m = self.shape
        if n != m:
            raise ValueError("square matrices only")
        return sum((self.rows[i][i] for i in range(n)), ZERO)

    def det(self) -> Expr:
        """Exact determinant (det_by_power with no symbol)."""
        return self.det_by_power().get(0, ZERO)

    def det_by_power(self, name: str | None = None, lo: int | None = None):
        """The determinant as {k: its nonzero coefficient of name^k}, by
        Laplace's expansion along the top h = floor(n/2) rows:

            det = sum over h-sets S of columns of
                  (-1)^(h(h-1)/2 + sum S) det[top, S] det[bottom, S^c],

        with the minors of each half built by _half_minors.  Entries are
        split once by coeffs_in (with no name, one block of power 0) and
        a minor is {power: Expr}, so each power p is one dot over the
        pairs of blocks q + q' = p.  With *lo*, only powers >= lo are
        kept: no pair with q + q' < lo is formed, and inside a half a
        block of power q is skipped when q < lo - (the highest power of
        name in each row outside its minor, summed), as each term of the
        determinant takes one entry from each of those rows.  Of the two
        near-even splits, the top floor(n/2) rows take no more monomial
        products than the top ceil(n/2) on every centers matrix."""
        n, m = self.shape
        if n != m:
            raise ValueError("square matrices only")
        rows = [[x.coeffs_in(name) if name else {0: x} if x else {}
                 for x in row] for row in self.rows]
        if not all(any(row) for row in rows):
            return {}
        tops = [max(max(x) for x in row if x) for row in rows]
        lo = -inf if lo is None else lo
        h = n // 2
        top = _half_minors(rows[:h], tops[:h], lo - sum(tops[h:]), n)
        bottom = _half_minors(rows[h:], tops[h:], lo - sum(tops[:h]), n)
        parts = {}
        for cols, upper in top.items():
            lower = bottom.get(tuple(c for c in range(n) if c not in cols), {})
            sign = -1 if (h * (h - 1) // 2 + sum(cols)) % 2 else 1
            for (q, x), (r, y) in product(upper.items(), lower.items()):
                if q + r >= lo:
                    parts.setdefault(q + r, []).append((sign, x, y))
        return {p: v for p, terms in parts.items() if (v := dot(terms))}

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]"
                                 for row in self.rows) + "]"

    __repr__ = __str__
