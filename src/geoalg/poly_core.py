"""Exact multivariate Laurent polynomials with rational coefficients.

Everything downstream (geodesic functions, Poisson brackets, braid actions,
determinants of generating matrices) is computed in this ring.  A value is a
finite sum of monomials; a monomial is an integer exponent vector over named
symbols.  Negative exponents are first class, so e.g. ``s1 + s1^-1`` is a
perfectly good element.

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
integral arithmetic runs on machine-sized ints.  There is no floating point
anywhere in this module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

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


def is_generator(name: str) -> bool:
    return parse_gen(name) is not None or parse_ghat(name) is not None


class Expr:
    """Immutable Laurent polynomial in canonical normal form.

    Stored as a dict mapping monomials (sorted tuples of (symbol, exponent)
    pairs with nonzero exponents) to nonzero rationals, each an ``int`` when
    integral and a ``Fraction`` otherwise.  Structural equality of the dicts
    is semantic equality of the polynomials.  A constant hashes as its
    rational value, so ``const(2) == 2`` and ``hash(const(2)) == hash(2)``.
    """

    __slots__ = ("_d", "_hash")

    def __init__(self, terms: Mapping[tuple, Rat] | None = None):
        d = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    d[mono] = _rat(c)
        self._d = d
        self._hash = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(c: Rat) -> "Expr":
        c = _rat(c)
        return _expr({(): c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "Expr":
        if power == 0:
            return ONE
        return _expr({(_letter(name, power),): 1})

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
        return _normalized(d)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return _expr({m: -c for m, c in self._d.items()})

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
        d = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                v = d.get(mono, 0) + c1 * c2
                if v:
                    d[mono] = v
                else:
                    del d[mono]
        return _normalized(d)

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
        inv = tuple(_letter(v, -e) for v, e in mono)
        return _expr({inv: _rat(Fraction(1) / c)})

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
        if self._hash is None:
            d = self._d
            if self.is_rational():
                # equal to its value, so it must hash as that value
                self._hash = hash(d.get((), 0))
            else:
                self._hash = hash(frozenset(d.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def is_rational(self) -> bool:
        return not self._d or (len(self._d) == 1 and () in self._d)

    def as_rational(self) -> Fraction:
        """The constant's value, always as a Fraction (so that dividing two
        values stays exact even when both are integral)."""
        if not self.is_rational():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._d.get((), 0))

    def symbols(self) -> set:
        out = set()
        for mono in self._d:
            for name, _ in mono:
                out.add(name)
        return out

    def terms(self):
        return self._d.items()

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Formal partial derivative with respect to any symbol."""
        d = {}
        for mono, c in self._d.items():
            for idx, (v, e) in enumerate(mono):
                if v == name:
                    # the lowered letter keeps its place in the sorted tuple
                    rest = (mono[:idx] + ((_letter(v, e - 1),) if e != 1 else ())
                            + mono[idx + 1:])
                    val = d.get(rest, 0) + c * e
                    if val:
                        d[rest] = val
                    else:
                        del d[rest]
                    break
        return _normalized(d)

    def subst(self, bindings: Mapping[str, "Expr | Rat"]) -> "Expr":
        """Simultaneous substitution, then normalization.

        Substituting into a negative power requires the bound value to be
        invertible in the Laurent ring (a nonzero monomial); otherwise this
        raises ZeroDivisionError rather than guessing a limit.
        """
        bnd = {k: _coerce(v) for k, v in bindings.items()}
        out = ZERO
        for mono, c in self._d.items():
            term = Expr.const(c)
            for letter in mono:
                name, e = letter
                if name in bnd:
                    term = term * (bnd[name] ** e)
                else:
                    term = term * _expr({(letter,): 1})
            out = out + term
        return out

    def coeffs_in(self, name: str) -> dict:
        """View the value as a Laurent polynomial in one symbol.

        Returns {exponent: Expr-without-name}.
        """
        out: dict[int, dict] = {}
        for mono, c in self._d.items():
            k = 0
            rest = []
            for v, e in mono:
                if v == name:
                    k = e
                else:
                    rest.append((v, e))
            out.setdefault(k, {})[tuple(rest)] = c
        return {k: Expr(d) for k, d in out.items()}

    def coeff_of(self, name: str, k: int) -> "Expr":
        return self.coeffs_in(name).get(k, ZERO)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._d:
            return "0"
        parts = []
        for mono in sorted(self._d, key=_mono_sort_key):
            c = self._d[mono]
            factors = []
            for v, e in mono:
                factors.append(v if e == 1 else f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, text))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    __repr__ = __str__


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


def _expr(d: dict) -> Expr:
    """Wrap *d* (nonzero, normalized coefficients; not copied) as an Expr."""
    e = object.__new__(Expr)
    e._d = d
    e._hash = None
    return e


def _normalized(d: dict) -> Expr:
    """_expr(d) after turning integral Fraction coefficients into ints."""
    for mono, c in d.items():
        if type(c) is Fraction and c.denominator == 1:
            d[mono] = c.numerator
    return _expr(d)


# One shared tuple per (symbol, exponent) letter, so that the monomials of
# many expressions hold references rather than copies.
_LETTERS: dict = {}


def _letter(name: str, e: int) -> tuple:
    key = (name, e)
    return _LETTERS.setdefault(key, key)


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    d = {letter[0]: letter for letter in m1}
    for letter in m2:
        v = letter[0]
        old = d.get(v)
        if old is None:
            d[v] = letter
        else:
            e = old[1] + letter[1]
            if e:
                d[v] = _letter(v, e)
            else:
                del d[v]
    return tuple(sorted(d.values()))


def _mono_sort_key(mono: tuple):
    return (len(mono), mono)


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
    def zero(n: int, m: int | None = None) -> "Mat":
        m = n if m is None else m
        return Mat([[ZERO] * m for _ in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

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
        out = []
        for row in self.rows:
            out.append([sum((a * b for a, b in zip(row, col)), ZERO)
                        for col in bt])
        return Mat(out)

    def __pow__(self, k: int) -> "Mat":
        n, m = self.shape
        if n != m:
            raise ValueError("square matrices only")
        if k < 0:
            raise ValueError("use explicit inverses for matrix powers < 0")
        out = Mat.identity(n)
        for _ in range(k):
            out = out * self
        return out

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
        """Exact determinant by Laplace expansion with column-subset memoization."""
        n, m = self.shape
        if n != m:
            raise ValueError("square matrices only")
        if n == 0:
            return ONE
        memo: dict[tuple, Expr] = {}

        def minor(cols: tuple) -> Expr:
            if len(cols) == 1:
                return self.rows[n - 1][cols[0]]
            got = memo.get(cols)
            if got is not None:
                return got
            row = n - len(cols)
            acc = ZERO
            for pos, c in enumerate(cols):
                sub = minor(cols[:pos] + cols[pos + 1:])
                term = self.rows[row][c] * sub
                acc = acc + term if pos % 2 == 0 else acc - term
            memo[cols] = acc
            return acc

        return minor(tuple(range(n)))

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]"
                                 for row in self.rows) + "]"

    __repr__ = __str__
