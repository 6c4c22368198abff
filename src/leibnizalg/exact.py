"""Exact arithmetic core: Gaussian rationals, sparse polynomials, quotients.

Everything downstream (structure constants, operator equations, finite-field
reduction) is built on three value types:

  Scalar   a + b*i with rational a, b.  The coefficient field.  Each part
           is an int when it is integral and a fractions.Fraction
           otherwise, never a float: a quotient is always built as a
           Fraction, and every result is brought back to that form.
  Poly     sparse multivariate polynomial with Scalar coefficients.  A
           monomial is a tuple of (parameter name, exponent) pairs sorted by
           name, so equal polynomials carry identical dict keys.
  RatExpr  quotient num/den of two Polys, kept unreduced (no GCD step).
           Equality is decided by cross-multiplication, zero-ness by the
           numerator alone.

Every RatExpr keeps one invariant: den is either the shared polynomial
_POLY_ONE or a non-constant polynomial (constant denominators are folded
into the numerator on construction, and a zero numerator gets _POLY_ONE).
The arithmetic relies on it: a denominator that ``is _POLY_ONE`` skips
normalisation, a product of two such keeps it, and a sum or difference
with a zero operand returns the other operand unchanged (0 - x is -x).
The residual sums downstream (algebra, compat, operators) rely on that
last rule in turn: they add only their nonzero terms, left to right with
their signs, and get the very objects a dense sum would.

A sum, difference, product or negation of real Scalars skips the
imaginary part: the result equals the general formula's, with 0 as its
imaginary part.  Most coefficients are small integers, so most Scalar
arithmetic is int arithmetic; an int and the Fraction of equal value
print, compare and hash alike, so the canonical parts change no value,
no printed text and no hash.

Reduction to F_p has one rule, scalar_mod_p: a real Scalar whose
denominator p does not divide maps to numerator / denominator mod p, and
anything else raises.  reduce_mod_p applies it to the value of a
parameter-free RatExpr; fp applies it to each coefficient of a compiled
system and to each constant of a compiled chart.

Expression grammar accepted by parse_expr (EBNF, also in the README):

  expr     = term , { ("+" | "-") , term } ;
  term     = factor , { ("*" | "/") , factor } ;
  factor   = "-" , factor | power ;
  power    = atom , [ "^" , [ "-" ] , integer ] ;
  atom     = integer | name | "(" , expr , ")" ;

The name ``i`` denotes the imaginary unit; every other name is a parameter.
str() on a RatExpr emits text inside this grammar, and parsing that text
back yields an equal RatExpr.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class ExactError(Exception):
    """Base class for arithmetic and parsing errors in this package."""


class ExprSyntaxError(ExactError):
    """Raised by parse_expr; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DenominatorVanishes(ExactError):
    """A denominator became the zero polynomial."""


class NonInvertibleDenominator(ExactError):
    """A rational value cannot be reduced mod p because p divides its denominator."""


class NonRealValue(ExactError):
    """A value with nonzero imaginary part reached a real-only context."""


def _part(x):
    """x as a Scalar part: an int when integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Scalar:
    """Gaussian rational a + b*i.  Immutable by convention.

    Each part is an int when integral and a Fraction otherwise (_part);
    every operation returns parts in that form.  A part that involves a
    Fraction is checked for denominator 1, and int with int stays int.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _part(re)
        self.im = im if type(im) is int else _part(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar(x)
        return None

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            r = self.re + o.re
            if type(r) is not int and r.denominator == 1:
                r = r.numerator
            out = Scalar.__new__(Scalar)
            out.re = r
            out.im = 0
            return out
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            r = self.re - o.re
            if type(r) is not int and r.denominator == 1:
                r = r.numerator
            out = Scalar.__new__(Scalar)
            out.re = r
            out.im = 0
            return out
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            r = self.re * o.re
            if type(r) is not int and r.denominator == 1:
                r = r.numerator
            out = Scalar.__new__(Scalar)
            out.re = r
            out.im = 0
            return out
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        # Fraction(a, n), never a / n, which is a float for two ints
        return Scalar(Fraction(self.re * o.re + self.im * o.im, n),
                      Fraction(self.im * o.re - self.re * o.im, n))

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        if not self.im:
            out = Scalar.__new__(Scalar)
            out.re = -self.re
            out.im = 0
            return out
        return Scalar(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Scalar power expects a nonnegative integer")
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return _scalar_str(self)


SC_ZERO = Scalar(0)
SC_ONE = Scalar(1)
SC_I = Scalar(0, 1)


# A monomial is a tuple of (name, exponent) pairs, sorted by name, with all
# exponents positive.  The empty tuple is the constant monomial.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


class Poly:
    """Sparse multivariate polynomial over Scalar; zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero}
        else:
            self.terms = {}

    @staticmethod
    def const(c) -> "Poly":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return Poly({(): c})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("Poly.var expects a nonnegative exponent")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): SC_ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Scalar:
        if not self.terms:
            return SC_ZERO
        if self.is_const:
            return self.terms[()]
        raise ValueError("polynomial is not constant")

    def params(self) -> set:
        names = set()
        for m in self.terms:
            for name, _ in m:
                names.add(name)
        return names

    def degree_in(self, names) -> int:
        """Total degree counting only the given names; -1 for zero."""
        if not self.terms:
            return -1
        names = set(names)
        return max(sum(e for n, e in m if n in names) for m in self.terms)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                t = s + c
                if t.is_zero:
                    del out[m]
                else:
                    out[m] = t
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def scale(self, c) -> "Poly":
        c = c if isinstance(c, Scalar) else Scalar(c)
        if c.is_zero:
            return Poly()
        p = Poly.__new__(Poly)
        p.terms = {m: k * c for m, k in self.terms.items()}
        return p

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                c = ca * cb
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    t = s + c
                    if t.is_zero:
                        del out[m]
                    else:
                        out[m] = t
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Poly power expects a nonnegative integer")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return _poly_str(self)


_POLY_ONE = Poly.const(1)


class RatExpr:
    """Unreduced quotient of two Polys.

    Constant denominators are folded into the numerator, so den is either
    the shared _POLY_ONE or a non-constant polynomial; a zero numerator
    resets den to _POLY_ONE.  No GCD is ever taken: equality uses
    cross-multiplication, which is sound because coefficients live in a
    field and parameters range over an infinite one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None or den is _POLY_ONE:
            self.num = num
            self.den = _POLY_ONE
            return
        if den.is_zero:
            raise DenominatorVanishes("denominator is the zero polynomial")
        if den.is_const:
            c = den.const_value()
            if c != SC_ONE:
                num = num.scale(SC_ONE / c)
            den = _POLY_ONE
        if num.is_zero:
            den = _POLY_ONE
        self.num = num
        self.den = den

    def __reduce__(self):
        # a copy or an unpickled value is rebuilt through __init__, so its
        # den is the shared _POLY_ONE again and not an equal copy of it
        return RatExpr, (self.num, self.den)

    @staticmethod
    def const(c) -> "RatExpr":
        return RatExpr(Poly.const(c))

    @staticmethod
    def var(name: str) -> "RatExpr":
        return RatExpr(Poly.var(name))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatExpr):
            return x
        if isinstance(x, (int, Fraction, Scalar)):
            return RatExpr(Poly.const(x))
        if isinstance(x, Poly):
            return RatExpr(x)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def params(self) -> set:
        return self.num.params() | self.den.params()

    def __add__(self, other):
        o = other if type(other) is RatExpr else RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return o
        if self.den is o.den or self.den.terms == o.den.terms:
            return RatExpr(self.num + o.num, self.den)
        return RatExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is RatExpr else RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num.terms:
            return self
        if not self.num.terms:
            return -o
        if self.den is o.den or self.den.terms == o.den.terms:
            return RatExpr(self.num - o.num, self.den)
        return RatExpr(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is RatExpr else RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _POLY_ONE and o.den is _POLY_ONE:
            return RatExpr(self.num * o.num)
        return RatExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DenominatorVanishes("division by zero expression")
        return RatExpr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatExpr(-self.num, self.den)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("RatExpr power expects an integer")
        if k < 0:
            if self.is_zero:
                raise DenominatorVanishes("negative power of zero expression")
            return RatExpr(self.den ** (-k), self.num ** (-k))
        return RatExpr(self.num ** k, self.den ** k)

    def __eq__(self, other):
        o = RatExpr._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero

    # Equal values can have different unreduced representations, and no
    # hash agrees with cross-multiplied equality without a GCD.
    __hash__ = None

    def substitute(self, bindings: Mapping[str, "RatExpr"]) -> "RatExpr":
        """Replace parameters by RatExprs; unbound parameters stay symbolic."""
        num = _poly_substitute(self.num, bindings)
        den = _poly_substitute(self.den, bindings)
        if den.is_zero:
            raise DenominatorVanishes("substitution makes a denominator vanish")
        return num / den

    def as_scalar(self) -> Scalar:
        """The value of a parameter-free expression."""
        ps = self.params()
        if ps:
            raise ValueError(f"expression still has parameters: {sorted(ps)}")
        return self.num.const_value() / self.den.const_value()

    def __repr__(self):
        return f"RatExpr({self})"

    def __str__(self):
        if self.den is _POLY_ONE:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"


RE_ZERO = RatExpr.const(0)
RE_ONE = RatExpr.const(1)


def _poly_substitute(p: Poly, bindings: Mapping[str, RatExpr]) -> RatExpr:
    total = RE_ZERO
    for m, c in p.terms.items():
        v = RatExpr(Poly.const(c))
        for name, exp in m:
            b = bindings.get(name)
            if b is None:
                v = v * RatExpr(Poly.var(name, exp))
            else:
                v = v * (b ** exp)
        total = total + v
    return total


def scalar_mod_p(v: Scalar, p: int) -> int:
    """Reduce a Scalar to an element of F_p.

    Raises NonRealValue when v has a nonzero imaginary part and
    NonInvertibleDenominator when p divides its denominator in lowest terms.
    """
    if not v.is_real:
        raise NonRealValue(f"cannot reduce {v} mod {p}: nonzero imaginary part")
    f = v.re
    if f.denominator % p == 0:
        raise NonInvertibleDenominator(
            f"cannot reduce {f} mod {p}: denominator not invertible")
    return (f.numerator * pow(f.denominator, -1, p)) % p


def reduce_mod_p(e: RatExpr, p: int) -> int:
    """Reduce a parameter-free RatExpr to an element of F_p (scalar_mod_p
    of its value)."""
    return scalar_mod_p(e.as_scalar(), p)


# ---------------------------------------------------------------------------
# printing

def _scalar_str(c: Scalar) -> str:
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return str(c.im) + "*i"
    im = c.im
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == 1 else str(mag) + "*i"
    return str(c.re) + sign + imtxt


def _mono_str(m: Monomial) -> str:
    parts = []
    for name, exp in m:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _split_sign(c: Scalar):
    """(sign, magnitude-text) for use inside a sum; mixed values never flip sign."""
    if not c.im:
        return ("-", str(-c.re)) if c.re < 0 else ("+", str(c.re))
    if not c.re:
        if c.im < 0:
            mag = -c.im
            return "-", ("i" if mag == 1 else str(mag) + "*i")
        return "+", ("i" if c.im == 1 else str(c.im) + "*i")
    return "+", f"({_scalar_str(c)})"


def _poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    out = []
    for m in sorted(p.terms):
        c = p.terms[m]
        sign, mag = _split_sign(c)
        if not m:
            piece = mag
        elif mag == "1":
            piece = _mono_str(m)
        else:
            piece = f"{mag}*{_mono_str(m)}"
        if not out:
            out.append(piece if sign == "+" else f"-{piece}")
        else:
            out.append(f" {sign} {piece}")
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

_SYMBOLS = set("+-*/^()")


def _tokenize(text: str):
    toks = []
    n = len(text)
    pos = 0
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            toks.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            toks.append(("name", text[start:pos], start))
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self) -> RatExpr:
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {t[1]!r}", t[2])
        return e

    def expr(self) -> RatExpr:
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.next()
            rhs = self.term()
            e = e + rhs if op[0] == "+" else e - rhs
        return e

    def term(self) -> RatExpr:
        e = self.factor()
        while self.peek()[0] in "*/":
            op = self.next()
            rhs = self.factor()
            if op[0] == "*":
                e = e * rhs
            else:
                if rhs.is_zero:
                    raise ExprSyntaxError("division by zero expression", op[2])
                e = e / rhs
        return e

    def factor(self) -> RatExpr:
        t = self.peek()
        if t[0] == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self) -> RatExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            caret = self.next()
            negative = False
            if self.peek()[0] == "-":
                self.next()
                negative = True
            t = self.expect("int")
            exp = int(t[1])
            if negative:
                if base.is_zero:
                    raise ExprSyntaxError("negative power of zero", caret[2])
                exp = -exp
            return base ** exp
        return base

    def atom(self) -> RatExpr:
        t = self.next()
        if t[0] == "int":
            return RatExpr.const(int(t[1]))
        if t[0] == "name":
            if t[1] == "i":
                return RatExpr.const(SC_I)
            return RatExpr.var(t[1])
        if t[0] == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])


def parse_expr(text: str) -> RatExpr:
    """Parse the documented grammar into a RatExpr.

    Rejects anything outside the grammar with an ExprSyntaxError carrying the
    byte offset; division by an expression that evaluates to zero is caught
    here as well.
    """
    return _Parser(text).parse()
