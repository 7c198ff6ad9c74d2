"""Formal motivic periods: polylogarithm, logarithm and zeta symbols.

A symbol is Li_n(z) for n >= 2, log(l) for a prime l, or zeta(n) for odd
n >= 3; everything else reduces eagerly:

  * log of a rational z factors through the primes of z (log of -1 is 0),
  * Li_1(z) rewrites to -log(1-z),
  * zeta(even) is 0.

Expressions are polynomials in symbols with exact rational coefficients,
graded by half-weight; they and their tensors are words.LinearCombination
subclasses keyed by sorted symbol tuples, which build, add, multiply and
raise to powers there.  The reduced coproduct of Li_n(z) is the Goncharov
formula sum_i Li_{n-i}(z) (x) log(z)^i / i!; log and zeta symbols are
primitive, and coproduct is the ring map (evaluate) extending them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .words import LinearCombination, add_term


def _factor(n):
    n = int(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Symbol(NamedTuple):
    kind: str        # "log" | "li" | "zeta"
    n: int           # weight index (1 for log)
    z: Fraction      # argument (0 for zeta)

    @property
    def weight(self):
        return 1 if self.kind == "log" else self.n

    def __repr__(self):
        if self.kind == "log":
            return "log(%s)" % self.z
        if self.kind == "zeta":
            return "zeta(%d)" % self.n
        return "Li%d(%s)" % (self.n, self.z)


class Expression(LinearCombination):
    """Polynomial in symbols; terms map sorted symbol tuples to Fractions."""

    __slots__ = ()

    @staticmethod
    def _key(m):
        return tuple(sorted(m))

    @classmethod
    def const(cls, c):
        return cls({(): Fraction(c)}) if c else cls()

    @classmethod
    def sym(cls, s):
        return cls({(s,): Fraction(1)})

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    @staticmethod
    def _mul_keys(m1, m2):
        return tuple(sorted(m1 + m2))

    def __repr__(self):
        return self._print(lambda m: "*".join(map(repr, m)) or "1", lambda m: (len(m), repr(m)))


def log_u(z):
    """Motivic logarithm of a nonzero rational, expanded into prime symbols."""
    z = Fraction(z)
    if z == 0:
        raise ValueError("log of zero")
    out = Expression()
    for p, e in _factor(abs(z.numerator)).items():
        out = out + Expression.sym(Symbol("log", 1, Fraction(p))).scale(e)
    for p, e in _factor(z.denominator).items():
        out = out - Expression.sym(Symbol("log", 1, Fraction(p))).scale(e)
    return out


def li_u(n, z):
    """Motivic polylogarithm Li_n(z); Li_1 rewrites to -log(1-z)."""
    z = Fraction(z)
    if n < 1:
        raise ValueError("Li index must be positive")
    if z in (0, 1):
        raise ValueError("Li_n(z) needs z outside {0, 1}")
    if n == 1:
        return -log_u(1 - z)
    return Expression.sym(Symbol("li", n, z))


def zeta_u(n):
    """Motivic zeta value; zero in even weight."""
    if n < 2:
        raise ValueError("zeta index must be >= 2")
    if n % 2 == 0:
        return Expression()
    return Expression.sym(Symbol("zeta", n, Fraction(0)))


class TensorExpr(LinearCombination):
    """Element of Expression (x) Expression, keyed by monomial pairs."""

    __slots__ = ()

    @staticmethod
    def _mul_keys(k1, k2):
        return (tuple(sorted(k1[0] + k2[0])), tuple(sorted(k1[1] + k2[1])))

    @classmethod
    def of(cls, left, right):
        out = cls()
        for ml, cl in left.terms.items():
            for mr, cr in right.terms.items():
                add_term(out.terms, (ml, mr), cl * cr)
        return out

    def __repr__(self):
        return self._print(lambda k: "(%s (x) %s)" % ("*".join(map(repr, k[0])) or "1",
                                                      "*".join(map(repr, k[1])) or "1"), repr)


def _symbol_coproduct(s):
    """Full coproduct of a single symbol as a TensorExpr."""
    e = Expression.sym(s)
    out = TensorExpr({((), tuple(e.terms)[0]): Fraction(1),
                      (tuple(e.terms)[0], ()): Fraction(1)})
    if s.kind == "li":
        z = s.z
        logz = log_u(z)
        for i in range(1, s.n):
            left = li_u(s.n - i, z)
            right = (logz ** i).scale(Fraction(1, math.factorial(i)))
            out = out + TensorExpr.of(left, right)
    return out


def coproduct(expr):
    """The Goncharov coproduct: the ring map extending _symbol_coproduct."""
    return expr.evaluate(_symbol_coproduct, TensorExpr({((), ()): Fraction(1)}).scale)


def reduced_coproduct(expr):
    """Delta'(x) = Delta(x) - x (x) 1 - 1 (x) x."""
    t = coproduct(expr)
    for m, c in expr.terms.items():
        for k in ((m, ()), ((), m)):
            add_term(t.terms, k, -c)
    return t


class ExprFraction:
    """num/den pair of Expressions; no gcd cancellation, exact equality tests."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Expression.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        other = _as_fraction(other)
        return ExprFraction(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other):
        other = _as_fraction(other)
        return ExprFraction(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __neg__(self):
        return ExprFraction(-self.num, self.den)

    def __mul__(self, other):
        other = _as_fraction(other)
        return ExprFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def equals_expression(self, expr):
        return (self.num - expr * self.den).is_zero()

    def __repr__(self):
        if self.den == Expression.const(1):
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)


def _as_fraction(x):
    if isinstance(x, ExprFraction):
        return x
    if isinstance(x, Expression):
        return ExprFraction(x)
    return ExprFraction(Expression.const(Fraction(x)))
