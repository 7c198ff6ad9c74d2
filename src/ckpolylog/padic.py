"""Fixed-precision p-adic arithmetic.

A PadicNumber is p^val * unit with the unit known modulo p^rel; absolute
precision is val + rel.  Addition floors the result at the joint absolute
precision, multiplication and division work at the joint relative
precision, so precision loss is tracked per value.  The logarithm is the
Iwasawa branch (log p = 0), which kills Teichmueller roots of unity.  Like
the Teichmueller lift it is one modular power: with N = rel - 1 and
x = u^((p-1) p^N) mod p^(N+rel), log u = ((x - 1)/p^N)/(p - 1) mod p^rel,
as each term p^((m-1)N) L^m/m! (m >= 2) of x - 1 = exp(p^N L) - 1,
L = log u^(p-1), has valuation >= (m-1)N + 1 >= rel at every p, 2 and 3 too.

EXACT = inf is both the valuation and the claim (absolute precision) of an
exact zero: an exact zero has val = EXACT and rel = 0, a tracked zero O(p^A)
has val = A.  Every polylog.IntSeries claims each coefficient in the same
terms, EXACT for an exact zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isqrt

EXACT = inf


def is_prime(n):
    """Trial division; enough for the primes of S and the working prime."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def valuation(q, ell):
    """(v, u) with q = ell^v * u and u prime to ell, for a nonzero rational q.

    An int q gives an int u, without going through Fraction.
    """
    if not q:
        raise ValueError("valuation of zero")
    if isinstance(q, int):
        v = 0
        while q % ell == 0:
            q //= ell
            v += 1
        return v, q
    q = Fraction(q)
    v, num = valuation(q.numerator, ell)
    w, den = valuation(q.denominator, ell)
    return v - w, (Fraction(num, den) if v or w else q)


class PrecisionError(ArithmeticError):
    pass


class PrecisionPolicy:
    """Working precision M (digits), guard g; x = y iff val(x-y) >= M - g."""

    __slots__ = ("M", "g")

    def __init__(self, M=12, g=3):
        if not (M > g >= 0):
            raise ValueError("need M > g >= 0")
        self.M, self.g = M, g

    def __eq__(self, other):
        if not isinstance(other, PrecisionPolicy):
            return NotImplemented
        return (self.M, self.g) == (other.M, other.g)

    def __hash__(self):
        return hash((self.M, self.g))

    def __repr__(self):
        return "PrecisionPolicy(M=%r, g=%r)" % (self.M, self.g)

    @property
    def equality_threshold(self):
        return self.M - self.g

    def workprec(self):
        # internal headroom over the reporting precision
        return self.M + self.g + 8


class PadicNumber:
    """p-adic scalar: p, valuation, unit part mod p^rel, relative precision.

    Zero comes in two flavours: exact zero, val = EXACT (infinite
    precision), and a tracked zero O(p^A), val = A, whose valuation is only
    known to be >= A.
    """

    __slots__ = ("p", "val", "unit", "rel")

    def __init__(self, p, val, unit, rel):
        self.p = p
        if rel < 0:
            rel = 0
        unit %= p ** rel if rel else 1
        if unit == 0:
            # all known digits vanished: zero O(p^{val+rel}), exact at val = EXACT
            self.val, self.unit, self.rel = val + rel, 0, 0
            return
        # normalize so the unit is coprime to p
        shift, unit = valuation(unit, p)
        self.val = val + shift
        self.rel = rel - shift
        self.unit = unit % (p ** self.rel)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p):
        return cls(p, EXACT, 0, 0)

    @classmethod
    def zero_to(cls, p, abs_prec):
        return cls(p, abs_prec, 0, 0)

    @classmethod
    def from_rational(cls, p, q, rel):
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        v, num = valuation(q.numerator, p)
        w, den = valuation(q.denominator, p)
        return cls(p, v - w, num * pow(den, -1, p ** rel), rel)

    # -- queries -----------------------------------------------------------

    def is_exact_zero(self):
        return self.val == EXACT

    def is_zeroish(self):
        return self.unit == 0

    def val_lower_bound(self):
        return self.val

    def abs_precision(self):
        return self.val + self.rel

    def lift(self):
        """Integer lift p^val * unit (val >= 0 required)."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return self.p ** self.val * self.unit

    def digits(self, count=None):
        """Base-p digits of the unit part starting at p^val."""
        if count is None:
            count = self.rel
        out = []
        u = self.unit
        for _ in range(count):
            u, d = divmod(u, self.p)
            out.append(d)
        return out

    # -- arithmetic ----------------------------------------------------------

    _EXACT_COERCE_REL = 96  # rationals are exact; never let them cap precision

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise ValueError("mixed primes %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(
                self.p, other, max(self.rel, self._EXACT_COERCE_REL))
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        a = self
        if a.is_exact_zero():
            return b
        if b.is_exact_zero():
            return a
        abs_prec = min(a.abs_precision(), b.abs_precision())
        v = min(a.val, b.val)
        m = abs_prec - v
        if m <= 0:
            return PadicNumber.zero_to(a.p, abs_prec)
        total = (a.unit * a.p ** (a.val - v) + b.unit * b.p ** (b.val - v)) % a.p ** m
        return PadicNumber(a.p, v, total, m)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicNumber(self.p, self.val, (-self.unit) % self.p ** self.rel, self.rel)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other):
        b = self._coerce(other)
        return NotImplemented if b is NotImplemented else (-self) + b

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        a = self
        if a.unit == 0 or b.unit == 0:
            # O(p^A) * (p^v unit) = O(p^{A+v}); O * O = O(sum of bounds); a
            # bound EXACT keeps an exact zero exact
            bound = a.val_lower_bound() + b.val_lower_bound()
            return PadicNumber.zero_to(a.p, bound)
        rel = min(a.rel, b.rel)
        return PadicNumber(a.p, a.val + b.val, a.unit * b.unit % a.p ** rel, rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if b.unit == 0:
            raise ZeroDivisionError("division by (possible) p-adic zero")
        inv_rel = b.rel
        inv = PadicNumber(b.p, -b.val, pow(b.unit, -1, b.p ** inv_rel), inv_rel)
        return self * inv

    def __rtruediv__(self, other):
        a = self._coerce(other)
        return NotImplemented if a is NotImplemented else a / self

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        out = PadicNumber.from_rational(
            self.p, 1, self.rel if self.rel else self._EXACT_COERCE_REL)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return self.unit != 0

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p, self.val, self.unit, self.rel) == (other.p, other.val, other.unit, other.rel)

    def truncate_abs(self, abs_prec):
        if self.unit == 0:
            if self.val >= abs_prec:
                return PadicNumber.zero_to(self.p, abs_prec)
            return self
        rel = abs_prec - self.val
        if rel >= self.rel:
            return self
        if rel <= 0:
            return PadicNumber.zero_to(self.p, abs_prec)
        return PadicNumber(self.p, self.val, self.unit % self.p ** rel, rel)

    def __repr__(self):
        if self.is_exact_zero():
            return "0 (exact, p=%d)" % self.p
        if self.unit == 0:
            return "O(%d^%d)" % (self.p, self.val)
        ds = self.digits(min(self.rel, 12))
        s = " + ".join("%d*%d^%d" % (d, self.p, self.val + i)
                       for i, d in enumerate(ds) if d)
        return "%s + O(%d^%d)" % (s or "0", self.p, self.abs_precision())


def padic_agree(x, y, policy):
    """Equality at working precision: val(x - y) >= M - g."""
    d = x - y
    return d.val_lower_bound() >= policy.equality_threshold


def teichmuller(a, p, abs_prec):
    """The (p-1)-st root of unity congruent to a mod p, to abs_prec >= 1 digits.

    Closed form a^(p^(N-1)) mod p^N, N = abs_prec: a^(p^k) agrees with the
    lift to k + 1 digits.
    """
    a %= p
    if a == 0:
        raise ValueError("no Teichmueller lift of 0")
    return pow(a, p ** (abs_prec - 1), p ** abs_prec)


def iwasawa_log(z):
    """Iwasawa-branch logarithm: log p = 0, log of Teichmueller units = 0.

    Works for any nonzero PadicNumber; the valuation is discarded (branch).
    For the unit u, rel = z.rel and N = rel - 1, one modular power
    x = u^((p-1) p^N) mod p^(N+rel) gives log u = ((x - 1)/p^N)/(p - 1)
    mod p^rel.  With L = log u^(p-1), v(L) >= 1 (>= 2 at p = 2), x is
    exp(p^N L) mod p^(N+rel) (at p = 2, N = 0: exp L = -u = u mod 2), and
    (x - 1)/p^N - L sums p^((m-1)N) L^m/m! over m >= 2, each term of
    valuation >= (m-1)N + m - v_p(m!) >= N + 1 = rel, as v_p(m!) <= m - 1
    at every p.  Moving u by p^rel moves x by p^(N+rel).
    """
    if z.unit == 0:
        raise ValueError("log of zero")
    p = z.p
    rel = z.rel
    n = p ** (rel - 1)
    x = pow(z.unit, (p - 1) * n, n * p ** rel)
    return PadicNumber(p, 0, (x - 1) // n * pow(p - 1, -1, p ** rel), rel)


def log_floor(m, p):
    k = 0
    while m >= p:
        m //= p
        k += 1
    return k


def rational_reconstruct(x, num_bound, den_bound):
    """The unique a/b = x mod p^N with |a| <= num_bound, 0 < b <= den_bound.

    Returns None when no such rational exists.  Requires
    2 * num_bound * den_bound < p^N for uniqueness; raises otherwise.
    Negative-valuation inputs are scaled through p^val first.
    """
    if x.unit == 0:
        # consistent with 0 if the bound window contains it
        return Fraction(0)
    p = x.p
    scale = 0
    if x.val < 0:
        scale = -x.val
    N = x.abs_precision() + scale
    modulus = p ** N
    r = (x.unit * p ** (x.val + scale)) % modulus
    if 2 * num_bound * den_bound >= modulus:
        raise ValueError("precision too low for the requested bounds")
    # half-extended Euclid on (modulus, r)
    r0, r1 = modulus, r
    s0, s1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    a, b = r1, s1
    if b == 0:
        return None
    if b < 0:
        a, b = -a, -b
    if abs(a) > num_bound or b > den_bound or b % p == 0 or (a - b * r) % modulus:
        return None
    # the scale's p-power counts against den_bound as well
    out = Fraction(a, b * p ** scale)
    return out if out.denominator <= den_bound else None
