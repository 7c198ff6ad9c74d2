"""p-adic polylogarithms on residue disks, p-adic zeta values, period map.

Strategy.  The Frobenius-twisted functions

    t_k(z) = Li_k(z) - p^{-k} Li_k(z^p)

satisfy t_1 = (1/p) log(lambda), lambda = (w+1)^p - w^p, in the coordinate
w = 1/(z-1) and d t_k = t_{k-1} dz/z, and each t_k is a power series in w
without constant term whose coefficients tend to zero; the series converges
on every good residue disk.  lambda has integer coefficients and constant
term 1, so its log-derivative r = lambda'/lambda obeys an exact integer
recurrence of length p-1, and t_1[n] = (r[n-1]/p)/n.  Each t_{k+1} follows
from t_k by alternating prefix sums and one more division by n.  The whole
build runs on integers modulo p^N; each t_k is one IntSeries, an integer
vector with one power-of-p scale and one claim (absolute precision) per
coefficient, all of them equal, so precision loss is accounted once per
division step (at most log_p D digits) rather than per coefficient.  At a
Teichmueller point theta (theta^p = theta) the twist untwists exactly:
t_k(theta) = (1 - p^{-k}) Li_k(theta).  That value is claimed only to the
point's precision plus the least coefficient valuation, below the series'
own claim, so each t_k is reduced once modulo p^(claim - scale) and its
top coefficients that vanish there are dropped: at p = 31 a Horner runs
over about 690 of 1,554 of them, to the same value and claim.  Only
t_2..t_n are untwisted there: a disk's Li_1 series starts from
-log(1 - a) itself, so t_1 is evaluated only by the truncation guard at
z = 0.  And theta_(1/a) = 1/theta_a with log theta = 0 on the Iwasawa
branch, so Li_k(1/theta) = (-1)^(k+1) Li_k(theta): of each pair of inverse
disks a, a^-1 only the first one asked for runs a Horner.

The series keep workprec + 4 digits (_gsprec), and the degree is sized
from that.  Every t_k is integral (least coefficient valuation 0), so a
Teichmueller point, known to workprec digits, gets a value claiming
min(prec, workprec) = workprec: more series digits would change neither
value nor claim.  The truncation guards need the rest: a tail valuation of
workprec + 3, and at z = 0 (w = -1, known to _gsprec digits) a value
claimed to at least workprec + 1.

Values elsewhere on the disk of a come from the differential system
d log = dz/z, dLi_1 = -dz/(z - 1), dLi_k = Li_(k-1) dz/z, each series one
integration step in t, z = a + p t, about the integer a itself, from log a
and Li_1(a) = -log(1 - a).  For k >= 2 the integral I_k of Li_(k-1) dz/z that
vanishes at a is built first; since Li_k(theta_a) - Li_k(a) = I_k at
t = (theta_a - a)/p, its constant is

    Li_k(a) = Li_k(theta_a) - I_k((theta_a - a)/p),

truncated to workprec.  Every such constant claims exactly workprec, so
this route gives the same integers and claims as one that expands about
theta_a and evaluates there (tests/oracles.py does).  The series stop at
the degree N of _local_degree: coefficient j of Li_k has valuation at least
j - v_p(j) minus the k - 1 largest v_p(m), m < j, which the nested
divisions cost, and N is the least n >= workprec + 4 past which that bound
stays at or above workprec for k = max_weight.  So the dropped tail of every
table series, and of every Coleman local series (Li-weight <= max_weight),
lies at or above workprec; at the default policy N = workprec + 4 = 27.

The disk series are IntSeries too, but their claims differ from one
coefficient to the next: a value Li_k(theta) claims workprec, while a
coefficient divided by j loses v_p(j) digits, so one claim for the whole
series would have to absorb the worst loss.  Each operation claims every
coefficient by PadicNumber's own rules, without building a PadicNumber: a product term
a_i b_j claims min(A_a[i] + v(b_j), A_b[j] + v(a_i)), a sum the least claim
of its terms, a division by j costs v_p(j) digits on that coefficient, and
Horner evaluation claims acc * x + c step by step as PadicNumber would.
A product with a one-coefficient factor, the constant that starts each
monomial of a Coleman function's local series, takes one pass.
Every disk series integrates a series times p/(c + p t) about a center c:
dz/z about c = a, and dz/(z - 1) about c = a - 1 for Li_1.  That factor is
never built: with q = p/c, the product y of a series a by it obeys
y_k = q (a_k - y_(k-1)), one pass modulo p^(top - scale), and coefficient
j of the factor has valuation j + 1 and claims R + j + 1
(R = min(workprec, rel(c))), so y_k claims

    (k + 1) + min over i <= k of (min(A_a[i], v_a[i] + R) - i),

exactly what the dense product claims; any lift of q changes y_k by
multiples of p^(that claim).  The values and claims equal those of the
same series built as PadicNumber lists (tests/oracles.py).

Everything is verified downstream by the distribution relation, the
dilogarithm reflection identity and cross-prime rational reconstruction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .padic import (EXACT, PadicNumber, PrecisionError, is_prime, iwasawa_log, log_floor,
                    teichmuller, valuation)
from .symbols import Expression


class BadDiskError(ValueError):
    """Argument reduces into a residue disk where Li_k is not defined."""


_POWERS = {}  # p -> ([p^0, p^1, ...], {p^e: e})


def _power_tables(p, n):
    """Powers p^0..p^n (at least) and the map p^e -> e, grown on demand."""
    tables = _POWERS.get(p)
    if tables is None or len(tables[0]) <= n:
        pw = [p ** e for e in range(max(n + 1, 96))]
        tables = _POWERS[p] = (pw, {q: e for e, q in enumerate(pw)})
    return tables


def _top(claims, scale):
    """Largest finite claim above scale, to size the power tables."""
    top = max(claims, default=scale)
    if top == EXACT:
        top = max((A for A in claims if A != EXACT), default=scale)
    return top - scale


class IntSeries:
    """Power series sum coeffs[n] * p^scale * w^n over Z_p.

    Coefficient n is the integer coeffs[n] modulo p^(A_n - scale), where
    A_n = claims[n] is its absolute precision, EXACT for an exact zero.  The
    claims of a Frobenius-twisted series t_k are all equal; a residue-disk
    series claims each coefficient as PadicNumber would, with no object per
    operation.  Every coefficient has valuation >= scale.
    """

    __slots__ = ("p", "coeffs", "scale", "claims", "_vals", "_minval", "_reduced")

    def __init__(self, p, coeffs, scale, claims):
        self.p, self.coeffs, self.scale, self.claims = p, coeffs, scale, claims
        self._vals = self._minval = self._reduced = None

    @classmethod
    def from_padics(cls, p, values):
        """The series holding the PadicNumbers values."""
        scale = min([0] + [x.val_lower_bound() for x in values])
        claims = [x.abs_precision() for x in values]
        pw = _power_tables(p, _top(claims, scale))[0]
        coeffs = [x.unit * pw[x.val - scale] % pw[A - scale] if x.unit else 0
                  for x, A in zip(values, claims)]
        return cls(p, coeffs, scale, claims)

    def __len__(self):
        return len(self.coeffs)

    def coefficient(self, n):
        A = self.claims[n]
        if A == EXACT:
            return PadicNumber.exact_zero(self.p)
        return PadicNumber(self.p, self.scale, self.coeffs[n], A - self.scale)

    def valuations(self):
        """Valuation of each coefficient; its claim when it is zero to that claim."""
        if self._vals is None:
            s = self.scale
            claims = self.claims
            pw, lg = _power_tables(self.p, _top(claims, s))
            self._vals = [s + lg[math.gcd(u, pw[A - s])] if u else A
                          for u, A in zip(self.coeffs, claims)]
        return self._vals

    def min_valuation(self, start=0):
        """Least valuation among coeffs[start:], read modulo the least claim;
        that claim when they all vanish there."""
        g = math.gcd(self.p ** (min(self.claims) - self.scale), *self.coeffs[start:])
        return self.scale + log_floor(g, self.p)

    def evaluate(self, x):
        """Horner evaluation of a twisted series on integers, val(x) >= 0.

        x is known to x.abs_precision() digits, so the value is claimed to
        min(least claim, x.abs_precision() + least coefficient valuation);
        both minima are taken once per series (_minval).  The Horner runs
        modulo p^(claim - scale) on the coefficients reduced to that
        modulus, top first, without the top ones that vanish there; that
        list is kept per modulus, so the Teichmueller points of one engine
        share it.  The value is the full Horner's.
        """
        if self._minval is None:
            self._minval = min(self.claims), self.min_valuation()
            self._reduced = {}
        least, minval = self._minval
        prec = min(least, x.abs_precision() + minval)
        mod = self.p ** (prec - self.scale)
        top_first = self._reduced.get(mod)
        if top_first is None:
            reduced = [c % mod for c in self.coeffs]
            while reduced and not reduced[-1]:
                reduced.pop()
            top_first = self._reduced[mod] = reduced[::-1]
        X = x.lift() % mod
        acc = 0
        for c in top_first:
            acc = (acc * X + c) % mod
        return PadicNumber(self.p, self.scale, acc, prec - self.scale)

    def rescaled(self, scale):
        """The same series over a lower scale."""
        m = self.p ** (self.scale - scale)
        return IntSeries(self.p, [u * m for u in self.coeffs], scale, list(self.claims))

    def with_constant(self, c):
        """The series with coefficient 0 replaced by the PadicNumber c."""
        head = IntSeries.from_padics(self.p, [c])
        s = min(self.scale, head.scale)
        out, head = self.rescaled(s), head.rescaled(s)
        out.coeffs[0], out.claims[0] = head.coeffs[0], head.claims[0]
        return out

    def __add__(self, other):
        """Termwise sum; the shorter series counts as exact zeros beyond its end."""
        s = min(self.scale, other.scale)
        a, b = self.rescaled(s), other.rescaled(s)
        if len(a) < len(b):
            a, b = b, a
        claims = list(a.claims)
        coeffs = list(a.coeffs)
        pw = _power_tables(self.p, _top(claims, s))[0]
        for n, (u, A) in enumerate(zip(b.coeffs, b.claims)):
            A = min(A, claims[n])
            claims[n] = A
            coeffs[n] = 0 if A == EXACT else (coeffs[n] + u) % pw[A - s]
        return IntSeries(self.p, coeffs, s, claims)

    def shift(self, k):
        """Multiply by p^k exactly (no precision loss)."""
        return IntSeries(self.p, self.coeffs, self.scale + k, [A + k for A in self.claims])

    def derivative(self):
        """d/dw; multiplying coefficient n by n gains v_p(n) digits of claim."""
        p, s = self.p, self.scale
        claims = [A if A == EXACT else A + valuation(n, p)[0]
                  for n, A in enumerate(self.claims) if n]
        pw = _power_tables(p, _top(claims, s))[0]
        coeffs = [0 if A == EXACT else u * n % pw[A - s]
                  for n, (u, A) in enumerate(zip(self.coeffs[1:], claims), start=1)]
        return IntSeries(p, coeffs, s, claims)

    def integral(self):
        """Antiderivative with exact-zero constant: coefficient j is coeffs[j-1]/j.

        Dividing by j costs v_p(j) digits on that coefficient only; the scale
        drops as far as the divisions need.  A coefficient's valuation is at
        least the scale, so only the divisions by j with p | j can lower it,
        and only those coefficients' valuations are read.
        """
        p, s = self.p, self.scale
        index = [valuation(j, p) for j in range(1, len(self.coeffs) + 1)]
        claims = [EXACT] + [A if A == EXACT else A - e
                            for A, (e, _) in zip(self.claims, index)]
        pw, lg = _power_tables(p, _top(self.claims, s))
        s_new = s
        for j in range(p, len(self.coeffs) + 1, p):
            u, A = self.coeffs[j - 1], self.claims[j - 1]
            if A != EXACT:
                v = s + lg[math.gcd(u, pw[A - s])] if u else A
                s_new = min(s_new, v - index[j - 1][0])
        pw = _power_tables(p, _top(claims, s_new) + s - s_new)[0]
        coeffs = [0]
        for u, A, (e, w) in zip(self.coeffs, claims[1:], index):
            if not u:
                coeffs.append(0)
                continue
            mod = pw[A - s_new]
            k = s - e - s_new
            u = u * pw[k] if k >= 0 else u // pw[-k]
            coeffs.append(u * pow(w, -1, mod) % mod)
        return IntSeries(p, coeffs, s_new, claims)

    def without_content(self):
        """The series divided by its p-power content; None when it vanishes
        to every claim."""
        known = [v for u, v in zip(self.coeffs, self.valuations()) if u]
        return self.shift(-min(known)) if known else None

    def residues(self):
        """Coefficients mod p of a series whose coefficients are integral."""
        p, s = self.p, self.scale
        if s >= 0:
            return [u * p ** s % p for u in self.coeffs]
        return [u // p ** -s % p for u in self.coeffs]

    def recentered(self, r, workprec):
        """Coefficients of S(r + p s) as a series in s.

        Coefficient l is sum_j c_j C(j, l) r^(j-l) times
        (p + O(p^(workprec+1)))^l.  The sum claims min_j (A_j + v_p C(j, l))
        over the terms it keeps (exact zeros and zeros beyond workprec drop
        out); the factor caps that claim at l + workprec + v(sum), at l = 0
        too.
        """
        p, s, n = self.p, self.scale, len(self)
        keep = [j for j, (u, A) in enumerate(zip(self.coeffs, self.claims))
                if A != EXACT and (u or A <= workprec)]
        # a claim grows by at most l + log_p(n) <= 2n here
        pw, lg = _power_tables(p, _top(self.claims, s) + 2 * n)
        coeffs, claims = [], []
        for l in range(n):
            js = [j for j in keep if j >= l and (r or j == l)]
            if not js:
                coeffs.append(0)
                claims.append(EXACT)
                continue
            binom = [math.comb(j, l) for j in js]
            A = min(self.claims[j] + valuation(b, p)[0] for j, b in zip(js, binom))
            acc = sum(self.coeffs[j] * b * r ** (j - l)
                      for j, b in zip(js, binom)) % pw[A - s]
            v = s + lg[math.gcd(acc, pw[A - s])] if acc else A
            A = min(A + l, l + workprec + v)
            coeffs.append(acc * pw[l] % pw[A - s])
            claims.append(A)
        return IntSeries(p, coeffs, s, claims)


def _series_eval(series, x):
    """Horner value of an IntSeries at a PadicNumber x with val(x) >= 0.

    Each step acc * x + c claims min(A_acc + v(x), A_x + v(acc), A_c), as
    PadicNumber arithmetic would; v(acc) is computed only when it can bind.
    """
    p, s = series.p, series.scale
    if x.is_exact_zero():
        return series.coefficient(0) if len(series) else PadicNumber.exact_zero(p)
    Ax, vx, X = x.abs_precision(), x.val_lower_bound(), x.lift()
    claims = series.claims
    pw, lg = _power_tables(p, _top(claims, s))
    acc, A = 0, EXACT
    for u, Ac in zip(reversed(series.coeffs), reversed(claims)):
        if A == EXACT:
            acc, A = u, Ac
            continue
        B = min(A + vx, Ac)
        k = B - Ax - s
        if k > 0 and acc:
            g = math.gcd(acc, pw[k])
            if g != pw[k]:
                B = Ax + s + lg[g]
        A = B
        acc = (acc * X + u) % pw[A - s]
    if A == EXACT:
        return PadicNumber.exact_zero(p)
    return PadicNumber(p, s, acc, A - s)


def _series_multiply(a, b, trunc):
    """a * b below w^trunc.

    The product term a_i b_j claims min(A_a[i] + v(b_j), A_b[j] + v(a_i))
    and a sum the least claim of its terms, as PadicNumber would; pairs
    with an exact zero contribute nothing.  A one-coefficient factor costs
    one pass over the other.
    """
    p, s = a.p, a.scale + b.scale
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        u, A, v = a.coeffs[0], a.claims[0], a.valuations()[0]
        claims = [min(A + vb, v + Ab)
                  for vb, Ab in zip(b.valuations()[:trunc], b.claims[:trunc])]
        # an exact zero's integer is 0, so an EXACT claim gets coefficient 0
        coeffs = [u * ub for ub in b.coeffs[:trunc]]
    else:
        ua, Aa, va = a.coeffs, a.claims, a.valuations()
        rb, rAb, rvb = b.coeffs[::-1], b.claims[::-1], b.valuations()[::-1]
        na, nb = len(ua), len(rb)
        coeffs, claims = [], []
        for k in range(min(trunc, na + nb - 1)):
            lo, hi = max(0, k - nb + 1), min(k, na - 1) + 1
            blo, bhi = nb - 1 - k + lo, nb - 1 - k + hi
            A = min(min(map(add, Aa[lo:hi], rvb[blo:bhi])),
                    min(map(add, va[lo:hi], rAb[blo:bhi])))
            claims.append(A)
            coeffs.append(0 if A == EXACT else sum(map(mul, ua[lo:hi], rb[blo:bhi])))
    claims += [EXACT] * (trunc - len(claims))
    coeffs += [0] * (trunc - len(coeffs))
    pw = _power_tables(p, _top(claims, s))[0]
    coeffs = [u % pw[A - s] if u else 0 for u, A in zip(coeffs, claims)]
    return IntSeries(p, coeffs, s, claims)


def _twisted_kernel(p, degree, weights, digits):
    """t_1..t_weights below w^degree, from lambda'/lambda modulo p^digits."""
    mod = p ** digits
    lam = [math.comb(p, j) for j in range(p)]
    # r = lambda'/lambda: r[n] = (n+1) lam[n+1] - sum_{j=1}^{p-1} lam[j] r[n-j]
    r = []
    for n in range(degree - 1):
        acc = (n + 1) * lam[n + 1] if n + 1 < p else 0
        for j in range(1, min(n, p - 1) + 1):
            acc -= lam[j] * r[n - j]
        r.append(acc % mod)
    # p^L / n modulo p^(digits-1), L the largest valuation of an index n
    L = log_floor(degree - 1, p)
    emod = p ** (digits - 1)
    over_n = [0]
    for n in range(1, degree):
        v, u = valuation(n, p)
        over_n.append(p ** (L - v) * pow(u, -1, emod) % emod)
    # r is divisible by p, so t_1[n] = (r[n-1]/p)/n is known to digits-1-L
    t1 = [0] + [r[n - 1] // p * over_n[n] % emod for n in range(1, degree)]
    series = [IntSeries(p, t1, -L, [digits - 1 - L] * degree)]
    for _ in range(2, weights + 1):
        prev = series[-1]
        # t_{k+1} = -int t_k(u) du / (u (u+1)); gamma_n = -s_n / n with
        # s_n = beta_n - s_{n-1} the alternating prefix sums
        gam = [0]
        s = 0
        for n in range(1, degree):
            s = (prev.coeffs[n] - s) % emod
            gam.append(-s * over_n[n] % emod)
        series.append(IntSeries(p, gam, prev.scale - L, [A - L for A in prev.claims]))
    return series


def unsupported_prime(p):
    """Why the numerics cannot run at p, or None: they need a prime p >= 5."""
    if p < 5:
        return "numerics need p > 3"
    if not is_prime(p):
        return "%d is not prime" % p
    return None


# the largest twisted series an engine builds through weight K, as D times
# (p + G) G + (K - 4) d b, for degree D at G digits: the lambda'/lambda
# recurrence takes D p steps on G-digit integers, the series arithmetic of
# weights 1..4 about D more G-digit products, and each weight past the
# fourth D more steps on the d digits the kernel keeps, of b =
# p.bit_length() bits each.  On 2 CPUs the slowest admitted runs took
# 13-15 s (locus --S 3 --p 613), 8 s (locus --S 3 --p 7 --prec 407) and
# 3-9 s (verify counterexample or all at the largest admitted --n for
# p = 5, 7, 31, 101, 601)
MAX_SERIES_COST = 5 * 10 ** 8


def _series_digits(policy):
    """The absolute precision every twisted series keeps (module docstring)."""
    return policy.workprec() + 4


def _series_degree(p, G):
    """The truncation degree of the twisted series kept to G digits."""
    # the least logterm with p^logterm >= (p - 1)(G + 14)
    logterm = log_floor((p - 1) * (G + 14) - 1, p) + 1
    return (p - 1) * (G + 4 * logterm + 12) + 24


def unsupported_size(p, policy, max_weight):
    """Why an engine at (p, policy, max_weight) is too large to build, or None."""
    G = _series_digits(policy)
    D = _series_degree(p, G)
    d = _kernel_digits(p, D, G, max_weight)
    if D * ((p + G) * G + (max_weight - 4) * d * p.bit_length()) > MAX_SERIES_COST:
        return ("--p %d at --prec %d is too large for the numerics: its twisted series "
                "would have degree %d at %d digits through weight %d"
                % (p, policy.M, D, G, max_weight))
    return None


def _kernel_digits(p, D, G, K):
    """The digits _twisted_kernel keeps so that t_K holds G: each 1/n costs
    at most log_p(D - 1) of them."""
    return G + 1 + K * log_floor(D - 1, p)


class PolylogEngine:
    """All p-adic polylogarithm numerics for one prime and one policy."""

    def __init__(self, p, policy, max_weight=4):
        if reason := unsupported_prime(p):
            raise ValueError(reason)
        self.p = p
        self.policy = policy
        self.max_weight = max_weight
        self.workprec = self.policy.workprec()
        # absolute precision every global twisted series keeps (see the
        # module docstring); the truncation degree _twist_degree() is sized
        # from it
        self._gsprec = _series_digits(policy)
        self._twisted = None
        self._teich_values = {}
        self._disk_tables = {}
        self._zeta_cache = {}
        self.local_degree = self._local_degree()

    def _local_degree(self):
        """Truncation degree N of the residue-disk series (module docstring):
        the least n >= workprec + 4 with j - L_K(j) >= workprec for all
        j >= n, L_K(j) = v_p(j) + the K - 1 largest v_p(m), m < j, and
        K = max_weight."""
        p, W, K = self.p, self.workprec, self.max_weight
        n = W + 4
        top = []  # the K - 1 largest v_p(m), m < j
        j = 1
        # L_K(j) <= K log_p(j), and j - K log_p(j) increases from j = K on,
        # so once j - K (log_floor(j) + 1) >= W no later j can fail
        while j < max(n, K) or j - K * (log_floor(j, p) + 1) < W:
            e = valuation(j, p)[0]
            if j - e - sum(top) < W:
                n = max(n, j + 1)
            top = sorted(top + [e], reverse=True)[:K - 1]
            j += 1
        return n

    # -- Frobenius-twisted global series ----------------------------------

    def _twist_degree(self):
        return _series_degree(self.p, self._gsprec)

    def twisted_series(self):
        """t_1..t_max_weight as IntSeries in w, truncated at _twist_degree()."""
        if self._twisted is None:
            D, K = self._twist_degree(), self.max_weight
            digits = _kernel_digits(self.p, D, self._gsprec, K)
            series = _twisted_kernel(self.p, D, K, digits)
            self._check_twisted(series)
            self._twisted = series
        return self._twisted

    def _check_twisted(self, series):
        """Internal truncation guards: tail decay and vanishing at z = 0."""
        p = self.p
        minus_one = PadicNumber.from_rational(p, -1, self._gsprec)
        # margin absorbs the non-monotone log_p dips just past the cutoff
        need = self.workprec + 3
        for k, tk in enumerate(series, start=1):
            tail = tk.min_valuation(-2 * (p - 1))
            if tail < need:
                raise PrecisionError(
                    "twisted series t_%d tail valuation %d < %d; raise degree"
                    % (k, tail, need))
            at0 = tk.evaluate(minus_one)
            if at0.val_lower_bound() < need - 2:
                raise PrecisionError(
                    "twisted series t_%d fails vanishing at z=0 (val %d)"
                    % (k, at0.val_lower_bound()))

    # -- values at Teichmueller points --------------------------------------

    def teichmuller_point(self, a):
        t = teichmuller(a, self.p, self.workprec)
        return PadicNumber(self.p, 0, t, self.workprec)

    def values_at_teichmuller(self, a):
        """Li_k(theta_a) for k = 2..max_weight (theta_a != 1 required).

        Each Li_k untwists the Horner value of t_k.  theta_(1/a) = 1/theta_a
        and log theta_a = 0, so once the disk of a^-1 has its values,
        Li_k(theta_a) = (-1)^(k+1) Li_k(theta_(1/a)) costs no Horner at all.
        """
        a = a % self.p
        if a in (0, 1):
            raise BadDiskError("no Teichmueller polylog values over disk %d" % a)
        if a in self._teich_values:
            return self._teich_values[a]
        p = self.p
        inverse = self._teich_values.get(pow(a, -1, p))
        if inverse is not None:
            vals = {k: v if k % 2 else -v for k, v in inverse.items()}
        else:
            theta = self.teichmuller_point(a)
            w = 1 / (theta - 1)
            series = self.twisted_series()
            vals = {}
            for k in range(2, self.max_weight + 1):
                tk = series[k - 1].evaluate(w)
                # t_k(theta) = (1 - p^{-k}) Li_k(theta); clamp the claimed
                # precision at workprec so series truncation stays inside it
                vals[k] = (tk * (p ** k) / (p ** k - 1)).truncate_abs(self.workprec)
        self._teich_values[a] = vals
        return vals

    # -- residue-disk power series -----------------------------------------

    def _times_dz_over_z(self, series, center, trunc):
        """series * p/(center + p t) below t^trunc (<= len(series)), in one
        pass: the recurrence and claims of the module docstring, equal to
        _series_multiply by the dz/z series."""
        p, s = self.p, series.scale
        R = min(self.workprec, center.rel)
        claims = []
        low = EXACT
        for k, (A, v) in enumerate(zip(series.claims[:trunc], series.valuations())):
            low = min(low, min(A, v + R) - k)
            claims.append(k + 1 + low)
        top = _top(claims, s)
        pw = _power_tables(p, top)[0]
        mod = pw[top]
        q = p * pow(center.unit, -1, mod) % mod
        y = 0
        coeffs = []
        for u, A in zip(series.coeffs, claims):
            y = q * (u - y) % mod
            coeffs.append(0 if A == EXACT else y % pw[A - s])
        return IntSeries(p, coeffs, s, claims)

    def disk_table(self, a):
        """Local series of log, Li_1..Li_n on the disk of a (2 <= a <= p-1),
        centered at a itself.

        Each series is one integration step about a: log from log a, Li_1
        from -log(1 - a), with dz/(z - 1) = p dt/((a - 1) + p t).  For k >= 2
        the integral I_k of Li_(k-1) dz/z that vanishes at a gives Li_k(a) =
        Li_k(theta_a) - I_k((theta_a - a)/p), claimed to workprec.
        """
        a = a % self.p
        if a in (0, 1):
            raise BadDiskError("disk %d mod %d is a bad disk" % (a, self.p))
        if a in self._disk_tables:
            return self._disk_tables[a]
        p, N, W = self.p, self.local_degree, self.workprec
        tvals = self.values_at_teichmuller(a)
        a_pn = PadicNumber.from_rational(p, a, W)
        shift = (self.teichmuller_point(a) - a_pn) / p
        table = {}
        # log integrates 1 dz/z and Li_1 integrates -1 dz/(z - 1), each
        # constant known to workprec digits, exact zeros after it
        for name, c, center, value in (("log", 1, a_pn, iwasawa_log(a_pn)),
                                       ("li1", -1, a_pn - 1, -iwasawa_log(1 - a_pn))):
            f = IntSeries(p, [c] + [0] * (N - 2), 0, [W] + [EXACT] * (N - 2))
            table[name] = self._times_dz_over_z(f, center, N - 1).integral().with_constant(value)
        for k in range(2, self.max_weight + 1):
            # dLi_k = Li_(k-1) dz/z
            integral = self._times_dz_over_z(table["li%d" % (k - 1)], a_pn, N - 1).integral()
            value = (tvals[k] - _series_eval(integral, shift)).truncate_abs(W)
            table["li%d" % k] = integral.with_constant(value)
        self._disk_tables[a] = table
        return table

    # -- the user-facing polylogarithm ---------------------------------------

    def _as_padic(self, z):
        if isinstance(z, PadicNumber):
            if z.p != self.p:
                raise ValueError("argument lives at the wrong prime")
            return z
        return PadicNumber.from_rational(self.p, Fraction(z), self.workprec)

    def log(self, z):
        return iwasawa_log(self._as_padic(z))

    def polylog(self, k, z):
        """Li_k(z) for a unit z of Z_p off the disk of 1, and Li_k(0) = 0."""
        if not 1 <= k <= self.max_weight:
            raise ValueError("weight %d outside the built range 1..%d"
                             % (k, self.max_weight))
        z = self._as_padic(z)
        if z.unit == 0:
            if z.is_exact_zero():
                return PadicNumber.exact_zero(self.p)
            raise BadDiskError("argument is zero to working precision")
        if z.val != 0:
            raise BadDiskError("val(z) = %d: z is not on a unit disk" % z.val)
        a = z.unit % self.p
        if a == 1:
            raise BadDiskError("disk of 1 (z = %r) is outside the domain" % z)
        if k == 1:
            return -iwasawa_log(1 - z)
        table = self.disk_table(a)
        t = (z - a) / self.p
        return _series_eval(table["li%d" % k], t)

    def zeta(self, k):
        """zeta_p(k): zero in even weight, Li_k(-1)/(2^{1-k} - 1) in odd weight."""
        if k < 2:
            raise ValueError("zeta index must be >= 2")
        if k % 2 == 0:
            return PadicNumber.exact_zero(self.p)
        if k not in self._zeta_cache:
            li = self.polylog(k, Fraction(-1))
            self._zeta_cache[k] = li / (Fraction(2) ** (1 - k) - 1)
        return self._zeta_cache[k]

    def zeta_nonzero(self, k):
        """zeta_p(k) for a division: PrecisionError at even k, where it is 0,
        and once its valuation reaches the equality threshold M - g."""
        if k % 2 == 0:
            raise PrecisionError("zeta_%d(%d) is 0: %d is even" % (self.p, k, k))
        z = self.zeta(k)
        v, bound = z.val_lower_bound(), self.policy.equality_threshold
        if v >= bound:
            raise PrecisionError(
                "zeta_%d(%d) has valuation %s%d, at or above the threshold M - g = %d"
                % (self.p, k, ">= " if z.is_zeroish() else "", v, bound))
        return z

    # -- period map -----------------------------------------------------------

    def period(self, expr):
        """The p-adic period map: the ring map sending each motivic symbol
        to its Coleman value."""
        if not isinstance(expr, Expression):
            raise TypeError("period map wants a motivic Expression")
        return expr.evaluate(
            lambda s: (self.log(s.z) if s.kind == "log" else
                       self.zeta(s.n) if s.kind == "zeta" else
                       self.polylog(s.n, s.z)),
            lambda c: PadicNumber.from_rational(self.p, c, self.workprec))

    # -- appendix check ---------------------------------------------------------

    def single_valued_l3(self, z):
        """L_3(z) = Li_3(z) - Li_2(z) log(z) + (1/2) Li_1(z) log(z)^2."""
        lg = self.log(z)
        return (self.polylog(3, z) - self.polylog(2, z) * lg
                + self.polylog(1, z) * lg * lg / 2)


def padic_L3_check(p, policy):
    """Residual valuations for the p-adic Kummer-Spence instance.

    Returns a dict of valuation lower bounds for
      L_3(-3) - 2 L_3(3) + (13/6) zeta_p(3),
      Li_3(-3) - 2 Li_3(3) + (13/6) zeta_p(3),
      Li_2(-3) - 2 Li_2(3),
    all of which should clear M - loss.
    """
    eng = get_engine(p, policy)
    z3 = eng.zeta_nonzero(3)
    c = Fraction(13, 6)
    l3 = eng.single_valued_l3(Fraction(-3)) - 2 * eng.single_valued_l3(Fraction(3)) + c * z3
    li3 = eng.polylog(3, Fraction(-3)) - 2 * eng.polylog(3, Fraction(3)) + c * z3
    li2 = eng.polylog(2, Fraction(-3)) - 2 * eng.polylog(2, Fraction(3))
    return {
        "L3_combination": l3.val_lower_bound(),
        "Li3_combination": li3.val_lower_bound(),
        "Li2_combination": li2.val_lower_bound(),
    }


_ENGINES = {}


def get_engine(p, policy, max_weight=4):
    key = (p, policy.M, policy.g, max_weight)
    if key not in _ENGINES:
        _ENGINES[key] = PolylogEngine(p, policy, max_weight)
    return _ENGINES[key]
