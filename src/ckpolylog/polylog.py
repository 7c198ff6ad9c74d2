"""p-adic polylogarithms on residue disks, p-adic zeta values, period map.

Strategy.  The Frobenius-twisted functions

    t_k(z) = Li_k(z) - p^{-k} Li_k(z^p)

satisfy t_1 = (1/p) log((w+1)^p - w^p) in the coordinate w = 1/(z-1) and
d t_k = t_{k-1} dz/z, and each t_k is a power series in w without constant
term whose coefficients tend to zero; the series converges on every good
residue disk.  At a Teichmueller point theta (theta^p = theta) the twist
untwists exactly: t_k(theta) = (1 - p^{-k}) Li_k(theta).  Values elsewhere
in a disk come from the differential system integrated as a power series
in t, z = center + p t, with integration constants at the center.

Everything is verified downstream by the distribution relation, the
dilogarithm reflection identity and cross-prime rational reconstruction.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from .padic import (PadicNumber, PrecisionPolicy, PrecisionError, is_prime, iwasawa_log,
                    log_floor, teichmuller)
from .symbols import Expression

CACHE_ENV = "CKPOLYLOG_CACHE"


class BadDiskError(ValueError):
    """Argument reduces into a residue disk where Li_k is not defined."""


def _series_eval(coeffs, x):
    """Horner evaluation of sum coeffs[i] * x^i."""
    acc = PadicNumber.exact_zero(x.p)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _series_multiply(a, b, trunc, p):
    out = [PadicNumber.exact_zero(p) for _ in range(trunc)]
    for i, ca in enumerate(a):
        if i >= trunc or ca.is_exact_zero():
            continue
        for j, cb in enumerate(b):
            if i + j >= trunc:
                break
            out[i + j] = out[i + j] + ca * cb
    return out


class PolylogEngine:
    """All p-adic polylogarithm numerics for one prime and one policy."""

    def __init__(self, p, policy=None, max_weight=4):
        if p in (2, 3):
            raise ValueError("numerics are restricted to p >= 5")
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.policy = policy or PrecisionPolicy()
        self.max_weight = max_weight
        self.workprec = self.policy.workprec()
        # global twisted series need headroom: one digit for the 1/p in t_1
        # plus up to ceil(log_p D) per integration step in the prefix sums
        self._gsprec = self.workprec + 4 * max_weight + 4
        self._twisted = None
        self._teich_values = {}
        self._disk_tables = {}
        self._zeta_cache = {}
        self.local_degree = self.workprec + 4

    # -- Frobenius-twisted global series ----------------------------------

    def _twist_degree(self):
        p, W = self.p, self._gsprec
        logterm = 1
        while p ** logterm < (p - 1) * (W + 14):
            logterm += 1
        return (p - 1) * (W + 4 * logterm + 12) + 24

    def _cache_path(self):
        root = os.environ.get(CACHE_ENV)
        if not root:
            return None
        return os.path.join(root, "twist_p%d_M%d_N%d.json"
                            % (self.p, self._gsprec, self._twist_degree()))

    def _cache_load(self):
        path = self._cache_path()
        if not path or not os.path.exists(path):
            return None
        with open(path) as fh:
            data = json.load(fh)
        if data.get("maxWeight", 0) < self.max_weight:
            return None
        out = []
        for row in data["series"][:self.max_weight]:
            out.append([PadicNumber.exact_zero(self.p) if v is None
                        else PadicNumber(self.p, v[0], v[1], v[2]) for v in row])
        return out

    def _cache_store(self, series):
        path = self._cache_path()
        if not path:
            return
        rows = []
        for coeffs in series:
            rows.append([None if c.is_exact_zero() else [c.val, c.unit, c.rel]
                         for c in coeffs])
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"p": self.p, "M": self._gsprec, "maxWeight": self.max_weight,
                       "series": rows}, fh)
        os.replace(tmp, path)

    def twisted_series(self):
        """Coefficients (index = degree in w) of t_1..t_max_weight."""
        if self._twisted is not None:
            return self._twisted
        cached = self._cache_load()
        if cached is not None:
            self._twisted = cached
            return cached
        p, W = self.p, self._gsprec
        D = self._twist_degree()
        one = lambda q: PadicNumber.from_rational(p, q, W)
        zero = PadicNumber.exact_zero(p)
        # lambda(w) - 1 = sum_{j=1}^{p-1} C(p, j) w^j, all coefficients in pZ
        lam1 = [zero] + [one(math.comb(p, j)) for j in range(1, p)]
        # log(lambda) = sum (-1)^{m+1} (lambda - 1)^m / m
        loglam = [zero for _ in range(D)]
        power = lam1[:]
        m = 1
        while m <= W + 4:
            for i, c in enumerate(power):
                if i >= D:
                    break
                if c.is_exact_zero():
                    continue
                contrib = c / m
                if m % 2 == 0:
                    contrib = -contrib
                loglam[i] = loglam[i] + contrib
            m += 1
            power = _series_multiply(power, lam1, min(D, len(power) + p), p)
        t1 = [c / p for c in loglam]
        series = [t1]
        for _ in range(2, self.max_weight + 1):
            prev = series[-1]
            # t_{k+1} = -int t_k(u) du / (u (u+1)); gamma_n = -s_n / n with
            # s_n = beta_n - s_{n-1} the alternating prefix sums
            gam = [zero for _ in range(D)]
            s = PadicNumber.exact_zero(p)
            for n in range(1, D):
                s = prev[n] - s
                gam[n] = -(s / n)
            series.append(gam)
        self._check_twisted(series)
        self._twisted = series
        self._cache_store(series)
        return series

    def _check_twisted(self, series):
        """Internal truncation guards: tail decay and vanishing at z = 0."""
        p = self.p
        minus_one = PadicNumber.from_rational(p, -1, self._gsprec)
        # margin absorbs the non-monotone log_p dips just past the cutoff
        need = self.workprec + 3
        for k, coeffs in enumerate(series, start=1):
            tail = min(c.val_lower_bound() for c in coeffs[-2 * (p - 1):])
            if tail < need:
                raise PrecisionError(
                    "twisted series t_%d tail valuation %d < %d; raise degree"
                    % (k, tail, need))
            at0 = _series_eval(coeffs, minus_one)
            if at0.val_lower_bound() < need - 2:
                raise PrecisionError(
                    "twisted series t_%d fails vanishing at z=0 (val %d)"
                    % (k, at0.val_lower_bound()))

    # -- values at Teichmueller points --------------------------------------

    def teichmuller_point(self, a):
        t = teichmuller(a, self.p, self.workprec)
        return PadicNumber(self.p, 0, t, self.workprec)

    def values_at_teichmuller(self, a):
        """Li_k(theta_a) for k = 1..max_weight (theta_a != 1 required)."""
        a = a % self.p
        if a in (0, 1):
            raise BadDiskError("no Teichmueller polylog values over disk %d" % a)
        if a in self._teich_values:
            return self._teich_values[a]
        p = self.p
        theta = self.teichmuller_point(a)
        w = 1 / (theta - 1)
        series = self.twisted_series()
        vals = {}
        for k in range(1, self.max_weight + 1):
            tk = _series_eval(series[k - 1], w)
            # t_k(theta) = (1 - p^{-k}) Li_k(theta); clamp the claimed
            # precision at workprec so series truncation stays inside it
            vals[k] = (tk * (p ** k) / (p ** k - 1)).truncate_abs(self.workprec)
        self._teich_values[a] = vals
        return vals

    # -- residue-disk power series -----------------------------------------

    def _log_series_at(self, center):
        """log(center + p t) as a power series in t."""
        p = self.p
        N = self.local_degree
        out = [iwasawa_log(center)]
        ratio = PadicNumber.from_rational(p, p, self.workprec) / center
        power = ratio
        for l in range(1, N):
            c = power / l
            if l % 2 == 0:
                c = -c
            out.append(c)
            power = power * ratio
        return out

    def _li1_series_at(self, center):
        """-log(1 - center - p t) as a power series in t."""
        p = self.p
        N = self.local_degree
        one_minus = 1 - center
        out = [-iwasawa_log(one_minus)]
        ratio = PadicNumber.from_rational(p, p, self.workprec) / one_minus
        power = ratio
        for l in range(1, N):
            out.append(power / l)
            power = power * ratio
        return out

    def _dz_over_z_series(self, center):
        """p/(center + p t) as a power series in t (the factor in dLi_k)."""
        p = self.p
        N = self.local_degree
        inv = 1 / center
        pfac = PadicNumber.from_rational(p, p, self.workprec)
        out = []
        power = pfac * inv
        for l in range(N):
            out.append(power if l % 2 == 0 else -power)
            power = power * pfac * inv
        return out

    def _disk_series(self, center, values_at_center):
        """Series of log, Li_1..Li_n about a center with known initial values."""
        p = self.p
        N = self.local_degree
        table = {"log": self._log_series_at(center)}
        li = self._li1_series_at(center)
        li[0] = values_at_center[1]
        table["li1"] = li
        dzz = self._dz_over_z_series(center)
        prev = li
        for k in range(2, self.max_weight + 1):
            integrand = _series_multiply(prev, dzz, N, p)
            cur = [values_at_center[k]]
            for j in range(1, N):
                cur.append(integrand[j - 1] / j)
            table["li%d" % k] = cur
            prev = cur
        return table

    def disk_table(self, a):
        """Local series on the disk of a (2 <= a <= p-1), centered at a itself."""
        a = a % self.p
        if a in (0, 1):
            raise BadDiskError("disk %d mod %d is a bad disk" % (a, self.p))
        if a in self._disk_tables:
            return self._disk_tables[a]
        theta = self.teichmuller_point(a)
        tvals = self.values_at_teichmuller(a)
        theta_table = self._disk_series(theta, tvals)
        # move the expansion center from theta to the integer a
        a_pn = PadicNumber.from_rational(self.p, a, self.workprec)
        shift = (a_pn - theta) / self.p
        center_vals = {k: _series_eval(theta_table["li%d" % k], shift)
                       for k in range(1, self.max_weight + 1)}
        table = self._disk_series(a_pn, center_vals)
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
        z = self._as_padic(z)
        if z.unit == 0:
            raise ValueError("log of zero")
        return iwasawa_log(z)

    def polylog(self, k, z):
        """Li_k(z) for z in Z_p off the disks of 0 and 1, or val(z) != 0."""
        if not 1 <= k <= self.max_weight:
            raise ValueError("weight %d outside the built range 1..%d"
                             % (k, self.max_weight))
        z = self._as_padic(z)
        if z.unit == 0:
            if z.is_exact_zero():
                return PadicNumber.exact_zero(self.p)
            raise BadDiskError("argument is zero to working precision")
        v = z.valuation()
        if v >= 1:
            return self._polylog_small(k, z)
        if v < 0:
            return self._polylog_inverted(k, z)
        a = z.unit % self.p
        if a == 1:
            raise BadDiskError("disk of 1 (z = %r) is outside the domain" % z)
        if k == 1:
            return -iwasawa_log(1 - z)
        table = self.disk_table(a)
        t = (z - a) / self.p
        return _series_eval(table["li%d" % k], t)

    def _polylog_small(self, k, z):
        # convergent region: Li_k(z) = sum z^m / m^k
        W = self.workprec
        acc = PadicNumber.exact_zero(self.p)
        power = z
        m = 1
        while m * z.valuation() <= W + k * (log_floor(m, self.p) + 1) + 1:
            acc = acc + power / Fraction(m) ** k
            m += 1
            power = power * z
        return acc.truncate_abs(W)

    def _polylog_inverted(self, k, z):
        # Li_k(z) = (-1)^{k+1} Li_k(1/z) - log(z)^k / k!
        inner = self.polylog(k, 1 / z)
        if k % 2 == 0:
            inner = -inner
        return inner - iwasawa_log(z) ** k / math.factorial(k)

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
        """zeta_p(k) with the irregular-zero guard for divisions."""
        z = self.zeta(k)
        if k % 2 == 0 or z.val_lower_bound() >= self.policy.equality_threshold:
            raise PrecisionError(
                "zeta_%d(%d) vanishes to working precision: possible irregular-zero"
                % (self.p, k))
        return z

    # -- period map -----------------------------------------------------------

    def period(self, expr):
        """Ring homomorphism sending motivic symbols to their Coleman values."""
        if not isinstance(expr, Expression):
            raise TypeError("period map wants a motivic Expression")
        acc = PadicNumber.exact_zero(self.p)
        for mono, coeff in expr.terms.items():
            val = PadicNumber.from_rational(self.p, coeff, self.workprec)
            for s in mono:
                val = val * self._period_symbol(s)
            acc = acc + val
        return acc

    def _period_symbol(self, s):
        if s.kind == "log":
            return self.log(s.z)
        if s.kind == "zeta":
            return self.zeta(s.n)
        return self.polylog(s.n, s.z)

    # -- appendix check ---------------------------------------------------------

    def single_valued_l3(self, z):
        """L_3(z) = Li_3(z) - Li_2(z) log(z) + (1/2) Li_1(z) log(z)^2."""
        lg = self.log(z)
        return (self.polylog(3, z) - self.polylog(2, z) * lg
                + self.polylog(1, z) * lg * lg / 2)


def padic_log(z, p, policy=None):
    """Iwasawa-branch logarithm of a nonzero rational or p-adic number."""
    return get_engine(p, policy).log(z)


def padic_polylog(k, z, p, policy=None):
    return get_engine(p, policy).polylog(k, z)


def padic_zeta(k, p, policy=None):
    return get_engine(p, policy).zeta(k)


def local_polylog_table(p, a, policy=None):
    """Residue-disk series of log, Li_1..Li_n about the integer a (z = a + p t)."""
    return get_engine(p, policy).disk_table(a)


def period_map(expr, p, policy=None):
    return get_engine(p, policy).period(expr)


def padic_L3_check(p, policy=None):
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


def get_engine(p, policy=None, max_weight=4):
    policy = policy or PrecisionPolicy()
    key = (p, policy.M, policy.g, max_weight)
    if key not in _ENGINES:
        _ENGINES[key] = PolylogEngine(p, policy, max_weight)
    return _ENGINES[key]
