"""Independent numerical oracles used only by the test suite.

A Washington-style partial-sum p-adic L-function, checkable exactly
against its interpolation property at negative integers, serves as the
cross-validation for the engine's zeta values.  The Frobenius-twisted
series summed as log(lambda) = sum (-1)^{m+1} (lambda - 1)^m / m on
PadicNumbers cross-checks the engine's integer log-derivative kernel.
"""

import math
from fractions import Fraction as F

from ckpolylog.padic import PadicNumber, log_floor, teichmuller
from ckpolylog.polylog import _series_multiply


def bernoulli_list(n):
    B = [F(1)]
    for m in range(1, n + 1):
        s = sum(F(math.comb(m + 1, j)) * B[j] for j in range(m))
        B.append(-s / (m + 1))
    return B


def binom_int(n, j):
    out = F(1)
    for i in range(j):
        out *= F(n - i, i + 1)
    return out


def washington_lp(p, s, e, prec=20):
    """L_p(s, omega^e) by the F = p partial-sum formula."""
    B = bernoulli_list(prec + 8)
    total = PadicNumber.exact_zero(p)
    for a in range(1, p):
        w = PadicNumber(p, 0, teichmuller(a, p, prec + 6), prec + 6)
        chi = w ** (e % (p - 1))
        mean = PadicNumber.from_rational(p, a, prec + 6) / w
        inner = PadicNumber.exact_zero(p)
        for j in range(prec + 6):
            c = binom_int(1 - s, j) * B[j] * F(p, a) ** j
            if c:
                inner = inner + PadicNumber.from_rational(p, c, prec + 6)
        total = total + chi * mean ** (1 - s) * inner
    return total / (p * (s - 1))


def generalized_bernoulli(p, n, e, prec=20):
    """B_{n, omega^e} for the mod-p character omega^e (nontrivial)."""
    B = bernoulli_list(n + 1)
    total = PadicNumber.exact_zero(p)
    for a in range(1, p):
        w = PadicNumber(p, 0, teichmuller(a, p, prec), prec)
        chi = w ** (e % (p - 1))
        # f^{n-1} B_n(a/f) with f = p
        poly = sum(F(math.comb(n, i)) * B[i] * F(a, p) ** (n - i) for i in range(n + 1))
        total = total + chi * PadicNumber.from_rational(p, poly * p ** (n - 1), prec)
    return total


def twisted_series_by_log(p, W, D, K):
    """t_1..t_K below w^D as PadicNumber lists, log(lambda) summed directly.

    The sum stops at m = W + 4.  Every omitted term (lambda - 1)^m / m has
    valuation >= m - log_p(m), so log(lambda) is truncated there and each
    entry's claimed precision is honest.
    """
    one = lambda q: PadicNumber.from_rational(p, q, W)
    zero = PadicNumber.exact_zero(p)
    # lambda(w) - 1 = sum_{j=1}^{p-1} C(p, j) w^j, all coefficients in pZ
    lam1 = [zero] + [one(math.comb(p, j)) for j in range(1, p)]
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
    # adding O(p^omitted) caps every entry there, whatever its valuation
    omitted = PadicNumber.zero_to(p, m - log_floor(m, p))
    series = [[(c + omitted) / p for c in loglam]]
    for _ in range(2, K + 1):
        prev = series[-1]
        # t_{k+1} = -int t_k(u) du / (u (u+1)); gamma_n = -s_n / n with
        # s_n = beta_n - s_{n-1} the alternating prefix sums
        gam = [zero for _ in range(D)]
        s = PadicNumber.exact_zero(p)
        for n in range(1, D):
            s = prev[n] - s
            gam[n] = -(s / n)
        series.append(gam)
    return series
