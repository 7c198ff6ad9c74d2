"""Complex single-valued trilogarithm P_3 and the Kummer-Spence instance.

Double-precision sanity companion to the p-adic appendix identities: real
parts of Li_2 and Li_3 on the real line via series plus the standard
reflection, Landen and inversion reductions, the single-valued combination

    P_3(x) = Re( Li_3(x) - Li_2(x) log|x| + (1/3) log|1-x| log^2|x| ),

and the nine-term Kummer-Spence relation evaluated at (x, y) = (-1, 1/3).
"""

from __future__ import annotations

import math

PI2_6 = math.pi ** 2 / 6


def zeta3():
    """zeta(3) = 1.2020569031595942853997... (OEIS A002117), the nearest double."""
    return 1.2020569031595942


def _series(k, x):
    s = 0.0
    term = x
    m = 1
    while abs(term) > 1e-18 and m < 10 ** 6:
        s += term / m ** k
        m += 1
        term *= x
    return s


def li2_re(x):
    """Re Li_2 on the real line, x not in {1} handled everywhere else."""
    if x == 1.0:
        return PI2_6
    if abs(x) <= 0.5:
        return _series(2, x)
    if 0.5 < x < 1.0:
        return PI2_6 - math.log(x) * math.log(1 - x) - li2_re(1 - x)
    if -1.0 <= x < -0.5:
        return 0.5 * li2_re(x * x) - li2_re(-x)
    if x > 1.0:
        return -li2_re(1 / x) + math.pi ** 2 / 3 - 0.5 * math.log(x) ** 2
    # x < -1
    return -li2_re(1 / x) - PI2_6 - 0.5 * math.log(-x) ** 2


def li3_re(x):
    """Re Li_3 on the real line."""
    if x == 1.0:
        return zeta3()
    if abs(x) <= 0.5:
        return _series(3, x)
    if 0.5 < x < 1.0:
        lx = math.log(x)
        l1x = math.log(1 - x)
        return (zeta3() + lx ** 3 / 6 + PI2_6 * lx - 0.5 * lx ** 2 * l1x
                - li3_re(1 - x) - li3_re(1 - 1 / x))
    if -1.0 <= x < -0.5:
        return 0.25 * li3_re(x * x) - li3_re(-x)
    if x > 1.0:
        lx = math.log(x)
        return li3_re(1 / x) + math.pi ** 2 / 3 * lx - lx ** 3 / 6
    # x < -1
    lmx = math.log(-x)
    return li3_re(1 / x) - PI2_6 * lmx - lmx ** 3 / 6


def complex_P3(x):
    """Single-valued real trilogarithm at a real argument outside {0, 1}.

    Re(Li_3(x) - Li_2(x) log|x| + (1/3) Li_1(x) log^2|x|) with
    Li_1 = -log(1-x); this is the combination invariant under x -> 1/x.
    """
    x = float(x)
    if x in (0.0, 1.0):
        raise ValueError("P_3 undefined at 0 and 1")
    lax = math.log(abs(x))
    la1x = math.log(abs(1 - x))
    return li3_re(x) - li2_re(x) * lax - la1x * lax ** 2 / 3.0


def kummer_spence_check(x=-1.0, y=1.0 / 3.0):
    """|nine-term Kummer-Spence combination - 2 zeta(3)| at (x, y)."""
    args2 = [x, y, x * (1 - y) / (x - 1), y * (1 - x) / (y - 1),
             (1 - x) / (1 - y), x * (1 - y) / (y * (1 - x))]
    args1 = [x * y, x / y, x * (1 - y) ** 2 / (y * (1 - x) ** 2)]
    lhs = 2 * sum(complex_P3(a) for a in args2) - sum(complex_P3(a) for a in args1)
    return abs(lhs - 2 * zeta3())
