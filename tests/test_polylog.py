from fractions import Fraction as F
from math import factorial

import pytest

from ckpolylog.padic import (EXACT, PadicNumber, PrecisionPolicy, PrecisionError,
                             is_prime, iwasawa_log, log_floor, rational_reconstruct,
                             teichmuller)
from ckpolylog.polylog import (BadDiskError, IntSeries, PolylogEngine, get_engine,
                               unsupported_size, _series_eval, _series_multiply,
                               _twisted_kernel)
import ckpolylog.symbols as sy

from oracles import (washington_lp, generalized_bernoulli, bernoulli_list, disk_series,
                     dz_over_z_series, geometric_log_series, integral_reading_every_valuation,
                     teichmuller_values, twisted_horner, twisted_series_by_log,
                     unsupported_size_by_digits)


def test_engine_rejects_small_or_composite_primes():
    with pytest.raises(ValueError):
        PolylogEngine(3, PrecisionPolicy())
    with pytest.raises(ValueError):
        PolylogEngine(2, PrecisionPolicy())
    with pytest.raises(ValueError):
        PolylogEngine(9, PrecisionPolicy())


@pytest.mark.parametrize("p", [5, 7])
def test_twisted_series_against_direct_values(p, policy):
    # t_k has an independent meaning at z = p where both polylog series converge
    eng = get_engine(p, policy)
    series = eng.twisted_series()
    W = 26
    z = PadicNumber.from_rational(p, p, W)
    w = 1 / (z - 1)

    def li_small(k, zz):
        assert not zz.is_zeroish()
        acc = PadicNumber.exact_zero(p)
        power = zz
        m = 1
        while m * zz.val <= W + 6:
            acc = acc + power / F(m) ** k
            m += 1
            power = power * zz
        return acc

    t1 = -iwasawa_log(1 - z) + iwasawa_log(1 - z ** p) / p
    assert (series[0].evaluate(w) - t1).val_lower_bound() >= 20
    t2 = li_small(2, z) - li_small(2, z ** p) / p ** 2
    assert (series[1].evaluate(w) - t2).val_lower_bound() >= 20


@pytest.mark.parametrize("p", [5, 7])
def test_twisted_series_against_log_oracle(p, policy):
    # every coefficient agrees with log(lambda) summed on PadicNumbers
    eng = get_engine(p, policy)
    series = eng.twisted_series()
    ref = twisted_series_by_log(p, eng._gsprec, eng._twist_degree(), eng.max_weight)
    for tk, rk in zip(series, ref):
        assert min(tk.claims) >= eng._gsprec
        assert tk.coeffs[0] == 0
        for n in range(1, len(rk)):
            want = rk[n]
            assert (tk.coefficient(n) - want).val_lower_bound() >= want.abs_precision()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_twisted_series_claim_every_coefficient_alike(p, policy):
    eng = get_engine(p, policy)
    for tk in eng.twisted_series():
        assert len(tk.claims) == len(tk.coeffs) == eng._twist_degree()
        assert tk.claims == [tk.claims[0]] * len(tk.claims)
        assert tk.claims[0] >= eng._gsprec


def test_from_padics_claims_an_exact_zero_exact():
    p = 5
    series = IntSeries.from_padics(p, [PadicNumber.exact_zero(p), PadicNumber.zero_to(p, 6),
                                       PadicNumber.from_rational(p, F(3, 5), 8)])
    # 3/5 = 5^-1 * 3, known to 8 relative digits: absolute precision 7
    assert (series.scale, series.claims) == (-1, [EXACT, 6, 7])
    assert series.coefficient(0).is_exact_zero()
    assert series.coefficient(1) == PadicNumber.zero_to(p, 6)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_twisted_series_precision_is_honest(p, policy):
    # the kernel rerun with 10 more digits agrees to each series' claimed
    # precision, coefficient by coefficient and at a Teichmueller point
    # that is itself known to 10 more digits
    eng = get_engine(p, policy)
    series = eng.twisted_series()
    D, K = eng._twist_degree(), eng.max_weight
    digits = eng._gsprec + 1 + K * log_floor(D - 1, p)
    hi = _twisted_kernel(p, D, K, digits + 10)
    w = 1 / (eng.teichmuller_point(2) - 1)
    prec = eng.workprec + 10
    w_hi = 1 / (PadicNumber(p, 0, teichmuller(2, p, prec), prec) - 1)
    for lo_k, hi_k in zip(series, hi):
        assert hi_k.claims == [A + 10 for A in lo_k.claims]
        for n in range(D):
            diff = lo_k.coefficient(n) - hi_k.coefficient(n)
            assert diff.val_lower_bound() >= lo_k.claims[n]
        a = lo_k.evaluate(w)
        assert (a - hi_k.evaluate(w_hi)).val_lower_bound() >= a.abs_precision()


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_twisted_evaluate_equals_untrimmed_horner(p, policy):
    # the reduced, trimmed Horner gives the full Horner's value and claim at
    # every Teichmueller point and at the vanishing check's point z = 0
    eng = get_engine(p, policy)
    points = [1 / (eng.teichmuller_point(a) - 1) for a in range(2, p)]
    points.append(PadicNumber.from_rational(p, -1, eng._gsprec))
    for tk in eng.twisted_series():
        for w in points:
            assert tk.evaluate(w) == twisted_horner(tk, w)  # value and claim


TWIST_GRID = [(p, M, g, 4) for p in (5, 7, 13, 31) for M, g in ((12, 3), (4, 3), (30, 3))]
TWIST_GRID += [(p, M, g, 6) for p in (5, 7) for M, g in ((12, 3), (4, 3), (30, 3))]


@pytest.mark.parametrize("p, M, g, K", TWIST_GRID)
def test_teichmuller_values_need_only_workprec_plus_four_digits(p, M, g, K):
    # the series built to workprec + 4 digits give every Teichmueller value
    # and claim that series built to workprec + 4 K + 4 digits give; the
    # z = 0 check's margin rests on every t_k being integral
    eng = PolylogEngine(p, PrecisionPolicy(M, g), K)
    assert eng._gsprec == eng.workprec + 4
    wide = PolylogEngine(p, PrecisionPolicy(M, g), K)
    wide._gsprec = wide.workprec + 4 * K + 4
    assert all(tk.min_valuation() >= 0 for tk in eng.twisted_series())
    for a in range(2, p):
        assert eng.values_at_teichmuller(a) == wide.values_at_teichmuller(a)


@pytest.mark.parametrize("M, g, degrees", [(12, 3, (244, 330, 636, 1554)),
                                            (30, 5, (324, 474, 876, 2154))])
def test_twist_degree_pins(M, g, degrees):
    # (p - 1)(W + 4 L + 12) + 24, L the least with p^L >= (p - 1)(W + 14)
    got = tuple(PolylogEngine(p, PrecisionPolicy(M, g))._twist_degree() for p in (5, 7, 13, 31))
    assert got == degrees


def test_twisted_series_tail_guard_fires(policy, monkeypatch):
    # a series cut far too early must fail the tail-decay guard
    eng = PolylogEngine(5, policy)
    monkeypatch.setattr(eng, "_twist_degree", lambda: 4 * (eng.p - 1))
    with pytest.raises(PrecisionError, match="tail valuation"):
        eng.twisted_series()


@pytest.mark.parametrize("p", [5, 7, 13])
def test_twisted_series_vanishing_guard_fires(p, policy):
    # t_2 off by one in its w^1 coefficient moves its value at w = -1 (z = 0)
    # by a unit and leaves the tail alone: the z = 0 guard must catch it
    eng = get_engine(p, policy)
    series = eng.twisted_series()
    eng._check_twisted(series)
    t2 = series[1]
    coeffs = list(t2.coeffs)
    coeffs[1] += p ** -t2.scale
    bad = list(series)
    bad[1] = IntSeries(p, coeffs, t2.scale, t2.claims)
    with pytest.raises(PrecisionError, match="fails vanishing at z=0"):
        eng._check_twisted(bad)


def _untwisted_horner(eng, a, k):
    # (p^k / (p^k - 1)) t_k(theta_a) by the unreduced Horner, at workprec
    p = eng.p
    w = 1 / (eng.teichmuller_point(a) - 1)
    tk = twisted_horner(eng.twisted_series()[k - 1], w)
    return (tk * (p ** k) / (p ** k - 1)).truncate_abs(eng.workprec)


@pytest.mark.parametrize("p", [5, 7])
def test_untwist_at_teichmuller_against_log(p, policy):
    # Li_1(theta) untwisted from the global series t_1 must equal -log(1 - theta)
    eng = get_engine(p, policy)
    for a in range(2, p):
        theta = eng.teichmuller_point(a)
        untwisted = _untwisted_horner(eng, a, 1)
        direct = -iwasawa_log(1 - theta)
        assert (untwisted - direct).val_lower_bound() >= eng.workprec - 2


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_teichmuller_values_equal_direct_horner(p, policy):
    # every value, the disks whose value came from the disk of a^-1 by
    # Li_k(1/theta) = (-1)^(k+1) Li_k(theta) included, and Li_1 by log equal
    # the untwisted Horner at theta_a itself, digits and claim
    eng = PolylogEngine(p, policy)
    for a in range(2, p):
        vals = eng.values_at_teichmuller(a)
        assert sorted(vals) == [2, 3, 4]
        for k, v in vals.items():
            assert v == _untwisted_horner(eng, a, k), (a, k)
        theta = eng.teichmuller_point(a)
        assert -iwasawa_log(1 - theta) == _untwisted_horner(eng, a, 1), (a, 1)


@pytest.mark.parametrize("p", [5, 7])
def test_li1_equals_minus_log(p, policy, rng):
    eng = get_engine(p, policy)
    for _ in range(10):
        a = rng.randrange(2, p)
        z = F(a + p * rng.randrange(0, 50))
        got = eng.polylog(1, z)
        want = -eng.log(1 - z)
        assert (got - want).val_lower_bound() >= policy.M


@pytest.mark.parametrize("p", [5, 7])
def test_disk_series_differential_system(p, policy):
    # dS_k = S_{k-1} dz/z and dS_1 = dz/(1-z), term by term
    eng = get_engine(p, policy)
    for a in range(2, p):
        table = eng.disk_table(a)
        N = eng.local_degree
        apn = PadicNumber.from_rational(p, a, policy.workprec())
        dzz = IntSeries.from_padics(p, dz_over_z_series(eng, apn))
        for k in (2, 3, 4):
            dS = [table["li%d" % k].coefficient(j + 1) * (j + 1) for j in range(N - 1)]
            rhs = _series_multiply(table["li%d" % (k - 1)], dzz, N - 1)
            rhs = [rhs.coefficient(j) for j in range(N - 1)]
            for x, y in zip(dS[:N - 4], rhs[:N - 4]):
                assert (x - y).val_lower_bound() >= policy.M
        # dS_1 = p/(1 - a - p t) series
        dS1 = [table["li1"].coefficient(j + 1) * (j + 1) for j in range(N - 1)]
        one_minus = 1 - apn
        ratio = PadicNumber.from_rational(p, p, policy.workprec()) / one_minus
        power = ratio
        for j in range(N - 4):
            assert (dS1[j] - power).val_lower_bound() >= policy.M
            power = power * ratio


def _assert_dz_over_z_product(eng, series, center, trunc, where):
    # the one-pass recurrence gives the dense product's integers, scale and claims
    dzz = IntSeries.from_padics(eng.p, dz_over_z_series(eng, center))
    got = eng._times_dz_over_z(series, center, trunc)
    want = _series_multiply(series, dzz, trunc)
    assert (got.coeffs, got.scale, got.claims) == \
        (want.coeffs, want.scale, want.claims), where


@pytest.mark.parametrize("p", [5, 7, 13])
def test_dz_over_z_recurrence_equals_dense_product(p, policy):
    # on the engine's tables about a and on the oracle's tables about theta_a
    eng = get_engine(p, policy)
    N = eng.local_degree
    for a in range(2, p):
        theta = eng.teichmuller_point(a)
        apn = PadicNumber.from_rational(p, a, policy.workprec())
        theta_table = disk_series(eng, theta, teichmuller_values(eng, a))
        tables = {"theta": (theta, {name: IntSeries.from_padics(p, series)
                                    for name, series in theta_table.items()}),
                  "integer": (apn, eng.disk_table(a))}
        for kind, (center, table) in tables.items():
            for k in (1, 2, 3):
                _assert_dz_over_z_product(eng, table["li%d" % k], center, N - 1,
                                          (a, kind, k))


def test_dz_over_z_recurrence_on_mixed_claims(policy):
    """Exact zeros, tracked zeros on both sides of workprec, low-claim
    constants, a negative scale, and centers known to fewer digits than
    workprec."""
    p = 5
    eng = get_engine(p, policy)
    W = policy.workprec()
    coeffs = [PadicNumber.from_rational(p, F(7, 3), 40),
              PadicNumber.exact_zero(p),
              PadicNumber.from_rational(p, 50, 12),
              PadicNumber.zero_to(p, 30),
              PadicNumber.exact_zero(p),
              PadicNumber.zero_to(p, 8),
              PadicNumber.from_rational(p, F(-2, 7), 3),
              PadicNumber.from_rational(p, F(1, 125), 26),
              PadicNumber.from_rational(p, 4, W)]
    leading_zeros = [PadicNumber.exact_zero(p)] * 2 + coeffs[2:]
    for values in (coeffs, leading_zeros, [PadicNumber.exact_zero(p)] * 4):
        series = IntSeries.from_padics(p, values)
        for center in (PadicNumber.from_rational(p, 3, W),
                       PadicNumber.from_rational(p, F(-2, 3), 6),
                       PadicNumber.from_rational(p, 4, W + 9),
                       eng.teichmuller_point(2)):
            for trunc in (1, len(values) - 1, len(values)):
                _assert_dz_over_z_product(eng, series, center, trunc,
                                          (len(values), center, trunc))


@pytest.mark.parametrize("p", [5, 7, 13, 31, 101])
def test_disk_base_series_equal_the_geometric_series(p):
    # log and li1, each one integration step about a, in integers, scale and
    # claims, at low, default and high precision and weights 4 and 6
    grid = ([(12, 3, 4)] if p == 101 else
            [(M, 3, K) for M in (12, 20, 30, 4) for K in (4, 6)])
    for M, g, K in grid:
        eng = get_engine(p, PrecisionPolicy(M, g), K)
        for a in range(2, p):
            apn = PadicNumber.from_rational(p, a, eng.workprec)
            table = eng.disk_table(a)
            for name, li1 in (("log", False), ("li1", True)):
                got, want = table[name], geometric_log_series(eng, apn, li1)
                assert (got.coeffs, got.scale, got.claims) == \
                    (want.coeffs, want.scale, want.claims), (M, g, K, a, name)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integral_scale_read_where_p_divides_j(p, rng):
    """The scale of an integral, read only at the divisions by j with p | j,
    equals the one read off every coefficient.  An exact zero, a tracked
    zero and a unit sit at indices p - 1 and 2p - 1 (j = p, 2p), among
    random coefficients of mixed claims, at scales 0, 2 and -3; at p = 3
    the series also reaches j = 9 = p^2."""
    n = 2 * p + 4
    # (integer, claim - scale) of the three kinds
    kinds = {"exact": (0, EXACT), "tracked": (0, 0), "unit": (p + 1, 6)}
    drops = set()
    for s in (0, 2, -3):
        for first, second in ((x, y) for x in kinds for y in kinds):
            for _ in range(3):
                coeffs, claims = [], []
                for i in range(n):
                    if i in (p - 1, 2 * p - 1):
                        u, rel = kinds[first if i == p - 1 else second]
                    else:
                        u, rel = rng.choice([(0, EXACT), (0, rng.randrange(9)),
                                             (rng.randrange(1, p ** 8), rng.randrange(1, 9))])
                    coeffs.append(u if rel == EXACT else u % p ** rel)
                    claims.append(s + rel)
                got = IntSeries(p, coeffs, s, claims).integral()
                want = integral_reading_every_valuation(IntSeries(p, coeffs, s, claims))
                assert (got.coeffs, got.scale, got.claims) == \
                    (want.coeffs, want.scale, want.claims), (s, coeffs, claims)
                drops.add(s - want.scale)
    assert {0, 1} <= drops


@pytest.mark.parametrize("p", [5, 7])
def test_distribution_relation_50_random_points(p, policy, rng):
    eng = get_engine(p, policy)
    thr = policy.M - policy.g
    for k in (1, 2, 3, 4):
        checked = 0
        while checked < 50:
            a = rng.randrange(2, p - 1)  # a and a^2 both avoid 0, 1 mod p
            if (a * a) % p in (0, 1):
                continue
            z = PadicNumber.from_rational(
                p, a + p * rng.randrange(0, p ** 6), policy.workprec())
            lhs = F(2) ** (1 - k) * eng.polylog(k, z * z)
            rhs = eng.polylog(k, z) + eng.polylog(k, -z)
            assert (lhs - rhs).val_lower_bound() >= thr
            checked += 1


@pytest.mark.parametrize("p", [5, 7])
def test_dilog_reflection_identity(p, policy, rng):
    eng = get_engine(p, policy)
    for _ in range(10):
        a = rng.randrange(2, p)
        z = F(a + p * rng.randrange(0, 100))
        resid = (eng.polylog(2, z) + eng.polylog(2, 1 - z)
                 + eng.log(z) * eng.log(1 - z))
        assert resid.val_lower_bound() >= policy.M


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31])
def test_coleman_inversion_on_every_good_disk(p, policy):
    # log(1/z) = -log z and, with log p = 0 and zeta_p(even) = 0,
    # Li_k(1/z) = (-1)^(k-1) Li_k(z) - (-1)^k log(z)^k / k! (Coleman 1982):
    # at the Teichmueller point and at integers and small fractions of each disk
    eng = get_engine(p, policy)
    for a in range(2, p):
        points = [eng.teichmuller_point(a)]
        for d in (1, 2, 3):
            n = a * d % p
            points += [F(n, d), F(n + p, d), F(n - p, d)]
        for z in points:
            lg = eng.log(z)
            assert (eng.log(1 / z) + lg).val_lower_bound() >= policy.equality_threshold, z
            for k in range(1, 5):
                want = (-1) ** (k - 1) * eng.polylog(k, z) - (-1) ** k * lg ** k / factorial(k)
                assert ((eng.polylog(k, 1 / z) - want).val_lower_bound()
                        >= policy.equality_threshold), (z, k)


@pytest.mark.parametrize("p", [5, 7])
def test_even_polylogs_vanish_at_minus_one(p, policy):
    eng = get_engine(p, policy)
    for k in (2, 4):
        assert eng.polylog(k, F(-1)).val_lower_bound() >= policy.M - policy.g


def test_polylog_off_the_unit_disks_raises(eng5):
    # an S'-point z has z and 1 - z S'-units, so at p not in S' it lies on a
    # unit disk; p | z and p | 1/z are outside the domain
    for k in (1, 2, 3, 4):
        for z in (F(5), F(1, 5)):
            with pytest.raises(BadDiskError):
                eng5.polylog(k, z)


def test_zeta_values(eng5, policy):
    assert eng5.zeta(2).is_exact_zero()
    assert eng5.zeta(4).is_exact_zero()
    z3 = eng5.zeta(3)
    li3 = eng5.polylog(3, F(-1))
    assert (z3 * (F(2) ** (-2) - 1) - li3).val_lower_bound() >= 20
    with pytest.raises(PrecisionError, match=r"^zeta_5\(2\) is 0: 2 is even$"):
        eng5.zeta_nonzero(2)
    assert eng5.zeta_nonzero(3) is z3


def test_zeta_guard_names_the_valuation_and_the_threshold():
    # zeta_7(9) is nonzero, to 14 relative digits, but its valuation 9 reaches M - g = 9
    eng = get_engine(7, PrecisionPolicy(), max_weight=9)
    assert (eng.zeta(9).val, eng.zeta(9).rel) == (9, 14)  # rel 14: not a zero
    with pytest.raises(PrecisionError) as err:
        eng.zeta_nonzero(9)
    assert str(err.value) == "zeta_7(9) has valuation 9, at or above the threshold M - g = 9"


@pytest.mark.parametrize("p", [5, 7])
def test_zeta_against_washington_oracle(p, policy):
    """zeta_p(3) carries the Euler factor: (1 - p^{-3}) zeta_p(3) = L_p(3, w^{-2})."""
    eng = get_engine(p, policy)
    z3 = eng.zeta(3)
    assert not z3.is_zeroish() and z3.val == 3  # val = k, from the (1 - p^{-k}) factor
    L = washington_lp(p, 3, (1 - 3) % (p - 1))
    assert not L.is_zeroish() and L.val == 0
    bridged = L / (1 - F(1, p ** 3))
    assert (z3 - bridged).val_lower_bound() >= 8 + 3  # >= precision p^8 rel


def test_washington_interpolation_property():
    # L_p(1-n, chi) = -(1 - chi_n(p) p^{n-1}) B_{n, chi_n}/n with chi_n = chi w^{-n}
    # chi = w^2 at p = 5, n = 2: chi_2 trivial, so the value is -(1-p) B_2/2 = 1/3
    v = washington_lp(5, -1, 2)
    assert rational_reconstruct(v.truncate_abs(10), 10 ** 3, 10 ** 3) == F(1, 3)
    v = washington_lp(7, -1, 2)
    assert rational_reconstruct(v.truncate_abs(10), 10 ** 3, 10 ** 3) == F(1, 2)
    # nontrivial twist: chi = w^4 at p = 7, n = 2: chi_2 = w^2, value -B_{2,w^2}/2
    v = washington_lp(7, -1, 4)
    b = generalized_bernoulli(7, 2, 2)
    assert (v + b / 2).val_lower_bound() >= 12


def test_bernoulli_oracle_sanity():
    B = bernoulli_list(12)
    assert B[1] == F(-1, 2) and B[2] == F(1, 6) and B[12] == F(-691, 2730)


@pytest.mark.parametrize("p", [5, 7])
def test_cross_prime_w2_recognition(p, policy):
    eng = get_engine(p, policy)
    ratio = (eng.polylog(3, F(9)) - 12 * eng.polylog(3, F(3))) / eng.zeta_nonzero(3)
    q = rational_reconstruct(ratio.truncate_abs(policy.M - policy.g + 4),
                             10 ** 4, 10 ** 3)
    assert q == F(-26, 3)


def _assert_resampling_sound(p, M, K, g):
    hi = get_engine(p, PrecisionPolicy(M + 5, g), K)
    lo = get_engine(p, PrecisionPolicy(M, g), K)
    samples = [(2, F(3)), (3, F(9)), (4, F(1, 2)), (2, F(-3)), (3, F(-1))]
    samples += [(k, z) for k in range(5, K + 1) for z in (F(-1), F(3), F(1, 2))]
    for k, z in samples:
        a = lo.polylog(k, z)
        b = hi.polylog(k, z)
        assert (a - b).val_lower_bound() >= a.abs_precision(), (M, k, z)
    assert (lo.zeta(3) - hi.zeta(3)).val_lower_bound() >= lo.zeta(3).abs_precision()
    la, lb = lo.log(F(2)), hi.log(F(2))
    assert (la - lb).val_lower_bound() >= la.abs_precision()


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_precision_soundness_resampling(p, policy):
    """Recomputing at M+5 agrees with the M-precision run to every digit it
    claims."""
    for M in (12, 30):
        _assert_resampling_sound(p, M, 4, policy.g)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("M", [12, 20])
def test_precision_soundness_resampling_weight6(p, M, policy):
    # weight 6 loses the most digits to the nested integrals' divisions
    _assert_resampling_sound(p, M, 6, policy.g)


def _monomials(names, weight):
    """Monomials (name lists) of positive Li-weight <= weight in the names,
    each name with its weight."""
    out = []
    for i, (name, k) in enumerate(names):
        if k <= weight:
            out.append([name])
            out += [[name] + m for m in _monomials(names[i:], weight - k)]
    return out


@pytest.mark.parametrize("p, M, K", [(5, 12, 6), (7, 20, 6), (5, 30, 4)])
def test_local_degree_drops_only_digits_past_workprec(p, M, K):
    # the disk series rebuilt 24 coefficients longer: every coefficient the
    # truncation drops, of a table series or of any product of Li-weight
    # <= K, has valuation >= workprec
    eng = PolylogEngine(p, PrecisionPolicy(M, 3), K)
    N, W = eng.local_degree, eng.workprec
    assert N >= W + 4
    eng.local_degree = N + 24
    names = [("log", 1)] + [("li%d" % k, k) for k in range(1, K + 1)]
    for a in range(2, p):
        table = eng.disk_table(a)
        for mono in _monomials(names, K):
            series = table[mono[0]]
            for name in mono[1:]:
                series = _series_multiply(series, table[name], N + 24)
            assert min(series.valuations()[N:]) >= W, (a, mono)


def test_local_degree_at_the_default_policy():
    # default policy, weight 4: N = workprec + 4 at every prime
    for p in (5, 7, 13, 31, 101):
        eng = PolylogEngine(p, PrecisionPolicy())
        assert eng.local_degree == eng.workprec + 4 == 27
    assert PolylogEngine(5, PrecisionPolicy(), max_weight=6).local_degree == 29


def test_period_map_is_ring_homomorphism(eng5, policy, rng):
    exprs = [sy.li_u(2, F(-2)), sy.log_u(2) + sy.zeta_u(3).scale(F(1, 2)),
             sy.li_u(3, F(3)) - sy.log_u(3) ** 2 * sy.log_u(2)]
    for _ in range(6):
        a = rng.choice(exprs)
        b = rng.choice(exprs)
        lhs = eng5.period(a * b)
        rhs = eng5.period(a) * eng5.period(b)
        assert (lhs - rhs).val_lower_bound() >= policy.M


def test_period_map_examples(eng5, policy):
    assert eng5.period(sy.log_u(-1)).is_exact_zero()
    combo = (sy.li_u(3, F(1, 2)) - (sy.log_u(2) ** 3).scale(F(1, 6))
             - sy.zeta_u(3).scale(F(7, 8)))
    assert eng5.period(combo).val_lower_bound() >= policy.M


@pytest.mark.parametrize("p", [5, 7])
def test_z_half_identity(p, policy):
    eng = get_engine(p, policy)
    resid = (eng.polylog(3, F(1, 2)) - eng.log(F(2)) ** 3 / 6
             - F(7, 8) * eng.zeta(3))
    assert resid.val_lower_bound() >= policy.M - policy.g


@pytest.mark.parametrize("p", [5, 7])
def test_appendix_padic_suite(p, policy):
    from ckpolylog.polylog import padic_L3_check
    res = padic_L3_check(p, policy)
    for key, val in res.items():
        assert val >= policy.M - policy.g, (key, val)


def test_bad_disk_and_domain_errors(eng5):
    with pytest.raises(BadDiskError):
        eng5.polylog(2, F(6))      # 6 = 1 mod 5
    with pytest.raises(BadDiskError):
        eng5.polylog(3, F(1, 6))   # reduces to disk of 1
    with pytest.raises(ValueError):
        eng5.polylog(2, F(1))
    assert eng5.polylog(2, F(0)).is_exact_zero()
    with pytest.raises(ValueError):
        eng5.polylog(5, F(3))      # beyond built weight range


def test_local_table_off_center_evaluation(eng5):
    # series S_{k,a}(t) = Li_k(a + p t): spot check off-center points
    table = eng5.disk_table(3)
    t = PadicNumber.from_rational(5, 2, eng5.workprec)
    val = _series_eval(table["li2"], t)
    direct = eng5.polylog(2, F(13))
    assert (val - direct).val_lower_bound() >= eng5.policy.M


def test_engine_generalizes_to_larger_primes(policy):
    eng = get_engine(11, policy)
    resid = (eng.polylog(3, F(1, 2)) - eng.log(F(2)) ** 3 / 6
             - F(7, 8) * eng.zeta(3))
    assert resid.val_lower_bound() >= policy.M - policy.g
    d = (F(2) ** (1 - 4) * eng.polylog(4, F(9))
         - eng.polylog(4, F(3)) - eng.polylog(4, F(-3)))
    assert d.val_lower_bound() >= policy.M - policy.g


# the largest --n that verify counterexample admits at (p, --prec); at
# --prec 407, the largest p = 7 admits, the weight-4 part fills the budget
LARGEST_ADMITTED_N = {(5, 12): 474, (7, 12): 497, (31, 12): 174, (101, 12): 109,
                      (601, 12): 6, (7, 407): 4}


@pytest.mark.parametrize("p, M", sorted(LARGEST_ADMITTED_N))
def test_largest_admitted_counterexample_weight(p, M):
    policy, n = PrecisionPolicy(M, 3), LARGEST_ADMITTED_N[p, M]
    assert unsupported_size(p, policy, n) is None
    assert unsupported_size(p, policy, n + 1) is not None


# the largest --prec each p admits at weight 4 (every locus), and the
# largest p at the default --prec
LARGEST_ADMITTED_PREC = {5: 470, 7: 407, 13: 317, 31: 222}
LARGEST_ADMITTED_P = 613


def test_size_rule_at_weight_four_counts_the_twisted_series_alone():
    primes = [p for p in range(5, 701) if is_prime(p)]
    cases = [(p, PrecisionPolicy()) for p in primes]
    cases += [(p, PrecisionPolicy(M, 3)) for p, top in LARGEST_ADMITTED_PREC.items()
              for M in range(4, top + 50)]
    for p, policy in cases:
        refused = unsupported_size(p, policy, 4) is not None
        assert refused == unsupported_size_by_digits(p, policy, 4), (p, policy)
    assert max(p for p in primes
               if unsupported_size(p, PrecisionPolicy(), 4) is None) == LARGEST_ADMITTED_P
    for p, top in LARGEST_ADMITTED_PREC.items():
        assert unsupported_size(p, PrecisionPolicy(top, 3), 4) is None
        assert unsupported_size(p, PrecisionPolicy(top + 1, 3), 4) is not None
