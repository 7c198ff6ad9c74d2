from fractions import Fraction as F

import pytest

from ckpolylog.padic import (
    EXACT, PadicNumber, PrecisionPolicy, iwasawa_log, padic_agree,
    rational_reconstruct, teichmuller, valuation,
)
from oracles import iwasawa_log_by_padic_loop, teichmuller_by_iteration


def test_from_rational_and_lift():
    x = PadicNumber.from_rational(5, F(7, 8), 10)
    assert (x.lift() * 8 - 7) % 5 ** 10 == 0
    y = PadicNumber.from_rational(5, 50, 6)
    assert y.val == 2 and y.unit == 2


def test_arithmetic_precision_semantics():
    p = 5
    a = PadicNumber.from_rational(p, 2, 8)
    b = PadicNumber.from_rational(p, 3, 4)
    assert (a + b).abs_precision() == 4
    assert (a * b).rel == 4
    c = PadicNumber(p, 2, 3, 6)
    d = PadicNumber(p, -1, 2, 6)
    prod, quot = c * d, c / d
    assert not prod.is_zeroish() and prod.val == 1
    assert not quot.is_zeroish() and quot.val == 3
    # subtraction to zero leaves a tracked zero at the joint precision
    z = a - PadicNumber.from_rational(p, 2, 8)
    assert z.unit == 0 and z.val_lower_bound() == 8
    # powers take exponents k >= 0; a negative one is refused, not looped on
    cube = c ** 3
    assert not cube.is_zeroish() and cube.val == 6 and (c ** 0).lift() == 1
    with pytest.raises(ValueError, match="negative exponent"):
        c ** -2


@pytest.mark.parametrize("x", [PadicNumber.from_rational(5, F(7, 8), 10),
                               PadicNumber.zero_to(5, 6), PadicNumber.exact_zero(5)],
                         ids=["unit", "tracked-zero", "exact-zero"])
def test_adding_zero_and_multiplying_by_one_keep_the_value(x):
    assert x + 0 == x and 0 + x == x
    assert x * 1 == x and 1 * x == x


def test_reflected_operators_refuse_what_they_cannot_coerce():
    x = PadicNumber.from_rational(5, F(7, 8), 10)
    # a float is neither coerced nor recursed on: Python names the operator
    with pytest.raises(TypeError, match=r"for /: 'float' and 'PadicNumber'"):
        2.0 / x
    with pytest.raises(TypeError, match=r"for -: 'float' and 'PadicNumber'"):
        2.0 - x
    assert 3 / x == PadicNumber.from_rational(5, F(24, 7), 10)
    assert 3 - x == PadicNumber.from_rational(5, F(17, 8), 10)


def test_truncate_abs_never_claims_beyond_its_bound():
    # a nonzero value of valuation >= A truncates to O(p^A), not O(p^val)
    x = PadicNumber(7, 50, 2, 10).truncate_abs(47)
    assert x.is_zeroish() and not x.is_exact_zero()
    assert x.abs_precision() == 47
    y = PadicNumber(7, 47, 2, 10).truncate_abs(47)
    assert y.is_zeroish() and y.abs_precision() == 47
    z = PadicNumber(7, 45, 2 + 3 * 7, 10).truncate_abs(47)
    assert z.val == 45 and z.abs_precision() == 47 and z.unit == 23


def test_tracked_zero_propagation():
    p = 5
    z = PadicNumber.zero_to(p, 8)
    assert (z * 25).val_lower_bound() == 10
    assert (z + PadicNumber.from_rational(p, 1, 20)).abs_precision() == 8
    with pytest.raises(ZeroDivisionError):
        1 / z


def test_exact_zero_has_valuation_and_claim_exact():
    p = 5
    zero = PadicNumber.exact_zero(p)
    assert zero.is_exact_zero()
    assert zero.val_lower_bound() == zero.abs_precision() == EXACT
    # truncating claims only the bound: the tracked zero O(p^5)
    tracked = zero.truncate_abs(5)
    assert tracked == PadicNumber.zero_to(p, 5) and not tracked.is_exact_zero()
    assert tracked.val_lower_bound() == tracked.abs_precision() == 5
    assert (zero * tracked).is_exact_zero() and (tracked * zero).is_exact_zero()
    assert rational_reconstruct(zero, 10, 10) == 0


def test_shift_and_truncate():
    x = PadicNumber.from_rational(5, 7, 10)
    t = x.truncate_abs(4)
    assert t.abs_precision() == 4


def test_negative_valuation_arithmetic():
    x = PadicNumber.from_rational(5, F(1, 5), 8)
    assert not x.is_zeroish() and x.val == -1
    assert not (x * 5).is_zeroish() and (x * 5).val == 0
    assert not (x + x).is_zeroish() and (x + x).val == -1


def test_rational_reconstruct_small_height_target():
    # image of -26/3 mod 5^10 via the modular-inverse oracle, fed back
    p, N = 5, 10
    residue = (-26 * pow(3, -1, p ** N)) % p ** N
    x = PadicNumber(p, 0, residue, N)
    assert rational_reconstruct(x, 1000, 1000) == F(-26, 3)


def test_rational_reconstruct_zero_and_bounds():
    assert rational_reconstruct(PadicNumber.exact_zero(7), 10, 10) == 0
    p, N = 7, 8
    residue = (7 * pow(8, -1, p ** N)) % p ** N
    x = PadicNumber(p, 0, residue, N)
    assert rational_reconstruct(x, 100, 100) == F(7, 8)
    # precision too low for the requested bounds must raise
    small = PadicNumber(5, 0, 123, 4)
    with pytest.raises(ValueError):
        rational_reconstruct(small, 10 ** 6, 10 ** 6)


def test_rational_reconstruct_none_when_no_small_rational():
    p, N = 5, 12
    x = PadicNumber(p, 0, 123456789, N)
    assert rational_reconstruct(x, 50, 50) is None


def test_rational_reconstruct_counts_the_p_power_in_the_denominator():
    # a negative valuation divides by p^-val after the Euclid step; that
    # factor belongs to the denominator the bound is checked against
    p, N = 5, 10
    for q, nd_small, nd_large in ((F(1, 25), (10, 10), (10, 25)),
                                  (F(-26, 75), (100, 3), (100, 75)),
                                  (F(7, 50), (10, 10), (10, 50))):
        x = PadicNumber.from_rational(p, q, N)
        assert rational_reconstruct(x, *nd_small) is None, q
        assert rational_reconstruct(x, *nd_large) == q, q
    x = PadicNumber.from_rational(p, F(-26, 3), N)
    assert rational_reconstruct(x, 1000, 1000) == F(-26, 3)


def test_teichmuller_fixed_points():
    for p in (5, 7):
        for a in range(1, p):
            t = teichmuller(a, p, 14)
            assert pow(t, p, p ** 14) == t
            assert t % p == a


def test_teichmuller_closed_form_equals_the_iteration():
    for p in (5, 7, 13, 31, 101):
        for a in range(1, p):
            for N in (1, 2, 12, 27, 40):
                assert teichmuller(a, p, N) == teichmuller_by_iteration(a, p, N), (p, a, N)
        assert teichmuller(p - 1 - p, p, 12) == teichmuller(p - 1, p, 12)
        with pytest.raises(ValueError):
            teichmuller(p, p, 12)


def test_valuation_of_fractions_and_ints():
    assert valuation(F(50, 3), 5) == (2, F(2, 3))    # ell in the numerator
    assert valuation(F(3, 50), 5) == (-2, F(3, 2))   # ell in the denominator
    q = F(7, 3)                                       # in neither: q itself
    v, u = valuation(q, 5)
    assert v == 0 and u == q and isinstance(u, F)
    assert valuation(F(-75, 4), 5) == (2, F(-3, 4))
    assert valuation(F(-4, 75), 5) == (-2, F(-4, 3))
    v, u = valuation(-250, 5)
    assert (v, u) == (3, -2) and type(u) is int
    with pytest.raises(ValueError):
        valuation(F(0), 5)


def test_iwasawa_log_torsion_and_branch():
    for p in (5, 7):
        minus_one = PadicNumber.from_rational(p, -1, 12)
        assert iwasawa_log(minus_one).val_lower_bound() >= 12
        t = teichmuller(3, p, 12)
        assert iwasawa_log(PadicNumber(p, 0, t, 12)).val_lower_bound() >= 12
        # log p = 0 by the branch: log(p * u) = log(u)
        u = PadicNumber.from_rational(p, 1 + p, 12)
        pu = PadicNumber.from_rational(p, p * (1 + p), 12)
        assert (iwasawa_log(u) - iwasawa_log(pu)).val_lower_bound() >= 12


def test_log_additivity(rng):
    p = 5
    for _ in range(10):
        x = rng.randint(2, 200)
        y = rng.randint(2, 200)
        lx = iwasawa_log(PadicNumber.from_rational(p, x, 14))
        ly = iwasawa_log(PadicNumber.from_rational(p, y, 14))
        lxy = iwasawa_log(PadicNumber.from_rational(p, x * y, 14))
        assert (lx + ly - lxy).val_lower_bound() >= 13


def test_log_defining_series_head():
    # log(1 + p) = p - p^2/2 + p^3/3 - ...
    p = 7
    val = iwasawa_log(PadicNumber.from_rational(p, 1 + p, 14))
    head = sum((PadicNumber.from_rational(p, F((-1) ** (m + 1) * p ** m, m), 16)
                for m in range(1, 14)), PadicNumber.exact_zero(p))
    assert (val - head).val_lower_bound() >= 13


def test_log_2_against_series_oracle():
    # log_5(2) = (1/4) log(16), with log(16) = log(1+15) summed directly
    p, N = 5, 12
    fifteen = PadicNumber.from_rational(p, 15, N + 4)
    acc = PadicNumber.exact_zero(p)
    power = fifteen
    for m in range(1, N + 6):
        c = power / m
        acc = acc + (c if m % 2 == 1 else -c)
        power = power * fifteen
    log2 = iwasawa_log(PadicNumber.from_rational(p, 2, N + 4))
    assert not log2.is_zeroish() and log2.val >= 1
    assert (log2 - acc / 4).val_lower_bound() >= N


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101])
def test_iwasawa_log_matches_padic_loop_oracle(p, rng):
    # value and claimed precision; the units take turns among random ones,
    # Teichmueller ones (t = 0) and 1 + p^k (val(t) = k); rel 111 is the
    # working precision of --prec 100
    for rel in [*range(1, 60), *((80, 111) if p in (5, 31) else ())]:
        mod = p ** rel
        for val in range(-3, 4):
            u = (rng.randrange(1, mod), teichmuller(p - 1, p, rel),
                 1 + p ** rng.randrange(1, rel + 1))[val % 3]
            if u % p == 0:
                u += 1
            z = PadicNumber(p, val, u, rel)
            got, want = iwasawa_log(z), iwasawa_log_by_padic_loop(z)
            assert (got.val, got.unit, got.rel) == (want.val, want.unit, want.rel)


def test_padic_agree_equality_rule():
    pol = PrecisionPolicy(12, 3)
    a = PadicNumber.from_rational(5, F(1, 3), 15)
    b = a + PadicNumber(5, 9, 1, 3)
    c = a + PadicNumber(5, 5, 1, 3)
    assert padic_agree(a, b, pol)
    assert not padic_agree(a, c, pol)


def test_log_rejects_zero():
    with pytest.raises(ValueError):
        iwasawa_log(PadicNumber.exact_zero(5))
    with pytest.raises(ValueError):
        iwasawa_log(PadicNumber.zero_to(5, 8))


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(3, 3)
    pol = PrecisionPolicy(12, 3)
    assert pol.equality_threshold == 9


def test_policy_equality_hash_repr():
    pol = PrecisionPolicy(12, 3)
    assert pol == PrecisionPolicy() and hash(pol) == hash(PrecisionPolicy())
    assert pol != PrecisionPolicy(12, 4) and pol != PrecisionPolicy(13, 3)
    assert pol != (12, 3)
    assert len({pol, PrecisionPolicy(12, 3), PrecisionPolicy(20, 3)}) == 2
    assert repr(PrecisionPolicy(20, 5)) == "PrecisionPolicy(M=20, g=5)"
