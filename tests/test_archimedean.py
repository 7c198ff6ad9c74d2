import math

import pytest

from ckpolylog.archimedean import (
    complex_P3, kummer_spence_check, li2_re, li3_re, zeta3,
)
from oracles import p3_inversion_residual

PI = math.pi
LN2 = math.log(2)


def test_zeta3_value():
    assert abs(zeta3() - 1.2020569031595942854) < 1e-12


def test_li2_known_values():
    assert li2_re(0.0) == 0.0
    assert abs(li2_re(0.5) - (PI ** 2 / 12 - LN2 ** 2 / 2)) < 1e-12
    assert abs(li2_re(-1.0) + PI ** 2 / 12) < 1e-12
    assert abs(li2_re(1.0) - PI ** 2 / 6) < 1e-12


def test_li3_known_values():
    assert li3_re(0.0) == 0.0
    want = 7 * zeta3() / 8 - PI ** 2 * LN2 / 12 + LN2 ** 3 / 6
    assert abs(li3_re(0.5) - want) < 1e-12
    assert abs(li3_re(-1.0) + 0.75 * zeta3()) < 1e-12


def test_li2_reflection_interval():
    for x in (0.12, 0.43, 0.77, 0.91):
        resid = li2_re(x) + li2_re(1 - x) - (PI ** 2 / 6 - math.log(x) * math.log(1 - x))
        assert abs(resid) < 1e-11


def test_p3_special_values():
    assert abs(complex_P3(-1.0) + 0.75 * zeta3()) < 1e-10
    assert abs(complex_P3(-1.0 / 3) - 2 * complex_P3(1.0 / 3) + 13.0 / 6 * zeta3()) < 1e-10


def test_p3_inversion_random(rng):
    for _ in range(20):
        x = rng.uniform(-5, 5)
        if abs(x) < 0.05 or abs(x - 1) < 0.05 or abs(x) > 4.9:
            continue
        assert p3_inversion_residual(x) < 1e-10, x


def test_kummer_spence_nine_terms():
    assert kummer_spence_check() < 1e-10
    # a second admissible point of the relation
    assert kummer_spence_check(x=-2.0, y=0.25) < 1e-9


def test_p3_rejects_singular_points():
    with pytest.raises(ValueError):
        complex_P3(0)
    with pytest.raises(ValueError):
        complex_P3(1)
