from fractions import Fraction as F

import pytest

from ckpolylog.symbols import (
    Expression, ExprFraction, Symbol, coproduct,
    li_u, log_u, reduced_coproduct, zeta_u,
)


def mono(*syms):
    return tuple(sorted(syms))


L2 = Symbol("log", 1, F(2))
L3 = Symbol("log", 1, F(3))


def test_log_factors_through_primes():
    assert log_u(9).terms == {mono(L3): F(2)}
    assert log_u(F(1, 2)).terms == {mono(L2): F(-1)}
    assert log_u(-1).is_zero()
    assert log_u(F(-8, 3)).terms == {mono(L2): F(3), mono(L3): F(-1)}
    with pytest.raises(ValueError):
        log_u(0)


def test_li1_rewrites_to_log():
    assert li_u(1, F(-2)) == log_u(3).scale(-1)
    assert li_u(1, F(1, 2)) == log_u(2)
    with pytest.raises(ValueError):
        li_u(2, F(1))


def test_zeta_even_vanishes():
    assert zeta_u(2).is_zero()
    assert zeta_u(4).is_zero()
    assert not zeta_u(3).is_zero()
    with pytest.raises(ValueError):
        zeta_u(1)


def test_goncharov_log_and_zeta_primitive():
    assert reduced_coproduct(log_u(2)).is_zero()
    assert reduced_coproduct(zeta_u(3)).is_zero()


def test_goncharov_li3_half_bidegree_12():
    d = reduced_coproduct(Expression.sym(Symbol("li", 3, F(1, 2))))
    part = d.bidegree_part(1, 2)
    assert part.terms == {(mono(L2), mono(L2, L2)): F(1, 2)}


def test_goncharov_li2_minus2():
    d = reduced_coproduct(Expression.sym(Symbol("li", 2, F(-2))))
    assert d.terms == {(mono(L3), mono(L2)): F(-1)}


def test_goncharov_li3_nine_bidegree_12():
    d = reduced_coproduct(Expression.sym(Symbol("li", 3, F(9))))
    assert d.bidegree_part(1, 2).terms == {(mono(L2), mono(L3, L3)): F(-6)}


def test_coproduct_multiplicative(rng):
    a = li_u(2, F(-2)) + log_u(2).scale(F(3, 2))
    b = li_u(3, F(3)) - zeta_u(3)
    lhs = coproduct(a * b)
    rhs = coproduct(a) * coproduct(b)
    assert lhs == rhs


def test_goncharov_coassociativity_table_symbols():
    # (Delta' (x) id - id (x) Delta') after Delta' kills every table symbol
    symbols = [Symbol("li", n, z)
               for n in (2, 3, 4)
               for z in (F(1, 2), F(3), F(9), F(-2), F(-3))]
    for s in symbols:
        t = reduced_coproduct(Expression.sym(s))
        acc = {}
        for (l, r), c in t.terms.items():
            tl = reduced_coproduct(Expression({l: F(1)}))
            for (x, y), d in tl.terms.items():
                k = (x, y, r)
                acc[k] = acc.get(k, 0) + c * d
            tr = reduced_coproduct(Expression({r: F(1)}))
            for (x, y), d in tr.terms.items():
                k = (l, x, y)
                acc[k] = acc.get(k, 0) - c * d
        assert all(v == 0 for v in acc.values())


def test_expr_fraction_cancellation():
    z3 = zeta_u(3)
    li3 = li_u(3, F(-1))
    ratio = ExprFraction(li3, z3)
    assert (ratio * ExprFraction(z3)).equals_expression(li3)
    assert (ratio - ratio).is_zero()
    with pytest.raises(ZeroDivisionError):
        ExprFraction(li3, Expression())
