import re
from fractions import Fraction as F

import pytest

import ckpolylog.galois as G
import ckpolylog.words as wd
from ckpolylog.cocycles import (
    cocycle_apply, coordinate_name, coordinate_names, eval_universal, kappa_coordinates,
)
from ckpolylog.padic import PadicNumber
from oracles import (
    brown_entry, cocycle_apply_by_substitution, eval_universal_by_tails, extract_coordinates,
)

GS1 = G.standard_genset({3}, 4)       # tau_3, sigma_3
GS2 = G.standard_genset({2, 3}, 4)    # tau_2, tau_3, sigma_3


def rational_coords(genset, n, values):
    c = {}
    it = iter(values)
    for g in genset.generators:
        if g.weight == 1:
            c[coordinate_name(g.id)] = F(next(it))
            c[coordinate_name(g.id, 1)] = F(next(it))
        elif g.weight <= n:
            c[coordinate_name(g.id, g.weight)] = F(next(it))
    return c


def test_brown_entry_product_formula():
    c = rational_coords(GS1, 4, [2, 3, 5])
    # word sigma tau against e1 e0 e0 e0: Phi^tau_{e0} * Phi^sigma_{e1e0e0}
    assert brown_entry(("sigma_3", "tau_3"), ("li", 4), c, GS1) == F(2) * F(5)
    # all other shapes vanish
    assert brown_entry(("tau_3", "sigma_3"), ("li", 4), c, GS1) == F(0)
    # powers of e0 against tau words
    assert brown_entry(("tau_3", "tau_3"), ("e0", 2), c, GS1) == F(4)
    with pytest.raises(ValueError):
        brown_entry(("tau_3",), ("li", 2), c, GS1)


def test_theta_sharp_displayed_images():
    img = eval_universal(4, GS1)
    tau_e0 = coordinate_name("tau_3")
    tau_e1 = coordinate_name("tau_3", 1)
    sig = coordinate_name("sigma_3", 3)
    assert (tau_e0, tau_e1, sig) == ("Phi[tau_3;e0]", "Phi[tau_3;li1]", "Phi[sigma_3;li3]")
    # log -> Phi^tau_{e0} f_tau
    assert img["log"] == {
        (tau_e0,): wd.ShuffleElement.word(GS1, ("tau_3",))}
    # Li_1 -> Phi^tau_{e1} f_tau
    assert img["li1"] == {
        (tau_e1,): wd.ShuffleElement.word(GS1, ("tau_3",))}
    # Li_2 -> Phi^tau_{e0} Phi^tau_{e1} f_{tau tau}, and f_{tau tau} = f_tau^2/2
    li2 = img["li2"]
    assert li2 == {tuple(sorted((tau_e0, tau_e1))):
                   wd.ShuffleElement.word(GS1, ("tau_3", "tau_3"))}
    # Li_3 -> Phi^tau_{e1} (Phi^tau_{e0})^2 f_{ttt} + Phi^sigma_{e1e0e0} f_sigma
    li3 = img["li3"]
    assert li3[tuple(sorted((tau_e0, tau_e0, tau_e1)))] == \
        wd.ShuffleElement.word(GS1, ("tau_3",) * 3)
    assert li3[(sig,)] == wd.ShuffleElement.word(GS1, ("sigma_3",))
    # Li_4 -> Phi^tau_{e1} (Phi^tau_{e0})^3 f_{tttt}
    #         + Phi^tau_{e0} Phi^sigma_{e1e0e0} f_{sigma tau}
    li4 = img["li4"]
    assert li4[tuple(sorted((tau_e0,) * 3 + (tau_e1,)))] == \
        wd.ShuffleElement.word(GS1, ("tau_3",) * 4)
    assert li4[tuple(sorted((tau_e0, sig)))] == \
        wd.ShuffleElement.word(GS1, ("sigma_3", "tau_3"))


def test_eval_universal_substitution_matches_cc_li():
    # substituting Phi^tau_{e0} = 2, Phi^tau_{e1} = 3, Phi^sigma_{e1e0e0} = 5
    # realizes 3 * 2^{k-1} f_tau^k/k! + corrections
    c = rational_coords(GS1, 4, [2, 3, 5])
    out = cocycle_apply(c, GS1, 4)
    gs = GS1
    def fw(*word, scale=1):
        return wd.ShuffleElement.word(gs, word, F(scale))
    assert out["log"] == fw("tau_3", scale=2)
    assert out["li1"] == fw("tau_3", scale=3)
    assert out["li2"] == fw("tau_3", "tau_3", scale=6)
    assert out["li3"] == fw("tau_3", "tau_3", "tau_3", scale=12) + fw("sigma_3", scale=5)
    assert out["li4"] == (fw(*("tau_3",) * 4, scale=24)
                          + fw("sigma_3", "tau_3", scale=10))


def test_kappa_coordinates_examples():
    assert kappa_coordinates(F(1, 2), 2) == (-1, 1)
    assert kappa_coordinates(F(9), 3) == (2, 0)
    assert kappa_coordinates(F(-1), 2) == (0, -1)
    assert kappa_coordinates(F(-1), 5) == (0, 0)
    for bad in (F(0), F(1)):
        with pytest.raises(ValueError):
            kappa_coordinates(bad, 3)


def test_cocycle_apply_kappa_half_matches_table(table_z_half):
    # kappa(1/2) over Z[1/2]: Phi^tau_{e0} = -1, Phi^tau_{e1} = 1,
    # Phi^sigma_{e1e0e0} = 7/8
    gs = G.standard_genset({2}, 4)
    e0, e1 = kappa_coordinates(F(1, 2), 2)
    c = {coordinate_name("tau_2"): F(e0), coordinate_name("tau_2", 1): F(e1),
         coordinate_name("sigma_3", 3): F(7, 8)}
    out = cocycle_apply(c, gs, 4)
    li3 = table_z_half.entries[G.sy.Symbol("li", 3, F(1, 2))]
    li4 = table_z_half.entries[G.sy.Symbol("li", 4, F(1, 2))]
    assert out["li3"] == li3
    assert out["li4"] == li4
    assert out["log"] == wd.ShuffleElement.word(gs, ("tau_2",), F(-1))


def test_cocycle_apply_w0_zero_kills_even_weights():
    c = rational_coords(GS1, 4, [0, 7, 11])
    out = cocycle_apply(c, GS1, 4)
    assert out["log"].is_zero()
    assert out["li2"].is_zero()
    assert out["li4"].is_zero()
    assert out["li3"] == wd.ShuffleElement.word(GS1, ("sigma_3",), F(11))


def test_cocycle_apply_zero_cocycle():
    c = rational_coords(GS2, 4, [0] * 6)
    out = cocycle_apply(c, GS2, 4)
    assert all(el.is_zero() for el in out.values())


def goncharov_rhs(out, n, gs):
    # sum Li_{n-i}(c) (x) log(c)^sh i / i!
    import math
    acc = wd.TensorElement(gs, {})
    logc = out["log"]
    for i in range(1, n):
        left = out["li%d" % (n - i)]
        right = (logc ** i).scale(F(1, math.factorial(i)))
        for wl, cl in left.terms.items():
            for wr, cr in right.terms.items():
                k = (wl, wr)
                s = acc.terms.get(k, 0) + cl * cr
                if s:
                    acc.terms[k] = s
                else:
                    acc.terms.pop(k, None)
    return acc


@pytest.mark.parametrize("genset,count", [(GS1, 3), (GS2, 5)])
def test_homomorphism_property_random_coords(genset, count, rng):
    for _ in range(6):
        vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(count)]
        c = rational_coords(genset, 4, vals)
        out = cocycle_apply(c, genset, 4)
        for n in range(2, 5):
            lhs = wd.reduced_coproduct(out["li%d" % n])
            assert lhs == goncharov_rhs(out, n, genset)


@pytest.mark.parametrize("genset,count", [(GS1, 3), (GS2, 5)])
def test_psi_round_trip(genset, count, rng):
    for _ in range(8):
        vals = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(count)]
        c = rational_coords(genset, 4, vals)
        out = cocycle_apply(c, genset, 4)
        recovered = extract_coordinates(out, genset)
        assert recovered == c


def test_cocycle_apply_padic_values_match_rationals(rng):
    # the same cocycle as 7-adic values with 20 digits: each coefficient
    # agrees with its rational counterpart to the precision it claims
    p = 7
    for _ in range(6):
        vals = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
        c = rational_coords(GS2, 4, vals)
        exact = cocycle_apply(c, GS2, 4)
        padic = cocycle_apply({name: PadicNumber.from_rational(p, x, 20)
                               for name, x in c.items()}, GS2, 4)
        assert padic.keys() == exact.keys()
        for tgt, el in padic.items():
            assert el.terms.keys() == exact[tgt].terms.keys()
            for w, x in el.terms.items():
                assert x.rel > 0
                assert (x - exact[tgt].terms[w]).val_lower_bound() >= x.abs_precision()


@pytest.mark.parametrize("genset,count", [(GS1, 3), (GS2, 5)])
def test_theta_sharp_substitution_matches_cocycle_apply(genset, count, rng):
    # cocycle_apply substitutes into the eval_universal images; the reference
    # sums brown_entry(w, lambda, c) f_w over every word of lambda's weight
    lams = {"log": ("e0", 1), **{"li%d" % k: ("li", k) for k in range(1, 5)}}
    for _ in range(6):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(count)]
        c = rational_coords(genset, 4, vals)
        want = {tgt: wd.ShuffleElement(genset, {w: brown_entry(w, lam, c, genset)
                                                for w in genset.words_of_weight(lam[1])})
                for tgt, lam in lams.items()}
        assert cocycle_apply(c, genset, 4) == want


@pytest.mark.parametrize("S", [{2}, {3}, {2, 3}])
def test_cocycle_apply_matches_substitution_into_every_monomial(S, rng):
    # the recursion never reads a zero coordinate; the reference substitutes
    # every coordinate, about a third of them 0, into every monomial
    for n in range(1, 7):
        genset = G.standard_genset(S, n)
        for _ in range(3):
            c = {name: F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
                 for name in coordinate_names(genset, n)}
            assert cocycle_apply(c, genset, n) == cocycle_apply_by_substitution(c, genset, n)


@pytest.mark.parametrize("S", [{2}, {3}, {2, 3}])
def test_eval_universal_matches_the_images_built_tail_by_tail(S):
    for n in range(1, 8):
        genset = G.standard_genset(S, n)
        assert eval_universal(n, genset) == eval_universal_by_tails(n, genset)


def test_vanishing_pattern_in_images():
    c = rational_coords(GS1, 4, [2, 3, 5])
    out = cocycle_apply(c, GS1, 4)
    # any word not of the shape (generator)(tau tail) carries coefficient 0
    assert out["li4"].coefficient(("tau_3", "sigma_3")) == 0
    assert out["li4"].coefficient(("tau_3", "tau_3", "tau_3", "tau_3")) != 0


def test_cocycle_apply_rejects_wrong_coordinates():
    c = rational_coords(GS1, 4, [2, 3, 5])
    sig = coordinate_name("sigma_3", 3)
    missing = {name: x for name, x in c.items() if name != sig}
    with pytest.raises(ValueError, match=re.escape("missing ['%s'], unknown []" % sig)):
        cocycle_apply(missing, GS1, 4)
    # no coordinate pairs a generator with a word of another weight
    for name in (coordinate_name("sigma_3"), coordinate_name("tau_3", 3)):
        with pytest.raises(ValueError, match=re.escape("missing [], unknown ['%s']" % name)):
            cocycle_apply({**c, name: F(1)}, GS1, 4)
    # sigma_3 has no coordinate below weight 3
    with pytest.raises(ValueError, match=re.escape("missing [], unknown ['%s']" % sig)):
        cocycle_apply(c, GS1, 2)
