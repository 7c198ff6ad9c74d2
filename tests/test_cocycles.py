from fractions import Fraction as F

import pytest

import ckpolylog.galois as G
import ckpolylog.words as wd
from ckpolylog.cocycles import (
    LOG, CocycleCoordinates, PolylogWord, cocycle_apply,
    eval_universal, kappa_coordinates, w_coordinate_names,
)
from oracles import brown_entry, extract_coordinates

GS1 = G.standard_genset({3}, 4)       # tau_3, sigma_3
GS2 = G.standard_genset({2, 3}, 4)    # tau_2, tau_3, sigma_3
E1 = PolylogWord.li(1)
LI = PolylogWord.li


def rational_coords(genset, n, values):
    c = CocycleCoordinates(genset, zero=F(0))
    it = iter(values)
    for g in genset.generators:
        if g.weight == 1:
            c.set(g.id, LOG, F(next(it)))
            c.set(g.id, E1, F(next(it)))
        elif g.weight <= n:
            c.set(g.id, LI(g.weight), F(next(it)))
    return c


def test_brown_entry_product_formula():
    c = rational_coords(GS1, 4, [2, 3, 5])
    # word sigma tau against e1 e0 e0 e0: Phi^tau_{e0} * Phi^sigma_{e1e0e0}
    assert brown_entry(("sigma_3", "tau_3"), LI(4), c) == F(2) * F(5)
    # all other shapes vanish
    assert brown_entry(("tau_3", "sigma_3"), LI(4), c) == F(0)
    # powers of e0 against tau words
    assert brown_entry(("tau_3", "tau_3"), PolylogWord.e0_power(2), c) == F(4)
    with pytest.raises(ValueError):
        brown_entry(("tau_3",), LI(2), c)


def test_theta_sharp_displayed_images():
    img = eval_universal(4, GS1)
    names = w_coordinate_names(GS1, 4)
    tau_e0 = ("tau_3", LOG)
    tau_e1 = ("tau_3", E1)
    sig = ("sigma_3", LI(3))
    assert names[tau_e0] == "w0" and names[tau_e1] == "w1" and names[sig] == "w2"
    # log -> w0 f_tau
    assert img.images["log"] == {
        (tau_e0,): wd.ShuffleElement.word(GS1, ("tau_3",))}
    # Li_1 -> w1 f_tau
    assert img.images["li1"] == {
        (tau_e1,): wd.ShuffleElement.word(GS1, ("tau_3",))}
    # Li_2 -> w0 w1 f_{tau tau} = w0 w1 f_tau^2/2
    li2 = img.images["li2"]
    assert li2 == {tuple(sorted((tau_e0, tau_e1))):
                   wd.ShuffleElement.word(GS1, ("tau_3", "tau_3"))}
    # Li_3 -> w1 w0^2 f_{ttt} + w2 f_sigma
    li3 = img.images["li3"]
    assert li3[tuple(sorted((tau_e0, tau_e0, tau_e1)))] == \
        wd.ShuffleElement.word(GS1, ("tau_3",) * 3)
    assert li3[(sig,)] == wd.ShuffleElement.word(GS1, ("sigma_3",))
    # Li_4 -> w1 w0^3 f_{tttt} + w0 w2 f_{sigma tau}
    li4 = img.images["li4"]
    assert li4[tuple(sorted((tau_e0,) * 3 + (tau_e1,)))] == \
        wd.ShuffleElement.word(GS1, ("tau_3",) * 4)
    assert li4[tuple(sorted((tau_e0, sig)))] == \
        wd.ShuffleElement.word(GS1, ("sigma_3", "tau_3"))


def test_eval_universal_substitution_matches_cc_li():
    # substituting numeric w's realizes w1 w0^{k-1} f_tau^k/k! + corrections
    img = eval_universal(4, GS1)
    c = rational_coords(GS1, 4, [2, 3, 5])  # w0=2, w1=3, w2=5
    out = img.substitute(c)
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
    # kappa(1/2) over Z[1/2]: w0 = -1, w1 = 1, w2 = 7/8
    gs = G.standard_genset({2}, 4)
    c = CocycleCoordinates(gs, zero=F(0))
    w0, w1 = kappa_coordinates(F(1, 2), 2)
    c.set("tau_2", LOG, F(w0))
    c.set("tau_2", E1, F(w1))
    c.set("sigma_3", LI(3), F(7, 8))
    out = cocycle_apply(c, 4)
    li3 = table_z_half.full_form(G.sy.Symbol("li", 3, F(1, 2)))
    li4 = table_z_half.full_form(G.sy.Symbol("li", 4, F(1, 2)))
    assert out["li3"] == li3
    assert out["li4"] == li4
    assert out["log"] == wd.ShuffleElement.word(gs, ("tau_2",), F(-1))


def test_cocycle_apply_w0_zero_kills_even_weights():
    c = rational_coords(GS1, 4, [0, 7, 11])
    out = cocycle_apply(c, 4)
    assert out["log"].is_zero()
    assert out["li2"].is_zero()
    assert out["li4"].is_zero()
    assert out["li3"] == wd.ShuffleElement.word(GS1, ("sigma_3",), F(11))


def test_cocycle_apply_zero_cocycle():
    c = rational_coords(GS2, 4, [0] * 6)
    out = cocycle_apply(c, 4)
    assert all(el.is_zero() for el in out.values())


def goncharov_rhs(out, n, gs):
    # sum Li_{n-i}(c) (x) log(c)^sh i / i!
    import math
    acc = wd.TensorElement(gs, {})
    logc = out["log"]
    for i in range(1, n):
        left = out["li%d" % (n - i)]
        right = logc.shuffle_pow(i).scale(F(1, math.factorial(i)))
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
        out = cocycle_apply(c, 4)
        for n in range(2, 5):
            lhs = wd.reduced_coproduct(out["li%d" % n])
            assert lhs == goncharov_rhs(out, n, genset)


@pytest.mark.parametrize("genset,count", [(GS1, 3), (GS2, 5)])
def test_psi_round_trip(genset, count, rng):
    for _ in range(8):
        vals = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(count)]
        c = rational_coords(genset, 4, vals)
        out = cocycle_apply(c, 4)
        recovered = extract_coordinates(out, genset)
        assert recovered == c.values


@pytest.mark.parametrize("genset,count", [(GS1, 3), (GS2, 5)])
def test_theta_sharp_substitution_matches_cocycle_apply(genset, count, rng):
    # cocycle_apply substitutes into the eval_universal images; the reference
    # sums brown_entry(w, lambda, c) f_w over every word of lambda's weight
    lams = {"log": LOG, **{"li%d" % k: LI(k) for k in range(1, 5)}}
    for _ in range(6):
        vals = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(count)]
        c = rational_coords(genset, 4, vals)
        want = {tgt: wd.ShuffleElement(genset, {w: brown_entry(w, lam, c)
                                                for w in genset.words_of_weight(lam.weight)})
                for tgt, lam in lams.items()}
        assert cocycle_apply(c, 4) == want


def test_vanishing_pattern_in_images():
    c = rational_coords(GS1, 4, [2, 3, 5])
    out = cocycle_apply(c, 4)
    # any word not of the shape (generator)(tau tail) carries coefficient 0
    assert out["li4"].coefficient(("tau_3", "sigma_3")) == 0
    assert out["li4"].coefficient(("tau_3", "tau_3", "tau_3", "tau_3")) != 0


def test_coordinate_slot_validation():
    c = CocycleCoordinates(GS1, zero=F(0))
    with pytest.raises(ValueError):
        c.set("sigma_3", LOG, F(1))       # weight mismatch
    with pytest.raises(ValueError):
        c.set("tau_3", LI(3), F(1))       # weight mismatch
    c.set("tau_3", LOG, F(1))
    with pytest.raises(KeyError):
        c.get("sigma_3", LI(3))
