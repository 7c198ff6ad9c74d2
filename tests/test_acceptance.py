"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion states its tolerance inline and fails loudly when missed.
"""

import time
from fractions import Fraction as F

import pytest

import ckpolylog.elimination as E
import ckpolylog.galois as G
import ckpolylog.loci as L
import ckpolylog.symbols as sy
import ckpolylog.words as wd
from ckpolylog.archimedean import complex_P3, kummer_spence_check, zeta3
from ckpolylog.cocycles import cocycle_apply
from ckpolylog.padic import PadicNumber, PrecisionPolicy, rational_reconstruct
from ckpolylog.polylog import get_engine

from oracles import basis_certificate_deg3, canonical_form, coleman_evaluate, extract_coordinates
from test_cocycles import rational_coords


def report(num, ok, detail, elapsed, budget):
    line = "ACCEPTANCE %2d: %s  %s  (%.2fs, budget %ds)" % (
        num, "PASS" if ok else "FAIL", detail, elapsed, budget)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_determinant_certificate():
    t0 = time.time()
    mat, det = basis_certificate_deg3()
    expected = [
        [3, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, F(-1, 2)],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, F(-1, 2), 0],
        [0, 0, 0, 2, 0, -1, 0, 0],
        [0, 3, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ]
    ok = det == 9 and mat == [[F(x) for x in row] for row in expected]
    report(1, ok, "8x8 coproduct matrix exact, det = %s" % det, time.time() - t0, 1)


def test_criterion_2_ideal_generators():
    t0 = time.time()
    ok = True
    for ell in (2, 3):
        prob, gens = E.ck_ideal_generators(4, {ell})
        short_prob, short = E.structured_shortcut_generators({ell})
        ok = ok and [canonical_form(prob, g) for g in gens] == \
            [canonical_form(short_prob, s) for s in short]
        ok = ok and all(E.verify_vanishing(prob, g) for g in gens)
        ok = ok and len(gens) == 2
    report(2, ok, "weight-2 and weight-4 generators, exact vanishing, ell in {2,3}",
           time.time() - t0, 10)


def test_criterion_3_w2_of_9_recognition(policy):
    t0 = time.time()
    ok = True
    values = set()
    for p in (5, 7):
        eng = get_engine(p, policy)
        ratio = (eng.polylog(3, F(9)) - 12 * eng.polylog(3, F(3))) / eng.zeta_nonzero(3)
        target = PadicNumber.from_rational(p, F(-26, 3), policy.workprec())
        ok = ok and (ratio - target).val_lower_bound() >= policy.M - 3
        q = rational_reconstruct(ratio.truncate_abs(policy.M + 1), 10 ** 4, 10 ** 3)
        values.add(q)
    ok = ok and values == {F(-26, 3)}
    report(3, ok, "(Li3(9)-12Li3(3))/zeta_p(3) = -26/3 at p = 5 and 7",
           time.time() - t0, 60)


def test_criterion_4_z_half_identity(policy):
    t0 = time.time()
    vals = {}
    for p in (5, 7):
        eng = get_engine(p, policy)
        resid = (eng.polylog(3, F(1, 2)) - eng.log(F(2)) ** 3 / 6
                 - F(7, 8) * eng.zeta(3))
        vals[p] = resid.val_lower_bound()
    ok = all(v >= policy.M - 3 for v in vals.values())
    report(4, ok, "val(Li3(1/2) - log(2)^3/6 - (7/8)zeta(3)) = %s >= %d"
           % (vals, policy.M - 3), time.time() - t0, 30)


def test_criterion_5_weight2_locus(policy):
    t0 = time.time()
    ok = True
    for p in (5, 7):
        locus = L.find_zeros(L.weight2_function(p, (3,), policy))
        guesses = sorted(str(z.rational_guess) for z in locus.zeros)
        ok = ok and guesses == ["-1", "1/2", "2"] and locus.all_certified()
    report(5, ok, "certified weight-2 zeros {2, 1/2, -1} at p = 5 and 7",
           time.time() - t0, 120)


def test_criterion_6_weight4_filter(policy):
    t0 = time.time()
    ok = True
    detail = []
    for p in (5, 7):
        f4 = L.weight4_function(p, S=(3,), policy=policy)
        # the weight-4 period coefficients share a p-power content (val zeta_p(3) = 3);
        # thresholds apply to content-normalized valuations (see ledger)
        assert not any(c.is_zeroish() for c in f4.coeffs.values())
        content = min(c.val for c in f4.coeffs.values())
        nz = {z: coleman_evaluate(f4, F(z)).val_lower_bound() - content
              for z in (2, F(1, 2))}
        at_m1 = coleman_evaluate(f4, F(-1)).val_lower_bound() - content
        ok = ok and all(v <= policy.M - 6 for v in nz.values())
        ok = ok and at_m1 >= policy.M - 3
        detail.append("p=%d: nonzero vals %s, at -1: %d (content %d)"
                      % (p, sorted(nz.values()), at_m1, content))
    report(6, ok, "; ".join(detail), time.time() - t0, 60)


def test_criterion_7_symmetrized_locus(policy):
    t0 = time.time()
    ok = True
    for p in (5, 7):
        locus = L.locus_for(p, (3,), 4, policy)
        ok = ok and [str(z.rational_guess) for z in locus.zeros] == ["-1"]
        sym = L.s3_symmetrize(locus)
        ok = ok and sym.zeros == []
    report(7, ok, "X(Z_p)_{PL,4} = {-1} and S_3-symmetrization empty, p = 5, 7",
           time.time() - t0, 62)


def test_criterion_8_counterexample_verification(policy):
    t0 = time.time()
    rep = L.counterexample_cocycle(3, 4, 5, policy)
    ok = (all(rep["symbolic"].values())
          and rep["numericValuations"]["Li_2(-1)"] >= policy.M - 3
          and rep["numericValuations"]["Li_4(-1)"] >= policy.M - 3
          and rep["numericValuations"]["log_p(-1)"] >= policy.M - 3
          and rep["zetaNonzeroGuard"])
    report(8, ok, "symbolic identities exact; even Li_p(-1) vanish: %s"
           % rep["numericValuations"], time.time() - t0, 30)


def test_criterion_9_appendix_suite(policy):
    t0 = time.time()
    ok = True
    for p in (5, 7):
        eng = get_engine(p, policy)
        resid = (eng.polylog(3, F(-3)) - 2 * eng.polylog(3, F(3))
                 + F(13, 6) * eng.zeta(3))
        ok = ok and resid.val_lower_bound() >= policy.M - 3
    z3 = zeta3()
    c1 = abs(complex_P3(-1.0 / 3) - 2 * complex_P3(1.0 / 3) + 13.0 / 6 * z3)
    c2 = abs(complex_P3(-1.0) + 0.75 * z3)
    ok = ok and c1 < 1e-10 and c2 < 1e-10 and kummer_spence_check() < 1e-10
    report(9, ok, "p-adic residuals >= M-3 at p=5,7; complex residuals %.1e, %.1e"
           % (c1, c2), time.time() - t0, 30)


def test_criterion_10_property_suites(policy, rng):
    t0 = time.time()
    ok = True
    # Hopf identities through weight 8
    gs = G.standard_genset({2}, 8)
    for n in range(1, 9):
        for word in gs.words_of_weight(n):
            ok = ok and wd.cobar_square(wd.ShuffleElement.word(gs, word)) == {}
    # Goncharov coassociativity for the table symbols
    for s in [sy.Symbol("li", n, z) for n in (2, 3, 4)
              for z in (F(1, 2), F(3), F(9), F(-2), F(-3))]:
        t = sy.reduced_coproduct(sy.Expression.sym(s))
        acc = {}
        for (l, r), c in t.terms.items():
            for (x, y), d in sy.reduced_coproduct(sy.Expression({l: F(1)})).terms.items():
                acc[(x, y, r)] = acc.get((x, y, r), 0) + c * d
            for (x, y), d in sy.reduced_coproduct(sy.Expression({r: F(1)})).terms.items():
                acc[(l, x, y)] = acc.get((l, x, y), 0) - c * d
        ok = ok and all(v == 0 for v in acc.values())
    # distribution relation, 50 random points per (p, k)
    for p in (5, 7):
        eng = get_engine(p, policy)
        for k in (1, 2, 3, 4):
            done = 0
            while done < 50:
                a = rng.randrange(2, p - 1)
                if (a * a) % p in (0, 1):
                    continue
                z = PadicNumber.from_rational(
                    p, a + p * rng.randrange(0, p ** 5), policy.workprec())
                resid = (F(2) ** (1 - k) * eng.polylog(k, z * z)
                         - eng.polylog(k, z) - eng.polylog(k, -z))
                ok = ok and resid.val_lower_bound() >= policy.M - policy.g
                done += 1
    # Psi round trip on random cocycle coordinates
    for genset, count in ((G.standard_genset({3}, 4), 3),
                          (G.standard_genset({2, 3}, 4), 5)):
        for _ in range(5):
            vals = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(count)]
            c = rational_coords(genset, 4, vals)
            ok = ok and extract_coordinates(cocycle_apply(c, genset, 4), genset) == c
    # precision-soundness resampling
    hi = get_engine(5, PrecisionPolicy(policy.M + 5, policy.g))
    lo = get_engine(5, policy)
    for k, z in ((2, F(3)), (3, F(9)), (4, F(1, 2))):
        a, b = lo.polylog(k, z), hi.polylog(k, z)
        ok = ok and (a - b).val_lower_bound() >= a.abs_precision() - 1
    report(10, ok, "Hopf/coassociativity/distribution/Psi/precision suites",
           time.time() - t0, 300)
