import json
from fractions import Fraction as F

import pytest

import ckpolylog.loci as L
from ckpolylog.padic import PadicNumber, PrecisionError, PrecisionPolicy, padic_agree
from ckpolylog.polylog import IntSeries, get_engine, _series_eval, _series_multiply

import oracles


def rational_points(locus):
    return sorted(str(z.rational_guess) for z in locus.zeros)


def known_zero(z, certified=True, bound=1, guess=None):
    """A Zero at the given point z = disk + p t."""
    p, n = z.p, z.lift()
    return L.Zero(n % p, n // p % p, certified, bound, lambda: (z, guess))


@pytest.fixture(scope="module")
def wt2_locus_5(policy):
    return L.find_zeros(L.weight2_function(5, (3,), policy))


@pytest.fixture(scope="module")
def wt2_locus_7(policy):
    return L.find_zeros(L.weight2_function(7, (3,), policy))


def test_assemble_weight2(policy):
    f = L.weight2_function(5, (3,), policy)
    assert f.coeffs[(("li2", 1),)].lift() % 5 != 0
    v = oracles.coleman_evaluate(f, F(2))
    assert v.val_lower_bound() >= policy.M


def test_weight2_zero_set_p5(wt2_locus_5, policy):
    assert rational_points(wt2_locus_5) == ["-1", "1/2", "2"]
    assert wt2_locus_5.all_certified()
    assert all(z.multiplicity_bound == 1 for z in wt2_locus_5.zeros)


def test_weight2_zero_set_p7(wt2_locus_7):
    assert rational_points(wt2_locus_7) == ["-1", "1/2", "2"]
    assert wt2_locus_7.all_certified()


def test_root_soundness(wt2_locus_5, policy):
    f = L.weight2_function(5, (3,), policy)
    for z in wt2_locus_5.zeros:
        assert oracles.coleman_evaluate(f, z.z).val_lower_bound() >= policy.M


def test_root_completeness_net_scan(policy, wt2_locus_5):
    """Scan a p^{-3}-net; small values appear only near reported roots."""
    p = 5
    f = L.weight2_function(p, (3,), policy)
    roots = [z.z for z in wt2_locus_5.zeros]
    for a in range(2, p):
        for t0 in range(p):
            for t1 in range(p):
                z = PadicNumber.from_rational(p, a + p * t0 + p * p * t1,
                                              policy.workprec())
                near = any((z - r).val_lower_bound() >= 3 for r in roots)
                val = oracles.coleman_evaluate(f, z).val_lower_bound()
                if not near:
                    assert val < policy.M, (a, t0, t1, val)


def test_li1_zero_set_is_teichmuller_oracle(policy):
    """F = Li_1 vanishes exactly at 1 - omega, omega in mu_4 minus 1."""
    p = 5
    eng = get_engine(p, policy)
    one = PadicNumber.from_rational(p, 1, policy.workprec())
    f = L.ColemanFunction(p, policy, {(("li1", 1),):
                                      PadicNumber.from_rational(p, 1, policy.workprec())},
                          label="li1")
    locus = L.find_zeros(f)
    expected = []
    for a in (2, 3, 4):
        theta = eng.teichmuller_point(a)
        expected.append(one - theta)
    assert len(locus.zeros) == 3
    for want in expected:
        assert any(padic_agree(z.z, want, policy) for z in locus.zeros)
    assert locus.all_certified()


def test_find_zeros_rejects_flat_function(policy):
    zero = PadicNumber.zero_to(5, policy.workprec())
    f = L.ColemanFunction(5, policy, {(("li2", 1),): zero}, label="flat")
    with pytest.raises(ArithmeticError):
        L.find_zeros(f)


def test_newton_bound_counts(wt2_locus_5):
    assert wt2_locus_5.newton_bounds == {2: 1, 3: 1, 4: 1}


def test_strassmann_bound_is_the_newton_polygon_count(policy):
    """Strassmann's bound (the largest index of least valuation) equals the
    root count read off the Newton polygon's lower hull: on every disk's
    local series of g2 and g4, and on series built to hit each rule."""
    threshold = policy.workprec() - policy.g
    for p in (5, 7, 13, 31):
        for S in ((3,), (2,)):
            for f in (L.weight2_function(p, S, policy),
                      L.weight4_function(p, S=S, policy=policy)):
                for a in range(2, p):
                    series = f.local_series(a)
                    want = oracles.newton_polygon_root_count(series, threshold)
                    assert L.newton_root_bound(series, threshold) == want, (p, S, f.label, a)
    p = 5
    exact, tracked = PadicNumber.exact_zero(p), PadicNumber.zero_to(p, 3)

    def known(*values):
        return IntSeries.from_padics(p, [v if isinstance(v, PadicNumber)
                                         else PadicNumber.from_rational(p, v, 20)
                                         for v in values])

    cases = [
        (known(exact, tracked), 10, None),             # no known coefficient
        (known(5 ** 10, 5 ** 11), 10, None),          # all at or above threshold
        (known(5 ** 10, 5 ** 11), 11, 0),
        (known(5 ** 11, 5 ** 10, 5 ** 12), 11, 1),    # the one below threshold
        (known(exact, exact, 3, 5), 10, 2),           # leading exact zeros
        (known(5 ** 4, tracked, 5 ** 5), 10, 0),      # a tracked zero is not known
        (known(25, 5, 3, 125, 7, 1250), 10, 4),       # a tie at the least valuation
        (known(F(1, 3), exact, 2, 5 ** 2, 4), 10, 4),
    ]
    for series, thr, want in cases:
        assert oracles.newton_polygon_root_count(series, thr) == want
        assert L.newton_root_bound(series, thr) == want, (series.coeffs, thr)


@pytest.mark.parametrize("p", [5, 7])
def test_weight4_filter_values(p, policy):
    f4 = L.weight4_function(p, S=(3,), policy=policy)
    assert not any(c.is_zeroish() for c in f4.coeffs.values())
    content = min(c.val for c in f4.coeffs.values())
    for z in (F(2), F(1, 2)):
        v = oracles.coleman_evaluate(f4, z)
        assert v.val_lower_bound() - content <= policy.M - 6
    v = oracles.coleman_evaluate(f4, F(-1))
    assert v.val_lower_bound() - content >= policy.M - policy.g


@pytest.mark.parametrize("p", [5, 7])
def test_locus_weight4_is_minus_one(p, policy):
    locus = L.locus_for(p, (3,), 4, policy)
    assert rational_points(locus) == ["-1"]
    assert locus.all_certified()


def test_intersection_set_logic(wt2_locus_5, policy):
    junk = PadicNumber.from_rational(5, 123456, policy.workprec())
    minus_one = PadicNumber.from_rational(5, -1, policy.workprec())
    other = L.Locus(5, policy, [
        known_zero(minus_one, guess=F(-1)),
        known_zero(junk, certified=False, bound=2),
    ], ["other"])
    both = L.intersect_loci(wt2_locus_5, other)
    assert rational_points(both) == ["-1"]
    assert both.zeros[0].certified
    # L cap L = L
    self_cap = L.intersect_loci(wt2_locus_5, wt2_locus_5)
    assert rational_points(self_cap) == rational_points(wt2_locus_5)


def test_intersection_below_two_digits_compares_every_class():
    # at M - g = 1 a point known to one digit agrees with every point of its
    # disk, whatever their residues; from 2 on it agrees with none
    p = 5
    coarse = known_zero(PadicNumber.from_rational(p, 2, 1))
    sharp = known_zero(PadicNumber.from_rational(p, 17, 20))
    assert (coarse.disk, sharp.disk) == (2, 2) and coarse.residue != sharp.residue
    for policy, merged in ((PrecisionPolicy(4, 3), 1), (PrecisionPolicy(5, 3), 0)):
        both = L.intersect_loci(L.Locus(p, policy, [coarse], ["f"]),
                                L.Locus(p, policy, [sharp], ["g"]))
        assert len(both.zeros) == merged, policy


def test_intersection_rejects_loci_at_different_policies(wt2_locus_5, policy):
    other = L.Locus(5, PrecisionPolicy(policy.M + 1, policy.g), [], ["other"])
    with pytest.raises(ValueError, match="different primes or policies"):
        L.intersect_loci(wt2_locus_5, other)
    with pytest.raises(ValueError, match="different primes or policies"):
        L.intersect_loci(other, wt2_locus_5)


def test_containment_functoriality(policy, wt2_locus_5):
    # more functions, smaller locus
    full = L.locus_for(5, (3,), 4, policy)
    pts2 = {str(z.rational_guess) for z in wt2_locus_5.zeros}
    pts4 = {str(z.rational_guess) for z in full.zeros}
    assert pts4 <= pts2


def test_s3_symmetrize_minus_one_empties(policy, wt2_locus_5):
    minus_one_only = L.Locus(5, policy, [z for z in wt2_locus_5.zeros
                                         if z.rational_guess == F(-1)], ["wt"])
    out = L.s3_symmetrize(minus_one_only)
    assert out.zeros == []


def test_s3_symmetrize_empty_and_stable(policy, wt2_locus_5):
    empty = L.Locus(5, policy, [], ["none"])
    assert L.s3_symmetrize(empty).zeros == []
    # {2, 1/2, -1} is a full S_3 orbit, hence stable
    sym = L.s3_symmetrize(wt2_locus_5)
    assert rational_points(sym) == rational_points(wt2_locus_5)
    # idempotence and containment in the original
    again = L.s3_symmetrize(sym)
    assert rational_points(again) == rational_points(sym)
    assert {str(z.rational_guess) for z in sym.zeros} <= {
        str(z.rational_guess) for z in wt2_locus_5.zeros}


def test_s3_images_orbit_of_two(policy):
    z = PadicNumber.from_rational(5, 2, policy.workprec())
    images = L.s3_images(z)
    guesses = set()
    for img in images:
        from ckpolylog.padic import rational_reconstruct
        guesses.add(rational_reconstruct(img.truncate_abs(15), 100, 100))
    assert guesses == {F(2), F(-1), F(1, 2)}


def test_locus_json_deterministic(policy, wt2_locus_5):
    a = json.dumps(wt2_locus_5.to_json(), sort_keys=True)
    again = L.find_zeros(L.weight2_function(5, (3,), policy))
    b = json.dumps(again.to_json(), sort_keys=True)
    assert a == b
    data = wt2_locus_5.to_json()
    assert all(len(z["digits"]) == policy.M for z in data["zeros"])


def test_counterexample_cocycle_report(policy):
    rep = L.counterexample_cocycle(3, 4, 5, policy)
    assert rep["passed"]
    assert rep["symbolic"]["log(alpha) = 0"]
    assert rep["symbolic"]["Li2(alpha) = 0"]
    assert rep["symbolic"]["Li4(alpha) = 0"]
    assert rep["symbolic"]["Li3(alpha) = Li3(-1)"]
    assert rep["numericValuations"]["Li_2(-1)"] >= policy.M - policy.g
    assert rep["numericValuations"]["Li_4(-1)"] >= policy.M - policy.g
    assert rep["zetaNonzeroGuard"]


@pytest.mark.parametrize("p", [5, 7])
def test_weight4_over_z_half_vanishes_on_integral_points(p, policy):
    """Over Z[1/2] the unit equation has solutions {2, 1/2, -1}; the
    weight-4 function must vanish at all of them and the full locus must
    recover exactly that set."""
    f4 = L.weight4_function(p, S=(2,), policy=policy)
    assert not any(c.is_zeroish() for c in f4.coeffs.values())
    content = min(c.val for c in f4.coeffs.values())
    for z in (F(2), F(1, 2), F(-1)):
        assert oracles.coleman_evaluate(f4, z).val_lower_bound() - content >= policy.M
    locus = L.locus_for(p, (2,), 4, policy)
    assert rational_points(locus) == ["-1", "1/2", "2"]
    assert locus.all_certified()


def test_assemble_zero_element_gives_zero_function(policy):
    f = L.assemble_coleman({}, 5, policy, label="zero")
    assert f.coeffs == {}
    assert oracles.coleman_evaluate(f, F(2)).is_exact_zero()


def test_assemble_bad_disk_coefficient_propagates(policy):
    import ckpolylog.symbols as sym
    from ckpolylog.polylog import BadDiskError
    bad = {(("li2", 1),): sym.li_u(2, F(6))}  # 6 = 1 mod 5: bad disk at p = 5
    with pytest.raises(BadDiskError):
        L.assemble_coleman(bad, 5, policy)


def test_double_roots_reported_uncertified_not_dropped(policy):
    # (Li_1)^2 has double roots at the Teichmueller translates; they must
    # surface as uncertified candidates with the Newton-polygon bound 2
    p = 5
    one = PadicNumber.from_rational(p, 1, policy.workprec())
    f = L.ColemanFunction(p, policy, {(("li1", 2),): one}, label="li1sq")
    locus = L.find_zeros(f)
    assert locus.newton_bounds == {2: 2, 3: 2, 4: 2}
    assert not locus.all_certified()
    eng = get_engine(p, policy)
    expected = [one - eng.teichmuller_point(a) for a in (2, 3, 4)]
    found = [z.z for z in locus.zeros]
    for want in expected:
        assert any(padic_agree(w, want, policy) for w in found)
    assert all(z.multiplicity_bound == 2 for z in locus.zeros)


def test_weight4_coefficients_are_periods(policy, eng5):
    # the Li4-coefficient of the assembled function is 24 zeta(3) log(3)
    import ckpolylog.symbols as sym
    f4 = L.weight4_function(5, S=(3,), policy=policy)
    want = eng5.period(sym.zeta_u(3) * sym.log_u(3)) * 24
    got = f4.coeffs[(("li4", 1),)]
    assert (got - want).val_lower_bound() >= policy.M


def test_counterexample_weight6(policy):
    rep = L.counterexample_cocycle(3, 6, 5, policy)
    assert rep["passed"]
    assert rep["symbolic"]["Li6(alpha) = 0"]
    assert rep["symbolic"]["Li5(alpha) = Li5(-1)"]
    assert rep["numericValuations"]["Li_6(-1)"] >= policy.M - policy.g


def test_counterexample_zeta_guard_catches_only_precision_errors(policy, monkeypatch):
    engine = type(get_engine(5, policy))

    def vanishing(self, k):
        raise PrecisionError("zeta_5(%d) vanishes to working precision" % k)

    monkeypatch.setattr(engine, "zeta_nonzero", vanishing)
    assert not L.counterexample_cocycle(3, 4, 5, policy)["zetaNonzeroGuard"]

    def broken(self, k):
        raise ValueError("a bug, not a vanishing zeta value")

    monkeypatch.setattr(engine, "zeta_nonzero", broken)
    with pytest.raises(ValueError, match="a bug"):
        L.counterexample_cocycle(3, 4, 5, policy)


@pytest.mark.parametrize("n", [0, 1])
def test_locus_for_needs_weight_two(n, policy):
    with pytest.raises(ValueError, match="no Chabauty-Kim functions below weight 2"):
        L.locus_for(5, (3,), n, policy)


def test_counterexample_requires_good_prime(policy):
    with pytest.raises(ValueError):
        L.counterexample_cocycle(3, 4, 3, policy)
    with pytest.raises(ValueError):
        L.counterexample_cocycle(5, 4, 5, policy)


def _assert_matches_oracle(got, ref, where):
    # the integer kernel applies PadicNumber's claim rules per coefficient, so
    # it claims exactly what the reference claims (never less, and never more
    # without a proof of its own) and agrees with it to that claim
    if not isinstance(got, PadicNumber):
        assert len(got) == len(ref), where
        for n, want in enumerate(ref):
            _assert_matches_oracle(got.coefficient(n), want, (where, n))
        return
    assert got.abs_precision() == ref.abs_precision(), where
    assert (got - ref).val_lower_bound() >= ref.abs_precision(), where


# at p = 31, the disks of 2 and of 2^-1 = 16, of 3, and of -1
ORACLE_DISKS = {31: (2, 16, 3, 30)}


@pytest.mark.parametrize("p, M", [(5, None), (7, None), (13, None), (31, None), (31, 30)],
                         ids=["5", "7", "13", "31", "31-M30"])
def test_disk_series_against_padic_oracle(p, M, policy):
    """Disk tables, Coleman local series (and their Horner values) and
    root-search shifts on integer vectors against the same series built as
    PadicNumber lists.  The engine builds each table about a and takes its
    constants Li_k(a) from Li_k(theta_a); the oracle builds the table about
    theta_a and Horner-evaluates it at a.  M = 30 at p = 31 (the grid's
    `locus --S 3 --p 31 --prec 30`) runs the series past degree p, so
    integrating them divides by p at each p | j."""
    if M:
        policy = PrecisionPolicy(M, 3)
    eng = get_engine(p, policy)
    if M:
        assert eng.local_degree > p
    fns = [L.weight2_function(p, (3,), policy),
           L.weight4_function(p, S=(3,), policy=policy)]
    t = PadicNumber.from_rational(p, F(2 + p, 3), policy.workprec() - 5)
    for a in ORACLE_DISKS.get(p, range(2, p)):
        ref = oracles.disk_table(eng, a)
        table = eng.disk_table(a)
        assert set(table) == set(ref)
        for name in ref:
            _assert_matches_oracle(table[name], ref[name], (a, name))
        for f in fns:
            series = f.local_series(a)
            want = oracles.local_series(f, ref)
            _assert_matches_oracle(series, want, (a, f.label))
            _assert_matches_oracle(_series_eval(series, t), oracles.series_eval(want, t),
                                   (a, f.label, "eval"))
        stripped = series.without_content()
        r = (a + 1) % p  # r = 0 on the disk of p - 1
        padics = [stripped.coefficient(n) for n in range(len(stripped))]
        _assert_matches_oracle(stripped.recentered(r, policy.workprec()),
                               oracles.series_shift(padics, r, p, policy.workprec()),
                               (a, "shift", r))


def test_series_kernels_on_mixed_claims_against_padic_oracle():
    """Shift, derivative, Horner and products with a one-coefficient factor
    on a series mixing high claims, low claims, tracked zeros on both sides
    of workprec and exact zeros."""
    p, workprec = 5, 23
    coeffs = [PadicNumber.from_rational(p, F(7, 3), 40),
              PadicNumber.from_rational(p, 50, 12),
              PadicNumber.zero_to(p, 30),
              PadicNumber.exact_zero(p),
              PadicNumber.zero_to(p, 20),
              PadicNumber.from_rational(p, F(-2, 7), 10),
              PadicNumber.from_rational(p, 125 * 3, 26),
              PadicNumber.from_rational(p, 4, 40)]
    series = IntSeries.from_padics(p, coeffs)
    for n, c in enumerate(coeffs):
        assert series.coefficient(n) == c
    for r in range(p):
        _assert_matches_oracle(series.recentered(r, workprec),
                               oracles.series_shift(coeffs, r, p, workprec), ("shift", r))
    _assert_matches_oracle(series.derivative(),
                           [c * (i + 1) for i, c in enumerate(coeffs[1:])], "derivative")
    for x in (PadicNumber.from_rational(p, 3, workprec), PadicNumber.zero_to(p, 9),
              PadicNumber.from_rational(p, F(10, 3), 15), PadicNumber.exact_zero(p)):
        _assert_matches_oracle(_series_eval(series, x), oracles.series_eval(coeffs, x), x)
    # a unit, a tracked zero, an exact zero and a low-precision constant, as
    # either factor, truncated inside and beyond the product's length
    for c in (PadicNumber.from_rational(p, F(7, 3), 40), PadicNumber.zero_to(p, 15),
              PadicNumber.exact_zero(p), PadicNumber.from_rational(p, 10, 4)):
        const = IntSeries.from_padics(p, [c])
        for trunc in (5, len(coeffs) + 2):
            _assert_matches_oracle(_series_multiply(const, series, trunc),
                                   oracles.series_multiply([c], coeffs, trunc, p),
                                   (c, "left", trunc))
            _assert_matches_oracle(_series_multiply(series, const, trunc),
                                   oracles.series_multiply(coeffs, [c], trunc, p),
                                   (c, "right", trunc))


@pytest.mark.parametrize("p, S", [(5, (3,)), (7, (3,)), (13, (3,)), (5, (2,)), (19, (2,))])
def test_locus_for_equals_intersection_of_full_searches(p, S, policy):
    f2 = L.weight2_function(p, S, policy)
    f4 = L.weight4_function(p, S=S, policy=policy)
    full = L.intersect_loci(L.find_zeros(f2), L.find_zeros(f4))
    for symmetrize in (False, True):
        want = L.s3_symmetrize(full) if symmetrize else full
        got = L.locus_for(p, S, 4, policy, symmetrize=symmetrize)
        assert got.to_json() == want.to_json(), symmetrize


@pytest.mark.parametrize("S, p, refined", [((3,), 13, 2), ((3,), 31, 2),
                                           ((2,), 13, 6), ((2,), 31, 14)])
def test_locus_for_refines_only_the_roots_it_reads(S, p, refined, policy, monkeypatch):
    """Of the Hensel roots of both complete searches, Newton refines only
    those intersect_loci compares: the weight-2 roots it reads and the
    weight-4 roots on their disks and residues."""
    calls = []
    real = L._newton_refine

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(L, "_newton_refine", spy)
    locus = L.locus_for(p, S, 4, policy)
    assert len(calls) == refined
    locus.to_json()
    assert len(calls) == refined


@pytest.mark.parametrize("p", [5, 7, 13, 31])
@pytest.mark.parametrize("S", [(2,), (3,)])
def test_zero_residue_is_its_second_digit(S, p, policy):
    """Each zero z = disk + p t keeps residue = t mod p before any Newton step."""
    for f in (L.weight2_function(p, S, policy), L.weight4_function(p, S=S, policy=policy)):
        for zero in L.find_zeros(f).zeros:
            assert zero.residue == zero.z.lift() // p % p, (f.label, zero.disk)


@pytest.mark.parametrize("p", [5, 13])
def test_locus_for_at_equality_threshold_one(p):
    # M - g = 1: points agree on the same disk whatever t mod p, so every
    # class of a disk with a locus point is searched
    policy = PrecisionPolicy(4, 3)
    f2, f4 = L.weight2_function(p, (3,), policy), L.weight4_function(p, S=(3,), policy=policy)
    full = L.intersect_loci(L.find_zeros(f2), L.find_zeros(f4))
    assert L.locus_for(p, (3,), 4, policy).to_json() == full.to_json()


def test_root_search_on_a_flat_or_coarse_series(policy):
    """A series flat to its precision leaves every class a candidate, one
    with too few honest digits the one candidate t = 0; none certified."""
    p, workprec = 13, policy.workprec()
    flat = IntSeries.from_padics(p, [PadicNumber.zero_to(p, 9)] * 4)
    coarse = IntSeries.from_padics(p, [PadicNumber.from_rational(p, c, 3) for c in (1, 2, 1)])
    for series, want in ((flat, range(p)), (coarse, [0])):
        roots = L._roots_in_unit_disk(series, policy, depth=policy.M)
        assert [(r, root().digits(), ok) for r, root, ok in roots] == \
            [(r, PadicNumber.from_rational(p, r, workprec).digits(), False) for r in want]


def test_hensel_root_closes_its_class_only_at_a_unit_derivative():
    """The weight-4 function over Z[1/2] at p = 5 has the root z = 2 on disk
    2, where S'(t) vanishes mod p; its class t = 0 mod 5 holds a second root,
    the inverse of a disk-3 root, which a Hensel root closing its whole
    class would drop."""
    locus = L.find_zeros(L.weight4_function(5, S=(2,), policy=PrecisionPolicy()))
    on_two = [z for z in locus.zeros if z.disk == 2]
    assert len(on_two) == 3 and all(z.certified for z in on_two)
    assert inversion_defect(locus) is None


def inversion_defect(locus):
    """None when a locus is closed under z -> 1/z disk by disk, else what breaks.

    Disks a and b = 1/a mod p must have the same Strassmann bound and as
    many zeros, and the inverse of each zero on a must match (by
    _same_point) exactly one zero on b, with the same certificate.
    """
    p, policy = locus.p, locus.policy
    on = {a: [z for z in locus.zeros if z.disk == a] for a in range(2, p)}
    for a in range(2, p):
        b = pow(a, -1, p)
        if locus.newton_bounds[a] != locus.newton_bounds[b]:
            return "Strassmann bound %d on disk %d, %d on disk %d" % (
                locus.newton_bounds[a], a, locus.newton_bounds[b], b)
        if len(on[a]) != len(on[b]):
            return "disk %d holds %d zeros, disk %d holds %d" % (a, len(on[a]), b, len(on[b]))
        for z in on[a]:
            inverse = 1 / z.z
            matches = [w for w in on[b] if L._same_point(inverse, w.z, policy)]
            if [w.certified for w in matches] != [z.certified]:
                return "the inverse of the zero %s on disk %d" % (z.z.digits(policy.M), a)
    return None


def inversion_mismatch(p, S, policy):
    """The precondition of s3_symmetrize's three images, at one (p, S).

    The full searches of the weight-2 and weight-4 functions must be closed
    under z -> 1/z (inversion_defect), and s3_symmetrize of the weight-2
    and weight-4 loci must equal the six-image reference.  Returns None
    when they are, else a one-line description of the first failure.
    """
    where = "S=%s p=%d" % (S, p)
    searches = [L.find_zeros(L.weight2_function(p, S, policy)),
                L.find_zeros(L.weight4_function(p, S=S, policy=policy))]
    for locus in searches:
        bad = inversion_defect(locus)
        if bad:
            return "%s %s: %s" % (where, locus.functions[0], bad)
    for n, locus in ((2, searches[0]), (4, L.locus_for(p, S, 4, policy))):
        got = L.s3_symmetrize(locus).to_json()
        want = oracles.s3_symmetrize_by_six_images(locus).to_json()
        if got != want:
            return "%s n=%d: s3_symmetrize %r != six images %r" % (where, n, got, want)
    return None


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
@pytest.mark.parametrize("S", [(2,), (3,)])
def test_three_s3_images_suffice(S, p, policy):
    """tests/check_locus_inversion.py runs every prime up to 101."""
    assert inversion_mismatch(p, S, policy) is None


def test_inversion_defect_sees_a_missing_inverse(policy):
    locus = L.find_zeros(L.weight2_function(5, (3,), policy))
    assert inversion_defect(locus) is None
    bounds = locus.newton_bounds
    two = [z for z in locus.zeros if z.rational_guess == F(2)]
    assert inversion_defect(L.Locus(5, policy, two, ["f"], bounds)) == \
        "disk 2 holds 1 zeros, disk 3 holds 0"
    three = known_zero(PadicNumber.from_rational(5, 3, policy.workprec()))
    assert inversion_defect(L.Locus(5, policy, two + [three], ["f"], bounds)) == \
        "the inverse of the zero %s on disk 2" % two[0].z.digits(policy.M)
    assert inversion_defect(L.Locus(5, policy, locus.zeros, ["f"], {**bounds, 2: 9})) == \
        "Strassmann bound 9 on disk 2, 1 on disk 3"


def locus_story(locus, M):
    """What a locus certificate claims to M digits: zeros and Newton bounds."""
    zeros = sorted((z.disk, z.z.val, tuple(z.z.digits(M)), z.certified)
                   for z in locus.zeros)
    return zeros, dict(locus.newton_bounds)


def resampling_mismatch(p, S, M, g, extra=12):
    """Compare locus_for at (M, g) with locus_for at (M + extra, g).

    Both must name the same disks and zeros, with the same digits up to M
    and the same Newton bounds, before and after S3-symmetrizing.  Returns
    None when they do, else a one-line description of the first difference.
    """
    low, high = PrecisionPolicy(M, g), PrecisionPolicy(M + extra, g)
    l_low, l_high = L.locus_for(p, S, 4, low), L.locus_for(p, S, 4, high)
    for sym in (False, True):
        a = L.s3_symmetrize(l_low) if sym else l_low
        b = L.s3_symmetrize(l_high) if sym else l_high
        if locus_story(a, M) != locus_story(b, M):
            return "S=%s p=%d (M, g)=(%d, %d)%s: %r != %r" % (
                S, p, M, g, " symmetrized" if sym else "",
                locus_story(a, M), locus_story(b, M))
    return None


@pytest.mark.parametrize("S, p, M, g", [((2,), 31, 6, 3), ((2,), 31, 5, 2),
                                        ((3,), 13, 8, 3), ((2,), 7, 12, 5)])
def test_locus_certificate_survives_resampling(S, p, M, g):
    """A certified common zero is still there, with the same digits, at
    M + 12: two roots that differ in a digit they both claim are not merged.
    tests/check_locus_resampling.py runs the whole grid."""
    assert resampling_mismatch(p, S, M, g) is None


def test_intersection_keeps_roots_apart_that_disagree_on_claimed_digits():
    # at p = 31, M = 6 the weight-2 and weight-4 roots on disks 7 and 9 agree
    # to M - g = 3 digits but differ in the fourth, which both claim
    policy = PrecisionPolicy(6, 3)
    locus = L.locus_for(31, (2,), 4, policy)
    assert rational_points(locus) == ["-1", "1/2", "2"]
    assert locus.all_certified()
    for z in locus.zeros:
        assert z.z.abs_precision() >= policy.M


def test_s3_symmetrize_matches_orbits_on_every_claimed_digit():
    # the orbit of 2 is {2, 1/2, -1}; a point 31^4 away from -1 agrees with it
    # to M - g = 3 digits but not on the digits both claim, so 2 drops out
    p, policy = 31, PrecisionPolicy(6, 3)

    def locus(*points):
        zeros = []
        for q in points:
            zeros.append(known_zero(PadicNumber.from_rational(p, q, 16)))
        return L.Locus(p, policy, zeros, ["f"])

    kept = L.s3_symmetrize(locus(F(2), F(1, 2), F(-1)))
    assert sorted(z.disk for z in kept.zeros) == [2, 16, 30]
    near = L.s3_symmetrize(locus(F(2), F(1, 2), F(-1) + p ** 4))
    assert near.zeros == []
    # closed under z -> 1/z, but 2/3 = (3 - 1)/3 and its inverse are
    # missing: only the third image drops 3 and -2
    closed = locus(F(3), F(1, 3), F(-2), F(-1, 2))
    assert L.s3_symmetrize(closed).zeros == []
    assert oracles.s3_symmetrize_by_six_images(closed).zeros == []


def test_counterexample_cocycle_multiplies_no_term_with_a_zero_coordinate(monkeypatch, policy):
    # Phi^tau_{e0} = 0, so each odd k's Li_k(alpha) is its head word with its
    # coordinate as coefficient: cocycle_apply takes no ExprFraction product
    import ckpolylog.cocycles as cocycles
    import ckpolylog.symbols as sy
    n, real_apply, real_mul = 20, cocycles.cocycle_apply, sy.ExprFraction.__mul__
    inside, products = [], []

    def mul(self, other):
        products.append(bool(inside))
        return real_mul(self, other)

    def apply(*args):
        inside.append(1)
        try:
            return real_apply(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(sy.ExprFraction, "__mul__", mul)
    monkeypatch.setattr(sy.ExprFraction, "__rmul__", mul)
    monkeypatch.setattr(cocycles, "cocycle_apply", apply)
    row = L.counterexample_cocycle(3, n, 5, policy)
    assert all(row["symbolic"].values())
    # the spy sees the symbolic checks' products, made outside cocycle_apply
    assert False in products
    assert True not in products
