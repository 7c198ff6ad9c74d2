"""Independent numerical oracles used only by the test suite.

A Washington-style partial-sum p-adic L-function, checkable exactly
against its interpolation property at negative integers, serves as the
cross-validation for the engine's zeta values.  The Frobenius-twisted
series summed as log(lambda) = sum (-1)^{m+1} (lambda - 1)^m / m on
PadicNumbers cross-checks the engine's integer log-derivative kernel, and
Horner over every coefficient of a twisted series, unreduced, is the
reference for its reduced, trimmed evaluation.
The residue-disk series rebuilt as lists of PadicNumbers (one object per
coefficient, each operation claiming precision by PadicNumber's own rules)
are the reference for the engine's integer disk tables, Coleman local
series and root-search shifts; the oracle table of a disk a is expanded
about theta_a first, from Li_1(theta_a) = -log(1 - theta_a) and the
engine's Li_k(theta_a), and Horner-evaluated at a for its constants, a
route the engine no longer takes.  log and Li_1 about a center, summed as
integer geometric series, are the references for the engine's one
integration step, and IntSeries.integral reading every coefficient's
valuation is the reference for the one reading those at p | j only.
The lower convex hull of a series' coefficient valuations (the Newton
polygon) is the reference for the Strassmann root bound of loci, the
orbit test over all six Moebius images for s3_symmetrize's three, and
t -> t^p iterated until fixed for the closed-form Teichmueller lift.
The Iwasawa logarithm summed on PadicNumbers is the reference for the
integer one.  The coproducts
accumulated term by term are the references for the cut-by-cut
coproducts in words.  The first-cut Delta' solve rebuilds a period-table
row from its Goncharov coproduct, the route the tables no longer take,
and the dense Delta' solve is the reference for it; the cobar square with one inner Delta' per outer cut and a full
Fraction difference is the reference for the memoized one.  Lyndon words
found by the rotation test, and every word's Lyndon polynomial read off
the inverse of the dense matrix of the Lyndon monomials' shuffle products,
are the references for Duval's factorization and Radford's recursion in
words.  Single matrix entries by the structure theorem (brown_entry) are
the reference for cocycle_apply's substitution into the eval_universal
images.
Last come helpers that only the tests call: Coleman function values at a
point, a ring-independent form of ideal elements, ExprFraction equality,
the inverse of cocycle_apply on its image, the P_3 inversion residual,
log(z) in the f-basis, and a period table's expansion of one symbol.
"""

import math
from fractions import Fraction as F

import ckpolylog.symbols as sy
import ckpolylog.words as wd
from ckpolylog.archimedean import complex_P3
from ckpolylog.cocycles import coordinate_name
from ckpolylog.galois import sigma_id, standard_genset, tau_id
from ckpolylog.padic import EXACT, PadicNumber, iwasawa_log, log_floor, teichmuller, valuation
from ckpolylog.polylog import IntSeries, _power_tables, _top
from ckpolylog.words import ShuffleElement, TensorElement, solve_columns


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
        power = mean ** abs(1 - s)
        total = total + chi * (power if s <= 1 else 1 / power) * inner
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
        power = series_multiply(power, lam1, min(D, len(power) + p), p)
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


def twisted_horner(series, x):
    """A twisted IntSeries at x by Horner over every coefficient, unreduced,
    modulo p^(claim - scale), claimed as IntSeries.evaluate claims it."""
    p, s = series.p, series.scale
    prec = min(min(series.claims), x.abs_precision() + series.min_valuation())
    mod = p ** (prec - s)
    X = x.lift() % mod
    acc = 0
    for c in reversed(series.coeffs):
        acc = (acc * X + c) % mod
    return PadicNumber(p, s, acc, prec - s)


# -- residue-disk series as PadicNumber lists ------------------------------------


def series_eval(coeffs, x):
    """Horner evaluation of sum coeffs[i] * x^i."""
    acc = PadicNumber.exact_zero(x.p)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def series_multiply(a, b, trunc, p):
    out = [PadicNumber.exact_zero(p) for _ in range(trunc)]
    for i, ca in enumerate(a):
        if i >= trunc or ca.is_exact_zero():
            continue
        for j, cb in enumerate(b):
            if i + j >= trunc:
                break
            out[i + j] = out[i + j] + ca * cb
    return out


def log_series_at(eng, center):
    """log(center + p t) as a power series in t."""
    p = eng.p
    out = [iwasawa_log(center)]
    ratio = PadicNumber.from_rational(p, p, eng.workprec) / center
    power = ratio
    for l in range(1, eng.local_degree):
        c = power / l
        if l % 2 == 0:
            c = -c
        out.append(c)
        power = power * ratio
    return out


def li1_series_at(eng, center):
    """-log(1 - center - p t) as a power series in t."""
    p = eng.p
    one_minus = 1 - center
    out = [-iwasawa_log(one_minus)]
    ratio = PadicNumber.from_rational(p, p, eng.workprec) / one_minus
    power = ratio
    for l in range(1, eng.local_degree):
        out.append(power / l)
        power = power * ratio
    return out


def geometric_log_series(eng, center, li1=False):
    """log(center + p t), or Li_1(center + p t) = -log(1 - center - p t)
    when li1, as an IntSeries in t, summed as a geometric series.

    With u = center (u = 1 - center for Li_1), coefficient m >= 1 is
    (p/u)^m / m, its sign alternating for log only.  u is known to R
    digits (R <= workprec), so (p/u)^m claims R + m digits and the
    division by m costs v_p(m) of them, as on PadicNumbers.
    """
    p = eng.p
    unit = 1 - center if li1 else center
    R = min(eng.workprec, unit.rel)
    pw = _power_tables(p, R + eng.local_degree)[0]
    mod = pw[R]
    q = pow(unit.unit, -1, mod)
    qm = 1
    coeffs, claims = [0], [EXACT]
    for m in range(1, eng.local_degree):
        qm = qm * q % mod
        e, w = valuation(m, p)
        c = qm * pow(w, -1, mod) if w != 1 else qm
        if not li1 and m % 2 == 0:
            c = -c
        coeffs.append(pw[m - e] * (c % mod))
        claims.append(R + m - e)
    log = iwasawa_log(unit)
    return IntSeries(p, coeffs, 0, claims).with_constant(-log if li1 else log)


def integral_reading_every_valuation(series):
    """IntSeries.integral with the scale read off every coefficient's
    valuation, v - v_p(j) at each index j."""
    p, s = series.p, series.scale
    index = [valuation(j, p) for j in range(1, len(series.coeffs) + 1)]
    claims = [EXACT] + [A if A == EXACT else A - e
                        for A, (e, _) in zip(series.claims, index)]
    s_new = min([s] + [v - e for v, (e, _) in zip(series.valuations(), index)
                       if v != EXACT])
    pw = _power_tables(p, _top(claims, s_new) + s - s_new)[0]
    coeffs = [0]
    for u, A, (e, w) in zip(series.coeffs, claims[1:], index):
        if not u:
            coeffs.append(0)
            continue
        mod = pw[A - s_new]
        k = s - e - s_new
        u = u * pw[k] if k >= 0 else u // pw[-k]
        coeffs.append(u * pow(w, -1, mod) % mod)
    return IntSeries(p, coeffs, s_new, claims)


def dz_over_z_series(eng, center):
    """p/(center + p t) as a power series in t (the factor in dLi_k)."""
    p = eng.p
    inv = 1 / center
    pfac = PadicNumber.from_rational(p, p, eng.workprec)
    out = []
    power = pfac * inv
    for l in range(eng.local_degree):
        out.append(power if l % 2 == 0 else -power)
        power = power * pfac * inv
    return out


def disk_series(eng, center, values_at_center):
    """Series of log, Li_1..Li_n about a center with known initial values."""
    p, N = eng.p, eng.local_degree
    table = {"log": log_series_at(eng, center)}
    li = li1_series_at(eng, center)
    li[0] = values_at_center[1]
    table["li1"] = li
    dzz = dz_over_z_series(eng, center)
    prev = li
    for k in range(2, eng.max_weight + 1):
        integrand = series_multiply(prev, dzz, N, p)
        cur = [values_at_center[k]]
        for j in range(1, N):
            cur.append(integrand[j - 1] / j)
        table["li%d" % k] = cur
        prev = cur
    return table


def teichmuller_values(eng, a):
    """Li_1..Li_n at theta_a: Li_1 = -log(1 - theta_a), the rest the engine's."""
    theta = eng.teichmuller_point(a)
    return {1: -iwasawa_log(1 - theta), **eng.values_at_teichmuller(a)}


def disk_table(eng, a):
    """The engine's disk table for a, rebuilt on PadicNumber lists."""
    p = eng.p
    theta = eng.teichmuller_point(a)
    theta_table = disk_series(eng, theta, teichmuller_values(eng, a))
    a_pn = PadicNumber.from_rational(p, a, eng.workprec)
    shift = (a_pn - theta) / p
    center_vals = {k: series_eval(theta_table["li%d" % k], shift)
                   for k in range(1, eng.max_weight + 1)}
    return disk_series(eng, a_pn, center_vals)


def local_series(F, table):
    """A Coleman function's series on one disk from an oracle disk table."""
    N = F.engine.local_degree
    zero = PadicNumber.exact_zero(F.p)
    out = [zero] * N
    for mono, c in F.coeffs.items():
        term = [c] + [zero] * (N - 1)
        for name, k in mono:
            for _ in range(k):
                term = series_multiply(term, table[name], N, F.p)
        out = [x + y for x, y in zip(out, term)]
    return out


def series_shift(series, r, p, workprec):
    """Coefficients of S(r + p s) as a series in s."""
    n = len(series)
    pfac = PadicNumber.from_rational(p, p, workprec)
    out = []
    for l in range(n):
        acc = PadicNumber.exact_zero(p)
        for j in range(l, n):
            c = series[j]
            if c.is_exact_zero() or c.unit == 0 and c.val_lower_bound() > workprec:
                continue
            acc = acc + c * math.comb(j, l) * r ** (j - l)
        out.append(acc * pfac ** l)
    return out


# -- root count by the Newton polygon, S3 orbits by six images, Teichmueller -----


def newton_polygon_root_count(series, threshold):
    """Number of roots in the closed unit disk (with multiplicity) from the
    Newton polygon of the known part of a truncated series."""
    pts = [(j, v) for j, (u, v) in enumerate(zip(series.coeffs, series.valuations()))
           if u and v < threshold]
    if not pts:
        return None  # series content below precision
    lead = pts[0][0]  # roots at t = 0 up to this order
    hull = _lower_hull(pts)
    count = lead
    for (j1, v1), (j2, v2) in zip(hull, hull[1:]):
        if v2 <= v1:
            count += j2 - j1
    return count


def _lower_hull(pts):
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def s3_symmetrize_by_six_images(locus):
    """The points of a locus whose whole S3 orbit stays in it: each of the
    six Moebius images matches a locus point (loci._same_point).  Needs no
    closure under z -> 1/z."""
    from ckpolylog.loci import Locus, _same_point

    def images(z):
        return (z, 1 - z, 1 / z, 1 / (1 - z), z / (z - 1), (z - 1) / z)

    pts = [zr.z for zr in locus.zeros]
    keep = [zr for zr in locus.zeros
            if all(any(_same_point(img, q, locus.policy) for q in pts) for img in images(zr.z))]
    return Locus(locus.p, locus.policy, keep, list(locus.functions) + ["s3"],
                 dict(locus.newton_bounds))


def teichmuller_by_iteration(a, p, abs_prec):
    """The (p-1)-st root of unity congruent to a mod p, to abs_prec digits,
    by iterating t -> t^p mod p^abs_prec until it is fixed."""
    a %= p
    if a == 0:
        raise ValueError("no Teichmueller lift of 0")
    t = a
    mod = p ** abs_prec
    for _ in range(abs_prec + 1):
        nt = pow(t, p, mod)
        if nt == t:
            break
        t = nt
    return t


# -- logarithm and coproducts, accumulated ---------------------------------------


def iwasawa_log_by_padic_loop(z):
    """log(1 + t) / (p - 1) with u^(p-1) = 1 + t, summed on PadicNumbers."""
    if z.unit == 0:
        raise ValueError("log of zero")
    p = z.p
    rel = z.rel
    mod = p ** rel
    t = (pow(z.unit, p - 1, mod) - 1) % mod
    if t == 0:
        return PadicNumber.zero_to(p, rel)
    acc = PadicNumber.zero_to(p, rel + 2)
    m = 1
    tp = PadicNumber(p, 0, t, rel)
    power = tp
    while m <= rel + log_floor(m, p) + 1:
        contrib = power / m
        if m % 2 == 0:
            contrib = -contrib
        acc = acc + contrib
        m += 1
        power = power * tp
    return (acc / (p - 1)).truncate_abs(rel)


def _accumulate(terms, key, c):
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def deconcat_by_accumulation(a):
    """Delta(a), adding the coefficient of every cut of every word."""
    terms = {}
    for w, c in a.terms.items():
        for i in range(len(w) + 1):
            _accumulate(terms, (w[:i], w[i:]), c)
    return TensorElement(a.genset, terms)


def reduced_by_accumulation(a):
    """Delta(a) - a (x) 1 - 1 (x) a + eps(a) 1 (x) 1, term by term."""
    terms = dict(deconcat_by_accumulation(a).terms)
    for w, c in a.terms.items():
        _accumulate(terms, (w, ()), -c)
        _accumulate(terms, ((), w), -c)
    _accumulate(terms, ((), ()), a.coefficient(()))
    return TensorElement(a.genset, terms)


def solve_delta_prime(genset, n, target):
    """Find x of pure weight n with Delta'(x) = target.

    The primitive directions (single-letter words of weight n) of x are
    zero; raises ValueError when the system is inconsistent.  The cut
    (w[:1], w[1:]) occurs in Delta'(f_w) alone, so x_w is the target's
    coefficient there; the exact re-check of Delta'(x) = target is the
    certificate.
    """
    words = genset.words_of_weight(n)
    x = ShuffleElement(genset, {w: target.terms.get((w[:1], w[1:]), 0)
                                for w in words if len(w) > 1})
    if wd.reduced_coproduct(x) != target:
        raise ValueError("inconsistent Delta' system at weight %d" % n)
    return x


def solve_delta_prime_dense(genset, n, target):
    """x of pure weight n with Delta'(x) = target by a dense column solve."""
    words = genset.words_of_weight(n)
    images = [reduced_by_accumulation(ShuffleElement.word(genset, w)).terms for w in words]
    vec = solve_columns(images, target.terms)
    if vec is None:
        raise ValueError("inconsistent Delta' system at weight %d" % n)
    return ShuffleElement(genset, dict(zip(words, vec)))


def cobar_square_by_terms(a):
    """(Delta' (x) id - id (x) Delta') Delta'(a), one inner Delta' per outer
    cut and a difference over every key; Delta' is looked up on the module,
    so a patched one is used."""
    gs = a.genset
    left, right = {}, {}
    for (l, r), c in wd.reduced_coproduct(a).terms.items():
        left.update(((x, y, r), d) for (x, y), d in
                    wd.reduced_coproduct(ShuffleElement.word(gs, l, c)).terms.items())
        right.update(((l, x, y), d) for (x, y), d in
                     wd.reduced_coproduct(ShuffleElement.word(gs, r, c)).terms.items())
    return {k: d for k in left.keys() | right.keys()
            if (d := left.get(k, 0) - right.get(k, 0))}


# -- Lyndon words by rotation, and the dense Lyndon inverse ----------------------


def is_lyndon(genset, word):
    """word is nonempty and, by genset.lyndon_key, below each proper rotation."""
    k = genset.lyndon_key(word)
    return len(word) > 0 and all(k < k[i:] + k[:i] for i in range(1, len(word)))


def lyndon_words(genset, max_weight):
    """Lyndon words of weight <= max_weight, in serialization order."""
    return [w for n in range(1, max_weight + 1) for w in genset.words_of_weight(n)
            if is_lyndon(genset, w)]


def lyndon_monomials(genset, n):
    """Multisets of Lyndon words of total weight n (sorted tuples)."""
    lw = lyndon_words(genset, n)
    return sorted(tuple(sorted(w for w, k in zip(lw, e) for _ in range(k)))
                  for e in wd.monomials([genset.word_weight(w) for w in lw], n))


def lyndon_decomposition_dense(genset, n):
    """{word of weight n: {Lyndon monomial: coefficient}}, by inverting the
    matrix whose column j is Lyndon monomial j's shuffle product in words."""
    words = list(genset.words_of_weight(n))
    monos = lyndon_monomials(genset, n)
    assert len(words) == len(monos), "Lyndon monomial count mismatch at weight %d" % n
    index = {w: i for i, w in enumerate(words)}
    m = len(words)
    aug = [[F(0)] * m + [F(int(k == i)) for k in range(m)] for i in range(m)]
    for j, mono in enumerate(monos):
        el = ShuffleElement.one(genset)
        for lw in mono:
            el = wd.shuffle_product(el, ShuffleElement.word(genset, lw))
        for w, c in el.terms.items():
            aug[index[w]][j] = c
    wd.row_reduce(aug, m)
    return {w: {monos[j]: aug[j][m + i] for j in range(m) if aug[j][m + i]}
            for i, w in enumerate(words)}


def brown_entry(word, lam, values, genset):
    """Matrix entry phi^word_lambda(c) via the structure theorem.

    lam is ("e0", i) for e0^i or ("li", k) for e1 e0^{k-1}; values maps
    the coordinate names of c to their values.  Nonzero cases: word =
    g tau_1...tau_r against e1 e0^{n-1} with all tail letters of weight
    one, and pure weight-one words against e0^i (the bookkeeping dual of
    log-powers).  Everything else vanishes.
    """
    kind, k = lam
    wt = genset.word_weight(word)
    if wt != k:
        raise ValueError("word/lambda weight mismatch: %d vs %d" % (wt, k))
    weight = lambda g: genset.word_weight((g,))
    if kind == "e0":
        if any(weight(g) != 1 for g in word):
            return F(0)
        return math.prod(values[coordinate_name(g)] for g in word)
    # lam = e1 e0^{k-1}
    head, tail = word[0], word[1:]
    if any(weight(g) != 1 for g in tail):
        return F(0)
    return (values[coordinate_name(head, weight(head))]
            * math.prod(values[coordinate_name(g)] for g in tail))


# -- helpers only the tests call ------------------------------------------------


def coleman_evaluate(F, z):
    """Value of a ColemanFunction at a point of X(Z_p) (z and 1-z units)."""
    eng = F.engine
    vals = {}
    acc = PadicNumber.exact_zero(F.p)
    for mono, c in F.coeffs.items():
        term = c
        for name, k in mono:
            if name not in vals:
                if name == "log":
                    vals[name] = eng.log(z)
                else:
                    vals[name] = eng.polylog(int(name[2:]), z)
            term = term * vals[name] ** k
        acc = acc + term
    return acc


def canonical_form(g):
    """Ring-independent representation of an IdealElement, for comparisons
    across substitution problems."""
    out = {}
    for key, coeff in g.problem.split(g.poly).items():
        fterms = []
        for e, c in coeff.terms.items():
            mono = tuple((v, k) for v, k in zip(g.problem.ring, e) if k)
            fterms.append((mono, c))
        out[key] = tuple(sorted(fterms))
    return out


def expr_fraction_equals(a, b):
    """a == b for ExprFractions, by cross-multiplying."""
    return (a.num * b.den - b.num * a.den).is_zero()


def extract_coordinates(applied, genset):
    """Invert cocycle_apply on its image: read coordinates off the f-word data.

    Recovers Phi^tau_{e0} from the log component and Phi^g_{e1e0^{s-1}}
    from the pure single-generator words of each Li_k component; the
    round trip is the data-level expression of the isomorphism Psi.
    """
    coords = {}
    log_el = applied["log"]
    for g in genset.generators:
        if g.weight == 1:
            coords[coordinate_name(g.id)] = log_el.coefficient((g.id,))
    maxk = max(int(t[2:]) for t in applied if t.startswith("li"))
    for k in range(1, maxk + 1):
        el = applied["li%d" % k]
        for g in genset.generators:
            if g.weight == k:
                coords[coordinate_name(g.id, k)] = el.coefficient((g.id,))
    return coords


def p3_inversion_residual(x):
    """|P_3(x) - P_3(1/x)|, zero by the inversion symmetry of P_3."""
    return abs(complex_P3(x) - complex_P3(1.0 / x))


def kummer_degree_one(z, S, genset=None):
    """log(z) in the f-basis: sum over ell in S of ord_ell(z) f_{tau_ell}.

    Torsion dies (log(-1) = 0); a prime outside S in the support of z is
    an error naming the offender.
    """
    z = F(z)
    if z == 0:
        raise ValueError("log of zero")
    genset = genset or standard_genset(S, 1)
    el = ShuffleElement(genset)
    rest = abs(z)
    for ell in sorted(S):
        v, rest = valuation(rest, ell)
        if v:
            el = el + ShuffleElement.word(genset, (tau_id(ell),), F(v))
    if rest != 1:
        bad = sy._factor(rest.numerator * rest.denominator)
        raise ValueError("%s is not an S-unit for S=%s: prime %d interferes"
                         % (z, sorted(S), min(bad)))
    return el


def expand_in_basis(table, symbol):
    """(word form, primitive coefficient) of one symbol in a period table."""
    if isinstance(symbol, sy.Expression):
        mono = list(symbol.terms)
        if len(mono) != 1 or len(mono[0]) != 1 or symbol.terms[mono[0]] != 1:
            raise ValueError("expand_in_basis wants a single symbol")
        symbol = mono[0][0]
    form = table.entries[symbol]
    sigma = (sigma_id(symbol.weight),)
    prim = form.coefficient(sigma)
    return form - ShuffleElement.word(table.genset, sigma, prim), prim
