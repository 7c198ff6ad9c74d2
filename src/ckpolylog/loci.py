"""Chabauty-Kim loci: Coleman functions, disk-by-disk zeros, symmetrization.

A Coleman function here is a polynomial in log, Li_1..Li_n with p-adic
coefficients.  Zero finding composes the residue-disk power series of the
polylogarithms, bounds roots per disk by Strassmann's theorem (the largest
index of least valuation among the known coefficients of the truncated
series), isolates them by exhaustive digit refinement and certifies a
root by Hensel's lemma when the derivative is a unit at its residue, which
makes it the only root of that residue class; every other root of the known
part is found too, and one that cannot be certified is reported loudly as a
candidate, never dropped.

Root isolation runs on integer vectors (polylog.IntSeries with one claim
per coefficient).  The Strassmann bound reads the coefficient valuations; the
content is stripped by moving the power-of-p scale
(IntSeries.without_content); and once every claim is at least 3, Hensel's
lemma is decided mod p: S(r) and S'(r) mod p need only the coefficients mod
p (IntSeries.residues), so the p candidate residues of a disk cost
small-integer Horner steps.  Only a Hensel root is evaluated with full
claims, by Newton refinement, and the recentering S(r + p s)
(IntSeries.recentered) claims each coefficient as the PadicNumber sum would.

Every function gets the same complete search, but a zero z = a + p t
keeps its residue r = t mod p, which the digit search knows before any
Newton step, and a Hensel root is refined only when its z or rational
guess is first read.  Two points agree when val(z - z') >= M - g, which
from 2 up needs the same disk and the same residue, so intersect_loci
reads only such pairs: of the weight-4 roots, only those in the classes
of the weight-2 locus are refined.

A locus holds at one PrecisionPolicy (M, g): the function builders take
it, find_zeros reads it off the ColemanFunction, s3_symmetrize off the
Locus, and intersect_loci rejects two loci at different policies.
"""

from __future__ import annotations

from functools import cached_property, partial
from fractions import Fraction

from . import cocycles, galois
from . import symbols as sy
from .padic import EXACT, PadicNumber, PrecisionError, padic_agree, rational_reconstruct
from .polylog import IntSeries, get_engine, unsupported_prime, _series_eval, _series_multiply


class ColemanFunction:
    """Polynomial in {log, li1..lin} with PadicNumber coefficients."""

    def __init__(self, p, policy, coeffs, label=""):
        self.p = p
        self.policy = policy
        self.coeffs = dict(coeffs)
        self.label = label

    @property
    def engine(self):
        return get_engine(self.p, self.policy)

    def local_series(self, a):
        """Power series on the disk of a in t, z = a + p t, as one IntSeries."""
        eng = self.engine
        table = eng.disk_table(a)
        N = eng.local_degree
        out = IntSeries(self.p, [0] * N, 0, [EXACT] * N)
        for mono, c in self.coeffs.items():
            if c.is_exact_zero():
                continue
            term = IntSeries.from_padics(self.p, [c])
            for name, k in mono:
                for _ in range(k):
                    term = _series_multiply(term, table[name], N)
            out = out + term
        return out


def assemble_coleman(specialized, p, policy, label=""):
    """Evaluate the period coefficients of a specialized ideal generator.

    specialized maps Li-monomials to motivic Expressions (the output of
    specialize_coefficients); bad-disk coefficients propagate as errors.
    """
    eng = get_engine(p, policy)
    coeffs = {}
    for mono, expr in specialized.items():
        coeffs[tuple(mono)] = eng.period(expr)
    return ColemanFunction(p, policy, coeffs, label=label)


def weight2_function(p, S, policy):
    """The half-weight 2 function 2 Li_2 - log Li_1 for Z = Spec Z[1/ell] (the shortcut's g2)."""
    from .elimination import specialize_coefficients, structured_shortcut_generators
    prob, gens = structured_shortcut_generators(set(S))
    return assemble_coleman(specialize_coefficients(prob, gens[0], {}), p, policy, label="wt2")


def weight4_function(p, S, policy):
    """The half-weight 4 function for Z = Spec Z[1/ell] with period coefficients."""
    from .elimination import specialize_coefficients, structured_shortcut_generators
    prob, gens = structured_shortcut_generators(set(S))
    assignment = galois.specialization_assignment(S)
    spec = specialize_coefficients(prob, gens[1], assignment)
    return assemble_coleman(spec, p, policy, label="wt4[S=%s]" % ",".join(map(str, S)))


class Zero:
    """A zero z = disk + p t of a Coleman function, with its certificate.

    residue is t mod p.  locate() returns z and its rational guess (or
    None); it runs once, when either is first read.
    """

    def __init__(self, disk, residue, certified, multiplicity_bound, locate):
        self.disk, self.residue = disk, residue
        self.certified = certified
        self.multiplicity_bound = multiplicity_bound
        self._locate = locate

    @cached_property
    def _point(self):
        return self._locate()

    z = property(lambda self: self._point[0])
    rational_guess = property(lambda self: self._point[1])

    def to_json(self, digit_count):
        return {
            "disk": self.disk,
            "valuation": self.z.val if not self.z.is_zeroish() else None,
            "digits": self.z.digits(digit_count),
            "rationalGuess": None if self.rational_guess is None
            else "%d/%d" % (self.rational_guess.numerator, self.rational_guess.denominator),
            "certified": self.certified,
            "multiplicityBound": self.multiplicity_bound,
        }


class Locus:
    """Zeros on X(Z_p) of the named functions, with per-disk Strassmann bounds."""

    def __init__(self, p, policy, zeros, functions, newton_bounds=None):
        self.p, self.policy = p, policy
        self.zeros, self.functions = zeros, functions
        self.newton_bounds = {} if newton_bounds is None else newton_bounds

    def all_certified(self):
        return all(z.certified for z in self.zeros)

    def to_json(self):
        return {
            "p": self.p,
            "functions": list(self.functions),
            "policy": {"M": self.policy.M, "g": self.policy.g},
            "newtonBounds": {str(k): v for k, v in sorted(self.newton_bounds.items())},
            "zeros": [z.to_json(self.policy.M) for z in sorted(
                self.zeros, key=lambda w: (w.disk, w.z.digits()))],
        }


def newton_root_bound(series, threshold):
    """Strassmann's bound on the roots in the closed unit disk (with
    multiplicity) of the known part of a truncated series: the largest index
    of least valuation among the nonzero coefficients of valuation below
    threshold, where the Newton polygon stops falling; None when there are
    none (the series content is below precision)."""
    pts = [(v, j) for j, (u, v) in enumerate(zip(series.coeffs, series.valuations()))
           if u and v < threshold]
    if not pts:
        return None
    least = min(v for v, _ in pts)
    return max(j for v, j in pts if v == least)


def _newton_refine(series, deriv, t0, workprec):
    t = t0
    for _ in range(max(6, workprec.bit_length() + 2)):
        ft = _series_eval(series, t)
        dt = _series_eval(deriv, t)
        if not ft:
            break
        t = t - ft / dt
    return t


def _roots_in_unit_disk(series, policy, depth):
    """Exhaustive digit search for roots t in Z_p; returns (r, root,
    certified) triples, r = t mod p and root() computing t.

    Each level strips the p-power content so that the residue test
    branches on the nonzero reduction mod p (at most deg-many residues).
    A residue r with S(r) = 0 mod p is closed by Hensel's lemma only when
    S'(r) is a unit: then the class t = r mod p holds exactly one root, and
    root() refines it by Newton.  Every other such residue is recentered
    and searched again, so no root of the known part is dropped.
    """
    p, workprec = series.p, policy.workprec()
    stripped = series.without_content()
    if stripped is None:
        return [(r, partial(PadicNumber.from_rational, p, r, workprec), False) for r in range(p)]
    window = min(stripped.claims)
    if window <= policy.g + 2:
        # not enough honest digits left to separate roots
        return [(0, partial(PadicNumber.from_rational, p, 0, workprec), False)]
    deriv = stripped.derivative()
    # every claim is at least window >= 3, so S(r) and S'(r) mod p are read
    # off the coefficients mod p, by small-integer Horner steps
    series_top_first = stripped.residues()[::-1]
    deriv_top_first = deriv.residues()[::-1]

    def mod_p(top_first, r):
        acc = 0
        for c in top_first:
            acc = (acc * r + c) % p
        return acc

    found = []
    for r in range(p):
        if mod_p(series_top_first, r):
            continue
        rv = PadicNumber.from_rational(p, r, workprec)
        if mod_p(deriv_top_first, r):
            found.append((r, partial(_newton_refine, stripped, deriv, rv, workprec), True))
        elif depth <= 0:
            found.append((r, lambda rv=rv: rv, False))
        else:
            shifted = stripped.recentered(r, workprec)
            found.extend((r, lambda rv=rv, s=s: rv + p * s(), ok)
                         for _, s, ok in _roots_in_unit_disk(shifted, policy, depth - 1))
    return found


def _locate(p, a, root, workprec):
    """z = a + p t for a root t on disk a, and its rational guess or None."""
    z = a + p * root()
    try:
        return z, rational_reconstruct(z.truncate_abs(workprec), 1000, 1000)
    except ValueError:
        return z, None


def find_zeros(F):
    """All zeros of F on X(Z_p), disk by disk, with certificates at F.policy.

    A certified zero is a Hensel root at a unit derivative, the only root
    of its residue class; it is refined only when first read.
    """
    p, policy = F.p, F.policy
    threshold = policy.workprec() - policy.g
    zeros = []
    bounds = {}
    for a in range(2, p):
        series = F.local_series(a)
        bound = newton_root_bound(series, threshold)
        if bound is None:
            raise ArithmeticError(
                "function %s is zero to working precision on disk %d"
                % (F.label or "<anon>", a))
        bounds[a] = bound
        if bound == 0:
            continue
        for r, root, certified in _roots_in_unit_disk(series, policy, depth=policy.M):
            zeros.append(Zero(a, r, certified, 1 if certified else bound,
                              partial(_locate, p, a, root, policy.workprec())))
    return Locus(p, policy, zeros, [F.label] if F.label else [], bounds)


def _same_point(x, y, policy):
    """x and y agree to the equality threshold and on every digit both claim."""
    return padic_agree(x, y, policy) and (x - y).is_zeroish()


def intersect_loci(l1, l2):
    """Common points: a root of each function, merged by _same_point.

    A merged zero is certified when both roots are: each function has a
    Hensel root there and the two roots agree on every digit both claim.
    That does not prove the two roots equal.  From M - g >= 2 on, only
    zeros on the same disk and residue are compared, so no other is refined.
    """
    if (l1.p, l1.policy) != (l2.p, l2.policy):
        raise ValueError("loci at different primes or policies")
    policy = l1.policy
    any_class = policy.equality_threshold < 2
    zeros = []
    for z1 in l1.zeros:
        for z2 in l2.zeros:
            if (any_class or (z1.disk, z1.residue) == (z2.disk, z2.residue)) and \
                    _same_point(z1.z, z2.z, policy):
                point = z1.z, z1.rational_guess or z2.rational_guess
                zeros.append(Zero(z1.disk, z1.residue, z1.certified and z2.certified,
                                  min(z1.multiplicity_bound, z2.multiplicity_bound),
                                  lambda point=point: point))
                break
    merged = {}
    for z in zeros:
        merged.setdefault((z.disk, tuple(z.z.digits(policy.M))), z)
    return Locus(l1.p, policy, list(merged.values()),
                 sorted(set(l1.functions) | set(l2.functions)), dict(l1.newton_bounds))


# half-weights of the Chabauty-Kim functions this module builds; a bound n
# above the last one narrows the locus to these functions
FUNCTION_WEIGHTS = (2, 4)


def used_weights(n):
    """The function weights locus_for uses for the half-weight bound n."""
    return [w for w in FUNCTION_WEIGHTS if w <= n]


def locus_for(p, S, n, policy, symmetrize=False):
    """The full pipeline: functions for the weight bound, zeros, intersection."""
    build = {2: lambda: weight2_function(p, S, policy),
             4: lambda: weight4_function(p, S=tuple(sorted(S)), policy=policy)}
    fns = [build[w]() for w in used_weights(n)]
    if not fns:
        raise ValueError("no Chabauty-Kim functions below weight 2")
    locus = find_zeros(fns[0])
    for f in fns[1:]:
        locus = intersect_loci(locus, find_zeros(f))
    if symmetrize:
        locus = s3_symmetrize(locus)
    return locus


def s3_images(z):
    """z, 1 - z and (z - 1)/z: the S3 orbit of z up to z -> 1/z."""
    return (z, 1 - z, (z - 1) / z)


def s3_symmetrize(locus):
    """Intersection of the locus with its six Moebius translates.

    The locus must be closed under z -> 1/z, as every locus_for locus is:
    each generator is odd under inversion (log p = 0, zeta_p(even) = 0),
    and the root search is complete.  The other three images are then
    inverses of s3_images, so a point survives iff each of its three
    images matches a locus point by _same_point, at the locus's policy.
    """
    policy = locus.policy
    pts = [z.z for z in locus.zeros]
    keep = [zr for zr in locus.zeros
            if all(any(_same_point(img, q, policy) for q in pts) for img in s3_images(zr.z))]
    return Locus(locus.p, policy, keep, list(locus.functions) + ["s3"],
                 dict(locus.newton_bounds))


# -- the counterexample cocycle ------------------------------------------------

def counterexample_cocycle(ell, n, p, policy):
    """Verify that -1 lies in the weight-n polylogarithmic locus over Z[1/ell].

    Each odd k <= n has a head word and a dual, (tau, log ell) at k = 1 and
    (sigma_k, zeta(k)) for k >= 3.  The field-valued cocycle has
    Phi^tau_{e0} = 0 and Phi^head_{li k} = Li_k(-1)/dual.  Symbolically its
    log and even Li_k vanish and each odd Li_k(alpha) is its head word alone,
    with coefficient * dual = Li_k(-1): cocycle_apply never reads the zero
    Phi^tau_{e0}, so it builds those head terms alone.  Numerically the
    p-adic log and even Li_k vanish at -1, and zeta_p(k) does not vanish to
    working precision.  Returns the certificate row, passed when every check
    holds at policy.
    """
    if (reason := unsupported_prime(p)) or p == ell:
        raise ValueError(reason or "need p different from ell")
    genset = galois.standard_genset({ell}, n)
    tau = galois.tau_id(ell)
    minus_one = Fraction(-1)
    heads = {k: (tau, sy.log_u(ell)) if k == 1 else (galois.sigma_id(k), sy.zeta_u(k))
             for k in range(1, n + 1, 2)}
    coords = {cocycles.coordinate_name(tau): sy.ExprFraction(sy.Expression())}
    for k, (head, dual) in heads.items():
        coords[cocycles.coordinate_name(head, k)] = sy.ExprFraction(sy.li_u(k, minus_one), dual)
    applied = cocycles.cocycle_apply(coords, genset, n)

    symbolic = {"log(alpha) = 0": applied["log"].is_zero()}
    for k in range(2, n + 1, 2):
        symbolic["Li%d(alpha) = 0" % k] = applied["li%d" % k].is_zero()
    for k, (head, dual) in heads.items():
        terms = applied["li%d" % k].terms
        symbolic["Li%d(alpha) = Li%d(-1)" % (k, k)] = terms.keys() == {(head,)} and (
            terms[(head,)] * sy.ExprFraction(dual)).equals_expression(sy.li_u(k, minus_one))

    eng = get_engine(p, policy, max_weight=max(4, n))
    numeric = {"log_p(-1)": eng.log(minus_one).val_lower_bound()}
    for k in range(2, n + 1, 2):
        numeric["Li_%d(-1)" % k] = eng.polylog(k, minus_one).val_lower_bound()
    guard = True
    try:
        for k in range(3, n + 1, 2):
            eng.zeta_nonzero(k)
    except PrecisionError:
        guard = False
    passed = (guard and all(symbolic.values())
              and all(v >= policy.equality_threshold for v in numeric.values()))
    return {"ell": ell, "n": n, "p": p, "symbolic": symbolic, "numericValuations": numeric,
            "zetaNonzeroGuard": guard, "passed": passed}
