"""Chabauty-Kim ideal generators by eliminating cocycle coordinates.

The universal evaluation image expresses log and Li_1..Li_n as polynomials
in the cocycle coordinates with coefficients in the Galois coordinate
ring.  The ideal of relations among the targets is the kernel of that
substitution; it is computed three ways:

  * lexicographic Groebner elimination of the graph ideal with the
    cocycle coordinates ordered first, the route `ideal` runs,
  * the structured shortcut, which writes the half-weight 2 and 4
    generators g_2 and g_4 over Z[1/ell] in closed form; every `locus`
    builds its functions from it, and the tests check that it and
    Buchberger agree,
  * brute-force graded linear algebra on coefficient vectors (used by
    the test suite to certify completeness degree by degree).

Polynomials are words.LinearCombination subclasses keyed by dense
exponent tuples, with Fraction coefficients and lex order.

SubstitutionProblem lays the ring out once, in lex order, earliest
variable heaviest:

  * the cocycle block: the names of cocycles.coordinate_name, read off the
    image's monomials and sorted, each of half-weight 0;
  * the targets: the keys of cocycles.eval_universal's images, heaviest
    first (li_n, ..., li1, log), each weighing what the f-words of its
    image weigh (k for li_k, 1 for log);
  * the Galois coordinates: the Lyndon words the images use, their
    f-coefficients written in Lyndon words, in word_sort_key order, each
    weighing its half-weight.  The ring on all Lyndon words is free over
    theirs, so the other words would not change the kernel's generators.

"Phi[sigma_..." sorts before "Phi[tau_...", so the sigma coordinates rank
highest and are eliminated first, the order the structured shortcut
takes.  The generators do not depend on that order: the reduced basis of
the elimination ideal is unique for the fixed order of the target and
Galois variables.  SubstitutionProblem.split cuts a polynomial into its
Li-monomials (products of targets) with coefficient polynomials in the
rest of the ring; the serializer, the substitution and the period
specialization all read that one split.

Buchberger's guard is the module constants: a basis element above degree
MAX_DEGREE, or more than MAX_STEPS reduction steps in one groebner or
ideal_member call, raises EliminationGuard.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from . import cocycles, words


class EliminationGuard(RuntimeError):
    """Degree or step budget exceeded during Buchberger's algorithm."""


MAX_DEGREE = 12
MAX_STEPS = 10 ** 6


class Poly(words.LinearCombination):
    """Multivariate polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("ring",)
    _context = "ring"
    _key = tuple

    def __init__(self, ring, terms=None):
        self.ring = ring
        super().__init__(terms and {e: Fraction(c) for e, c in terms.items()})

    @classmethod
    def var(cls, ring, name):
        e = [0] * len(ring)
        e[ring.index(name)] = 1
        return cls(ring, {tuple(e): Fraction(1)})

    @staticmethod
    def _mul_keys(e1, e2):
        return tuple(map(add, e1, e2))

    def _factors(self, e):
        return [v for v, k in zip(self.ring, e) for _ in range(k)]

    def leading(self):
        e = max(self.terms)  # lex on exponent tuples
        return e, self.terms[e]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def content_normalize(self):
        """Integer coefficients, content one, positive leading coefficient."""
        if not self.terms:
            return self
        den = lcm(*(c.denominator for c in self.terms.values()))
        num = gcd(*(c.numerator * (den // c.denominator) for c in self.terms.values()))
        out = self.scale(Fraction(den, num))
        if out.leading()[1] < 0:
            out = out.scale(-1)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join("%s^%d" % (v, k) if k > 1 else v
                            for v, k in zip(self.ring, e) if k)
            bits.append("%s*%s" % (c, mono) if mono else str(c))
        return " + ".join(bits)


def _divides(ea, eb):
    return all(a <= b for a, b in zip(ea, eb))


def _exp_sub(ea, eb):
    return tuple(a - b for a, b in zip(ea, eb))


def _exp_lcm(ea, eb):
    return tuple(max(a, b) for a, b in zip(ea, eb))


def reduce_poly(f, basis, steps):
    """Full multivariate division of f by the basis (lex order).

    steps numbers the reduction steps of one computation (an itertools.count
    its calls share); past MAX_STEPS it raises EliminationGuard.
    """
    rem = Poly(f.ring)
    work = f
    while work.terms:
        e, c = work.leading()
        hit = None
        for g in basis:
            ge, gc = g.leading()
            if _divides(ge, e):
                hit = (g, ge, gc)
                break
        if hit is None:
            rem = rem + Poly(f.ring, {e: c})
            work = work - Poly(f.ring, {e: c})
            continue
        g, ge, gc = hit
        factor = Poly(f.ring, {_exp_sub(e, ge): c / gc})
        work = work - factor * g
        if next(steps) > MAX_STEPS:
            raise EliminationGuard("reduction step budget %d exceeded" % MAX_STEPS)
    return rem


def groebner(gens):
    """Buchberger with the lcm criterion; returns the reduced lex basis."""
    steps = itertools.count(1)
    basis = [g for g in gens if g.terms]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        ei, ci = fi.leading()
        ej, cj = fj.leading()
        l = _exp_lcm(ei, ej)
        if l == tuple(a + b for a, b in zip(ei, ej)):
            continue  # coprime leading monomials
        si = Poly(fi.ring, {_exp_sub(l, ei): Fraction(1) / ci})
        sj = Poly(fj.ring, {_exp_sub(l, ej): Fraction(1) / cj})
        s = si * fi - sj * fj
        s = reduce_poly(s, basis, steps)
        if s.terms:
            if s.total_degree() > MAX_DEGREE:
                raise EliminationGuard(
                    "degree %d exceeds guard %d" % (s.total_degree(), MAX_DEGREE))
            basis.append(s)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # inter-reduce to the unique reduced basis
    reduced = []
    for i, g in enumerate(basis):
        others = [h for j, h in enumerate(basis) if j != i and h.terms]
        r = reduce_poly(g, others, steps)
        if r.terms:
            reduced.append(r.scale(Fraction(1) / r.leading()[1]))
    # drop duplicates, sort for determinism
    uniq = {}
    for g in reduced:
        uniq[tuple(sorted(g.terms.items()))] = g
    return sorted(uniq.values(), key=lambda g: sorted(g.terms.items(), reverse=True))


def ideal_member(f, basis_gens):
    return not reduce_poly(f, groebner(basis_gens), itertools.count(1)).terms


# -- the substitution ring ---------------------------------------------------


def f_var_name(lyndon_word):
    return "f[%s]" % ".".join(lyndon_word)


class SubstitutionProblem:
    """The graph ideal of the universal evaluation image, ready to eliminate.

    Every block of ring is read off the images of
    cocycles.eval_universal, each expanded once into (coordinate monomial,
    Lyndon monomial, coefficient) triples.  ring names the variables and
    half_weights weighs them; li_names lists the targets in the image's
    order, log first, and li_index their positions in ring.
    """

    def __init__(self, n, S):
        from .galois import standard_genset
        self.n = n
        self.S = tuple(sorted(S))
        self.genset = standard_genset(self.S, n)
        images = cocycles.eval_universal(n, self.genset)
        triples = {tgt: [(mono, lyndon_mono, c) for mono, fel in poly.items()
                         for lyndon_mono, c in words.element_as_lyndon_poly(fel).items()]
                   for tgt, poly in images.items()}
        self.phi_names = sorted({name for poly in images.values()
                                 for mono in poly for name in mono})
        lyndon = sorted({w for image in triples.values() for _, lyndon_mono, _ in image
                         for w in lyndon_mono}, key=self.genset.word_sort_key)
        self.li_names = list(images)
        targets = self.li_names[::-1]
        # lex order: cocycle coordinates > targets, heaviest first > Galois coordinates
        self.ring = tuple(self.phi_names + targets + [f_var_name(w) for w in lyndon])
        # a target weighs what the f-words of its image weigh
        self.half_weights = tuple(
            [0] * len(self.phi_names)
            + [max(w for fel in images[t].values() for w in fel.weights()) for t in targets]
            + [self.genset.word_weight(w) for w in lyndon])
        index = {name: i for i, name in enumerate(self.ring)}
        self.li_index = [index[name] for name in self.li_names]
        self.image_polys = {}
        for tgt, image in triples.items():
            terms = {}
            for mono, lyndon_mono, c in image:
                e = [0] * len(self.ring)
                for name in mono + tuple(map(f_var_name, lyndon_mono)):
                    e[index[name]] += 1
                words.add_term(terms, tuple(e), c)
            self.image_polys[tgt] = Poly(self.ring, terms)

    def graph_ideal(self):
        return [Poly.var(self.ring, tgt) - self.image_polys[tgt] for tgt in self.li_names]

    def split(self, poly):
        """{Li-monomial ((target, power), ...) in li_names order: coefficient Poly}.

        The coefficient holds the terms of poly with that Li-monomial, the
        targets' exponents set to zero.
        """
        out = {}
        for e, c in poly.terms.items():
            key = tuple((name, e[i]) for name, i in zip(self.li_names, self.li_index) if e[i])
            rest = list(e)
            for i in self.li_index:
                rest[i] = 0
            out.setdefault(key, {})[tuple(rest)] = c
        return {key: Poly(self.ring, terms) for key, terms in out.items()}

    def substitute(self, poly):
        """Replace each target variable by its image (verify_vanishing core):
        the sum over Li-monomials of coefficient * prod image^power."""
        out = Poly(self.ring)
        for key, coeff in self.split(poly).items():
            for name, k in key:
                coeff = coeff * self.image_polys[name] ** k
            out = out + coeff
        return out

    def weight(self, poly):
        """Total half-weight when homogeneous, else None."""
        wts = {sum(map(mul, self.half_weights, e)) for e in poly.terms}
        return wts.pop() if len(wts) == 1 else None


class IdealElement:
    """Polynomial in log, Li_1..Li_n with Galois-coordinate coefficients."""

    def __init__(self, problem, poly):
        self.problem = problem
        self.poly = poly
        self.weight = problem.weight(poly)

    def normalized(self):
        return IdealElement(self.problem, self.poly.content_normalize())

    def __repr__(self):
        return repr(self.poly)

    def to_json(self):
        rows = []
        for key, coeff in sorted(self.problem.split(self.poly).items()):
            mono = []
            for name, k in key:
                label = "log" if name == "log" else "Li%s" % name[2:]
                mono.extend([label] * k)
            rows.append({"liMonomial": mono, "coeff": repr(coeff)})
        return {"weight": self.weight, "terms": rows}


def ck_ideal_generators(n, S):
    """Minimal graded generators of the elimination kernel, normalized.

    Certified for n <= 4 and |S| = 1 by the cross-checks in the test
    suite; larger inputs run the same machinery best-effort.
    """
    prob = SubstitutionProblem(n, S)
    gb = groebner(prob.graph_ideal())
    # the cocycle block leads the lex order, so a basis element is free of
    # it exactly when its leading monomial is
    phi = len(prob.phi_names)
    eliminated = [g for g in gb if not any(g.leading()[0][:phi])]
    eliminated.sort(key=lambda g: (prob.weight(g) or 10 ** 9, sorted(g.terms)))
    kept = []
    for g in eliminated:
        if kept and ideal_member(g, kept):
            continue
        kept.append(g)
    out = [IdealElement(prob, g).normalized() for g in kept]
    out.sort(key=lambda el: (el.weight or 10 ** 9, sorted(el.poly.terms.items())))
    return out


def verify_vanishing(element):
    """Substitute the evaluation image and expand; True iff identically zero."""
    return element.problem.substitute(element.poly).is_zero()


def structured_shortcut_generators(S):
    """The half-weight 2 and 4 generators over Z[1/ell], written in closed
    form: g_2 = Li_2 - (1/2) log Li_1 and the displayed g_4.  Every `locus`
    builds its functions from these, `ideal` runs Buchberger instead
    (ck_ideal_generators), and the tests check that the two agree.
    |S| = 1 only."""
    if len(S) != 1:
        raise ValueError("shortcut requires |S| = 1")
    prob = SubstitutionProblem(4, S)
    ring = prob.ring
    v = lambda name: Poly.var(ring, name)
    tau = next(g.id for g in prob.genset.generators if g.weight == 1)
    sig = next(g.id for g in prob.genset.generators if g.weight == 3)
    f_t = v(f_var_name((tau,)))
    f_s = v(f_var_name((sig,)))
    f_st = v(f_var_name((sig, tau)))
    g2 = v("li2") - Fraction(1, 2) * v("log") * v("li1")
    g4 = (f_s * f_t * v("li4") - f_st * v("log") * v("li3")
          - Fraction(1, 24) * v("log") ** 3 * v("li1") * (f_s * f_t - 4 * f_st))
    return prob, [IdealElement(prob, g2).normalized(), IdealElement(prob, g4).normalized()]


def graded_kernel_dimension(prob, weight, max_li_degree=6):
    """Brute-force kernel of the substitution map in one total weight.

    Returns (dimension, basis polys).  Candidates are all products of an
    Li-monomial and an f-monomial of complementary weight.
    """
    ring = prob.ring
    li_monos = _li_monomials(prob, weight, max_li_degree)
    cands = []
    for lm, lw in li_monos:
        for fm in _f_monomials(prob, weight - lw):
            e = [0] * len(ring)
            for name, k in lm:
                e[ring.index(name)] += k
            for name, k in fm:
                e[ring.index(name)] += k
            cands.append(tuple(e))
    images = [prob.substitute(Poly(ring, {e: Fraction(1)})) for e in cands]
    keys = sorted({k for im in images for k in im.terms})
    kidx = {k: i for i, k in enumerate(keys)}
    rows = len(keys)
    mat = [[Fraction(0)] * len(cands) for _ in range(rows)]
    for j, im in enumerate(images):
        for k, c in im.terms.items():
            mat[kidx[k]][j] = c
    null = _nullspace(mat, len(cands))
    basis = [Poly(ring, {cands[j]: vec[j] for j in range(len(cands)) if vec[j]})
             for vec in null]
    return len(null), basis


def _li_monomials(prob, max_weight, max_degree):
    """Nonempty Li-monomials of weight <= max_weight, with their weights.

    A last slack variable of weight one takes up the weight left over.
    """
    names = prob.li_names
    out = []
    weights = [prob.half_weights[i] for i in prob.li_index]
    for *e, slack in words.monomials(weights + [1], max_weight):
        if 0 < sum(e) <= max_degree:
            out.append((tuple((n, k) for n, k in zip(names, e) if k), max_weight - slack))
    return out


def _f_monomials(prob, weight):
    f_block = slice(len(prob.phi_names) + len(prob.li_names), None)
    names = prob.ring[f_block]
    return [tuple((n, k) for n, k in zip(names, e) if k)
            for e in words.monomials(prob.half_weights[f_block], weight)]


def _nullspace(mat, ncols):
    rows = [row[:] for row in mat]
    basic, _ = words.row_reduce(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in basic:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for c, r in basic.items():
                vec[c] = -rows[r][fc]
            basis.append(vec)
    return basis


def specialize_coefficients(element, assignment):
    """The period specialization: the ring map sending each Galois coordinate
    of an IdealElement's coefficients to its period expression.

    assignment maps Lyndon-word tuples to motivic Expressions; raises
    naming any missing coordinate.  Returns {Li-monomial: Expression}.
    """
    from .symbols import Expression
    named = {f_var_name(k): v for k, v in assignment.items()}

    def image(name):
        if name not in named:
            raise KeyError("no period assignment for coordinate %s" % name)
        return named[name]

    return {key: coeff.evaluate(image, Expression.const)
            for key, coeff in element.problem.split(element.poly).items()}
