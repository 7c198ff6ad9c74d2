"""Chabauty-Kim ideal generators by eliminating cocycle coordinates.

The universal evaluation image expresses log and Li_1..Li_n as polynomials
in the cocycle coordinates with coefficients in the Galois coordinate
ring.  The ideal of relations among the targets is the kernel of that
substitution; we compute it three ways:

  * lexicographic Groebner elimination of the graph ideal with the
    cocycle coordinates ordered first (the certified route),
  * the structured shortcut that solves the Li_3 image for the sigma_3
    coordinate Phi[sigma_3;li3] and substitutes into the Li_4 image
    (cross-check),
  * brute-force graded linear algebra on coefficient vectors (used by
    the test suite to certify completeness degree by degree).

Polynomials are words.LinearCombination subclasses keyed by dense
exponent tuples, with Fraction coefficients and lex order.

The ring's cocycle variables are the names of cocycles.coordinate_name,
read off the image's monomials and sorted.  Earlier variables weigh more
in lex, and "Phi[sigma_..." sorts before "Phi[tau_...", so the sigma
coordinates rank highest and are eliminated first, the order the
structured shortcut takes.  The generators do not depend on that order:
the reduced basis of the elimination ideal is unique for the fixed order
of the target and Galois variables.

Buchberger's guard is the module constants: a basis element above degree
MAX_DEGREE, or more than MAX_STEPS reduction steps in one groebner or
ideal_member call, raises EliminationGuard.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import add

from . import cocycles, words


class EliminationGuard(RuntimeError):
    """Degree or step budget exceeded during Buchberger's algorithm."""


MAX_DEGREE = 12
MAX_STEPS = 10 ** 6


class Poly(words.LinearCombination):
    """Multivariate polynomial over Q: {exponent tuple: Fraction}."""

    __slots__ = ("ring",)
    _context = "ring"

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = Fraction(c)

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def const(cls, ring, c):
        return cls(ring, {(0,) * len(ring): c})

    @classmethod
    def var(cls, ring, name):
        e = [0] * len(ring)
        e[ring.index(name)] = 1
        return cls(ring, {tuple(e): Fraction(1)})

    @staticmethod
    def _mul_keys(e1, e2):
        return tuple(map(add, e1, e2))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._product(other)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly.const(self.ring, 1)
        for _ in range(k):
            out = out * self
        return out

    def leading(self):
        e = max(self.terms)  # lex on exponent tuples
        return e, self.terms[e]

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def uses_vars(self, indices):
        return any(any(e[i] for i in indices) for e in self.terms)

    def content_normalize(self):
        """Integer coefficients, content one, positive leading coefficient."""
        if not self.terms:
            return self
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator * (den // c.denominator)))
        scale = Fraction(den, num)
        out = self.scale(scale)
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

LI_NAMES = ["log", "li1", "li2", "li3", "li4", "li5", "li6", "li7", "li8"]


def li_weight(name):
    return 1 if name == "log" else int(name[2:])


def f_var_name(lyndon_word):
    return "f[%s]" % ".".join(lyndon_word)


class SubstitutionProblem:
    """The graph ideal of the universal evaluation image, ready to eliminate."""

    def __init__(self, n, S):
        from .galois import standard_genset
        self.n = n
        self.S = tuple(sorted(S))
        self.genset = standard_genset(self.S, n)
        images = cocycles.eval_universal(n, self.genset)
        self.phi_names = sorted({name for poly in images.values()
                                 for mono in poly for name in mono})
        self.lyndon = self.genset.lyndon_words(n)
        self.f_names = [f_var_name(w) for w in self.lyndon]
        self.li_names = [LI_NAMES[k] for k in range(0, n + 1)]
        # lex order: cocycle coordinates > targets > Galois coordinates
        self.ring = tuple(self.phi_names + list(reversed(self.li_names)) + self.f_names)
        self.image_polys = {
            tgt: self._image_to_poly(poly) for tgt, poly in images.items()}

    def _image_to_poly(self, poly):
        out = Poly.zero(self.ring)
        for mono, fel in poly.items():
            phi = Poly.const(self.ring, 1)
            for name in mono:
                phi = phi * Poly.var(self.ring, name)
            out = out + phi * self.shuffle_to_poly(fel)
        return out

    def shuffle_to_poly(self, fel):
        """A ShuffleElement as a polynomial in the Lyndon coordinate variables."""
        out = Poly.zero(self.ring)
        for mono, c in words.element_as_lyndon_poly(fel).items():
            term = Poly.const(self.ring, c)
            for lw in mono:
                term = term * Poly.var(self.ring, f_var_name(lw))
            out = out + term
        return out

    def graph_ideal(self):
        gens = []
        for tgt in self.li_names:
            gens.append(Poly.var(self.ring, tgt) - self.image_polys[tgt])
        return gens

    def substitute(self, poly):
        """Replace each target variable by its image (verify_vanishing core)."""
        li_idx = {name: self.ring.index(name) for name in self.li_names}
        out = Poly.zero(self.ring)
        for e, c in poly.terms.items():
            term = Poly.const(self.ring, c)
            for name, i in li_idx.items():
                if e[i]:
                    term = term * self.image_polys[name] ** e[i]
            rest = list(e)
            for i in li_idx.values():
                rest[i] = 0
            out = out + term * Poly(self.ring, {tuple(rest): Fraction(1)})
        return out

    def weight(self, poly):
        """Total half-weight when homogeneous, else None."""
        wts = set()
        fw = {f_var_name(w): self.genset.word_weight(w) for w in self.lyndon}
        for e in poly.terms:
            w = 0
            for name, k in zip(self.ring, e):
                if not k:
                    continue
                if name in fw:
                    w += k * fw[name]
                elif name in self.li_names:
                    w += k * li_weight(name)
            wts.add(w)
        if len(wts) == 1:
            return wts.pop()
        return None


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

    def li_coefficients(self):
        """Split into {Li-monomial (name, power) tuple: coefficient Poly in f}."""
        ring = self.problem.ring
        li_idx = [ring.index(n) for n in self.problem.li_names]
        out = {}
        for e, c in self.poly.terms.items():
            key = tuple((self.problem.li_names[j], e[i])
                        for j, i in enumerate(li_idx) if e[i])
            rest = list(e)
            for i in li_idx:
                rest[i] = 0
            cur = out.setdefault(key, Poly.zero(ring))
            out[key] = cur + Poly(ring, {tuple(rest): c})
        return out

    def to_json(self):
        rows = []
        for key, coeff in sorted(self.li_coefficients().items()):
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
    phi_idx = [prob.ring.index(v) for v in prob.phi_names]
    eliminated = [g for g in gb if not g.uses_vars(phi_idx)]
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
    """The half-weight 2 and 4 elements built the way the displayed
    computation does it: eliminate Phi[sigma_3;li3] between the Li_3 and
    Li_4 images, then clear the remaining coordinates by hand.  |S| = 1
    only."""
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
    for *e, slack in words.monomials([li_weight(n) for n in names] + [1], max_weight):
        if 0 < sum(e) <= max_degree:
            out.append((tuple((n, k) for n, k in zip(names, e) if k), max_weight - slack))
    return out


def _f_monomials(prob, weight):
    lw = prob.lyndon
    names = [f_var_name(w) for w in lw]
    return [tuple((n, k) for n, k in zip(names, e) if k)
            for e in words.monomials([prob.genset.word_weight(w) for w in lw], weight)]


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
    """Replace the Galois coordinates of an IdealElement by period expressions.

    assignment maps Lyndon-word tuples to motivic Expressions; raises
    naming any missing coordinate.  Returns {Li-monomial: Expression}.
    """
    from .symbols import Expression
    named = {f_var_name(k): v for k, v in assignment.items()}
    out = {}
    for key, coeff in element.li_coefficients().items():
        acc = Expression.zero()
        ring = element.problem.ring
        for e, c in coeff.terms.items():
            term = Expression.const(c)
            for name, k in zip(ring, e):
                if not k:
                    continue
                if name not in named:
                    raise KeyError("no period assignment for coordinate %s" % name)
                term = term * named[name] ** k
            acc = acc + term
        out[key] = acc
    return out
