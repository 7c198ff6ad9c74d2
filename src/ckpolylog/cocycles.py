"""Coordinates on the space of equivariant cocycles.

Matrix-entry coordinates Phi^rho_lambda make the cocycle space an affine
space: against the polylogarithmic word e1 e0^{n-1}, only source words of
the shape (generator)(tau_1 ... tau_r) with weight-one tail letters pair
nontrivially, and the entry is the product of the single-letter entries.
All words here use the lexical composition convention: deconcatenation
splits read left to right, and f_{sigma tau} means sigma followed by tau.

That structure theorem is coded once, in eval_universal: its images of
log and Li_k are polynomials in the coordinates with f-word coefficients,
and cocycle_apply evaluates a cocycle by substituting into them.

Coordinate values may live in any commutative coefficient object with
+, *, and truthiness (exact rationals, p-adics, expression fractions,
polynomials), so the same code serves the geometric step and the
field-valued counterexample cocycle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .padic import valuation
from .words import ShuffleElement


class PolylogWord(NamedTuple):
    """Either e0^i (kind "e0") or the word e1 e0^{k-1} (kind "li")."""

    kind: str
    k: int

    @classmethod
    def e0_power(cls, i):
        if i < 1:
            raise ValueError("e0 power must be >= 1")
        return cls("e0", i)

    @classmethod
    def li(cls, k):
        if k < 1:
            raise ValueError("li word index must be >= 1")
        return cls("li", k)

    @property
    def weight(self):
        return self.k

    def __repr__(self):
        if self.kind == "e0":
            return "e0^%d" % self.k
        return "e1e0^%d" % (self.k - 1)


LOG = PolylogWord.e0_power(1)


def coordinate_name(gen_id, lam):
    if lam.kind == "e0" and lam.k == 1:
        return "Phi[%s;e0]" % gen_id
    return "Phi[%s;li%d]" % (gen_id, lam.k)


class CocycleCoordinates:
    """Assignment of values to the coordinates Phi^rho_lambda.

    Only pairs with wt(rho) = wt(lambda) exist.  For a weight-one
    generator tau the coordinates are Phi^tau_{e0} and Phi^tau_{e1};
    a generator of odd weight 2i-1 >= 3 carries the single coordinate
    Phi^sigma_{e1 e0^{2i-2}}.
    """

    def __init__(self, genset, zero=Fraction(0)):
        self.genset = genset
        self.zero = zero
        self.values = {}

    def set(self, gen_id, lam, value):
        wt = self.genset.weight_of(gen_id)
        if lam.weight != wt:
            raise ValueError("coordinate (%s, %r) mixes weights %d and %d"
                             % (gen_id, lam, wt, lam.weight))
        if not (lam == LOG or (lam.kind == "li" and lam.k == wt)):
            raise ValueError("no coordinate at (%s, %r)" % (gen_id, lam))
        self.values[(gen_id, lam)] = value

    def get(self, gen_id, lam):
        try:
            return self.values[(gen_id, lam)]
        except KeyError:
            raise KeyError("missing cocycle coordinate (%s, %r)" % (gen_id, lam))


class EvaluationImage:
    """Images of log and Li_1..Li_n as polynomials in Phi with f-word coefficients.

    images: target name -> {Phi-monomial (sorted tuple of coordinate keys)
    -> ShuffleElement}.
    """

    def __init__(self, genset, images):
        self.genset = genset
        self.images = images

    def substitute(self, coords):
        """Plug a CocycleCoordinates into each image; returns target -> ShuffleElement."""
        out = {}
        for tgt, poly in self.images.items():
            acc = ShuffleElement.zero(self.genset)
            for mono, fel in poly.items():
                val = None
                for (gen_id, lam) in mono:
                    x = coords.get(gen_id, lam)
                    val = x if val is None else val * x
                if val is None:
                    acc = acc + fel
                elif val:
                    acc = acc + ShuffleElement(self.genset,
                                               {w: cf * val for w, cf in fel.terms.items()})
            out[tgt] = acc
        return out


def eval_universal(n, genset):
    """The displayed algebra map: log and Li_k images in Phi-coordinates.

    log     |-> sum_tau f_tau Phi^tau_{e0}
    Li_k    |-> sum_{r+s=k} f_{g tau_1..tau_r} Phi^{tau_1}_{e0} ... Phi^{g}_{e1e0^{s-1}}

    For |S| = 1 the coordinates specialize to w_0 = Phi^tau_{e0},
    w_1 = Phi^tau_{e1}, w_i = Phi^{sigma_{2i-1}}_{e1 e0^{2i-2}} and the
    Li_k image collapses to w_1 w_0^{k-1} f_tau^k / k! plus the
    sigma-headed corrections.
    """
    if n < 1:
        raise ValueError("weight bound must be >= 1")
    taus = [g.id for g in genset.generators if g.weight == 1]
    images = {}
    log_img = {}
    for t in taus:
        log_img[((t, LOG),)] = ShuffleElement.word(genset, (t,))
    images["log"] = log_img
    for k in range(1, n + 1):
        poly = {}
        for s in range(1, k + 1):
            r = k - s
            heads = [g.id for g in genset.generators if g.weight == s]
            for head in heads:
                for tail in itertools.product(taus, repeat=r):
                    word = (head,) + tail
                    mono = tuple(sorted(
                        [(head, PolylogWord.li(s))] + [(t, LOG) for t in tail]))
                    fel = ShuffleElement.word(genset, word)
                    if mono in poly:
                        poly[mono] = poly[mono] + fel
                    else:
                        poly[mono] = fel
        images["li%d" % k] = poly
    return EvaluationImage(genset, images)


def w_coordinate_names(genset, n):
    """Map Phi-coordinate keys to the short w-names used when |S| = 1."""
    taus = [g.id for g in genset.generators if g.weight == 1]
    if len(taus) != 1:
        raise ValueError("w-naming needs exactly one weight-one generator")
    tau = taus[0]
    names = {(tau, LOG): "w0", (tau, PolylogWord.li(1)): "w1"}
    for g in genset.generators:
        if g.weight >= 3 and g.weight <= n and g.weight % 2 == 1:
            names[(g.id, PolylogWord.li(g.weight))] = "w%d" % ((g.weight + 1) // 2)
    return names


def kappa_coordinates(z, ell):
    """Kummer map in coordinates: (ord_ell z, -ord_ell(1-z))."""
    z = Fraction(z)
    if z in (0, 1):
        raise ValueError("kappa undefined at z in {0, 1}")
    return (valuation(z, ell)[0], -valuation(1 - z, ell)[0])


def cocycle_apply(c, n):
    """log(c) and Li_k(c) for k <= n as ShuffleElements with coefficients from c.

    Implements Li_lambda(c) = sum_w phi^w_lambda(c) f_w over words of the
    matching weight by substituting c into the images of eval_universal:
    by the structure theorem those are the only words with a nonzero entry.
    """
    return eval_universal(n, c.genset).substitute(c)
