"""Coordinates on the space of equivariant cocycles.

Matrix-entry coordinates Phi^rho_lambda make the cocycle space an affine
space: against the polylogarithmic word e1 e0^{n-1}, only source words of
the shape (generator)(tau_1 ... tau_r) with weight-one tail letters pair
nontrivially, and the entry is the product of the single-letter entries.
All words here use the lexical composition convention: deconcatenation
splits read left to right, and f_{sigma tau} means sigma followed by tau.

Only pairs with wt(rho) = wt(lambda) exist: Phi^tau_{e0} and Phi^tau_{e1}
for tau of weight one, Phi^sigma_{e1 e0^{k-1}} for sigma of odd weight k.
coordinate_name spells each; that string is its one key from the images
here to the elimination ring, whose cocycle block is sorted, so that
"Phi[sigma_..." comes before "Phi[tau_..." and is eliminated first.

That structure theorem is coded once, in eval_universal: its images of
log and Li_k are polynomials in the coordinates with f-word coefficients,
and cocycle_apply evaluates a cocycle by substituting into them.

Coordinate values may live in any commutative coefficient object with
+, * (by ints and rationals too) and truthiness (exact rationals, p-adics,
expression fractions, polynomials), so the same code serves the geometric
step, the field-valued counterexample cocycle and each period-table row:
Li_n(z) at the cocycle of an S-unit point z, whose tau coordinates are
kappa_coordinates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .padic import valuation
from .words import ShuffleElement


def coordinate_name(gen_id, k=0):
    """Phi^g_{e0} when k = 0, otherwise Phi^g_{e1 e0^(k-1)}."""
    if k == 0:
        return "Phi[%s;e0]" % gen_id
    return "Phi[%s;li%d]" % (gen_id, k)


def eval_universal(n, genset):
    """The displayed algebra map: log and Li_k images in Phi-coordinates.

    log     |-> sum_tau f_tau Phi^tau_{e0}
    Li_k    |-> sum_{r+s=k} f_{g tau_1..tau_r} Phi^{tau_1}_{e0} ... Phi^{g}_{e1e0^{s-1}}

    Returns {target: {sorted tuple of coordinate names: ShuffleElement}}.
    The targets come in weight order, "log", "li1", ..., "li<n>": they are
    the target names of the elimination ring and of the residue-disk
    tables.  For |S| = 1 the Li_k image collapses to
    Phi^tau_{e1} (Phi^tau_{e0})^{k-1} f_tau^k / k! plus the sigma-headed
    corrections.
    """
    if n < 1:
        raise ValueError("weight bound must be >= 1")
    taus = [g.id for g in genset.generators if g.weight == 1]
    images = {"log": {(coordinate_name(t),): ShuffleElement.word(genset, (t,))
                      for t in taus}}
    for k in range(1, n + 1):
        poly = {}
        for s in range(1, k + 1):
            heads = [g.id for g in genset.generators if g.weight == s]
            for head in heads:
                for tail in itertools.product(taus, repeat=k - s):
                    mono = tuple(sorted(
                        [coordinate_name(head, s)] + [coordinate_name(t) for t in tail]))
                    fel = ShuffleElement.word(genset, (head,) + tail)
                    poly[mono] = poly[mono] + fel if mono in poly else fel
        images["li%d" % k] = poly
    return images


def kappa_coordinates(z, ell):
    """Kummer map in coordinates: (ord_ell z, -ord_ell(1-z))."""
    z = Fraction(z)
    if z in (0, 1):
        raise ValueError("kappa undefined at z in {0, 1}")
    return (valuation(z, ell)[0], -valuation(1 - z, ell)[0])


def cocycle_apply(values, genset, n):
    """log(c) and Li_k(c) for k <= n as ShuffleElements with coefficients from c.

    values maps each coordinate name of the cocycle c to its value; a name
    missing or not among the image's coordinates raises ValueError.
    Implements Li_lambda(c) = sum_w phi^w_lambda(c) f_w over words of the
    matching weight by substituting c into the images of eval_universal:
    by the structure theorem those are the only words with a nonzero entry.
    Each image term is its f-word combination scaled by its monomial's value.
    """
    images = eval_universal(n, genset)
    names = {name for poly in images.values() for mono in poly for name in mono}
    if values.keys() != names:
        raise ValueError("cocycle coordinates: missing %s, unknown %s"
                         % (sorted(names - values.keys()), sorted(values.keys() - names)))
    out = {}
    for tgt, poly in images.items():
        acc = ShuffleElement(genset)
        for mono, fel in poly.items():
            acc = acc + fel.scale(math.prod(values[name] for name in mono))
        out[tgt] = acc
    return out
