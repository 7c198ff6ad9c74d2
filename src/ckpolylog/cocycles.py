"""Coordinates on the space of equivariant cocycles.

Matrix-entry coordinates Phi^rho_lambda make the cocycle space an affine
space: against the polylogarithmic word e1 e0^{n-1}, only source words of
the shape (generator)(tau_1 ... tau_r) with weight-one tail letters pair
nontrivially, and the entry is the product of the single-letter entries.
All words here use the lexical composition convention: deconcatenation
splits read left to right, and f_{sigma tau} means sigma followed by tau.

Only pairs with wt(rho) = wt(lambda) exist: Phi^tau_{e0} and Phi^tau_{e1}
for tau of weight one, Phi^sigma_{e1 e0^{k-1}} for sigma of odd weight k.
coordinate_name spells each and coordinate_names lists them through a
weight; that string is its one key from the images here to the
elimination ring, whose cocycle block is sorted, so that "Phi[sigma_..."
comes before "Phi[tau_..." and is eliminated first.

That structure theorem is coded once, as the recursion in cocycle_apply:
log(c) = sum_tau Phi^tau_{e0} f_tau, and Li_k(c) is Li_{k-1}(c) with each
tail letter tau appended and scaled by Phi^tau_{e0}, plus each head g of
weight k as Phi^g_{e1 e0^{k-1}} f_g.  A zero coordinate is never used, so
only the words that nonzero coordinates reach are built.  eval_universal
is cocycle_apply at the universal cocycle, each coordinate its own symbol.

Coordinate values may live in any commutative coefficient object with
+, * and truthiness (exact rationals, p-adics, expression fractions,
polynomials), so the same code serves the geometric step, the
field-valued counterexample cocycle and each period-table row: Li_n(z)
at the cocycle of an S-unit point z, whose tau coordinates are
kappa_coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import valuation
from .symbols import Expression
from .words import ShuffleElement


def coordinate_name(gen_id, k=0):
    """Phi^g_{e0} when k = 0, otherwise Phi^g_{e1 e0^(k-1)}."""
    if k == 0:
        return "Phi[%s;e0]" % gen_id
    return "Phi[%s;li%d]" % (gen_id, k)


def coordinate_names(genset, n):
    """The coordinates of a cocycle through weight n, sorted: Phi^tau_{e0} and
    Phi^g_{e1 e0^(k-1)} for each generator g of weight k <= n."""
    gens = genset.generators
    return sorted([coordinate_name(g.id) for g in gens if g.weight == 1]
                  + [coordinate_name(g.id, g.weight) for g in gens if g.weight <= n])


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
    universal = {name: Expression.sym(name) for name in coordinate_names(genset, n)}
    images = {}
    for tgt, el in cocycle_apply(universal, genset, n).items():
        poly = images[tgt] = {}
        for word, mono in el.terms.items():
            (key, c), = mono.terms.items()
            fel = ShuffleElement.word(genset, word, c)
            poly[key] = poly[key] + fel if key in poly else fel
    return images


def kappa_coordinates(z, ell):
    """Kummer map in coordinates: (ord_ell z, -ord_ell(1-z))."""
    z = Fraction(z)
    if z in (0, 1):
        raise ValueError("kappa undefined at z in {0, 1}")
    return (valuation(z, ell)[0], -valuation(1 - z, ell)[0])


def cocycle_apply(values, genset, n):
    """log(c) and Li_k(c) for k <= n as ShuffleElements with coefficients from c.

    values maps each of coordinate_names(genset, n) to its value in the
    cocycle c; a name missing or not among them raises ValueError.  Each
    Li_k(c) is the recursion of the module docstring, in which a falsy
    coordinate value is never multiplied.
    """
    if n < 1:
        raise ValueError("weight bound must be >= 1")
    names = set(coordinate_names(genset, n))
    if values.keys() != names:
        raise ValueError("cocycle coordinates: missing %s, unknown %s"
                         % (sorted(names - values.keys()), sorted(values.keys() - names)))
    tails = [(g.id, v) for g in genset.generators
             if g.weight == 1 and (v := values[coordinate_name(g.id)])]
    out = {"log": ShuffleElement(genset, {(t,): v for t, v in tails})}
    li = ShuffleElement(genset)
    for k in range(1, n + 1):
        terms = {w + (t,): c * v for w, c in li.terms.items() for t, v in tails}
        terms.update(((g.id,), values[coordinate_name(g.id, k)])
                     for g in genset.generators if g.weight == k)
        out["li%d" % k] = li = ShuffleElement(genset, terms)
    return out
