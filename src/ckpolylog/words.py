"""Free graded shuffle Hopf algebras over exact rationals.

Words in a graded alphabet, the shuffle product, the reduced
deconcatenation coproduct and its cobar square, plus the Lyndon-word
polynomial decomposition (Duval's factorization, then Radford's
recursion) used to present the algebra as a free commutative polynomial
ring (galois reads an f-element as periods through these Lyndon
coordinates, elimination names its f-variables by them), and monomials,
the one enumerator of monomials of a given weight in weighted variables.
A cut (u, v) determines its word uv, so the coproduct is read off the
cuts term by term, with no two terms to add.  The package's two exact
cores live here: LinearCombination (with add_term), the one
implementation of sparse exact combinations behind ShuffleElement,
TensorElement, symbols.Expression, symbols.TensorExpr and
elimination.Poly, which builds, adds, scales, multiplies (*) and raises
to powers (**) for all of them (the shuffle is ShuffleElement's *) and
owns the one ring map out of a polynomial ring (evaluate): the p-adic
period map, the f-alphabet decomposition, the Goncharov coproduct, the
period specialization and the reading of Lyndon coordinates as periods;
and the exact row reduction (row_reduce, solve_columns), the one
linear-algebra core.

All coefficients are exact (fractions.Fraction or any ring element
supporting +, -, *, and truthiness for zero-testing); no floats.
Grading is by positive "half-weights"; the empty word has weight 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class Generator(NamedTuple):
    id: str
    weight: int  # half-weight, >= 1


class GeneratorSet:
    """Ordered graded alphabet with unique ids.

    The serialization order on words is degree-then-lexicographic on
    generator ids.  Lyndon comparisons use a separate letter order that
    puts heavier letters first so that sigma-leading words are Lyndon.
    """

    def __init__(self, generators):
        gens = tuple(Generator(g[0], int(g[1])) if not isinstance(g, Generator) else g
                     for g in generators)
        ids = [g.id for g in gens]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator ids: %r" % (ids,))
        for g in gens:
            if g.weight < 1:
                raise ValueError("generator %s has weight %d < 1" % (g.id, g.weight))
        self.generators = tuple(sorted(gens, key=lambda g: (g.weight, g.id)))
        self._weight = {g.id: g.weight for g in self.generators}
        # Lyndon letter order: heavier first, then id.
        self._lyndon_rank = {g.id: i for i, g in enumerate(
            sorted(self.generators, key=lambda g: (-g.weight, g.id)))}

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "GeneratorSet(%s)" % ", ".join("%s:%d" % (g.id, g.weight) for g in self.generators)

    def word_weight(self, word):
        return sum(self._weight[g] for g in word)

    def words_of_weight(self, n):
        """All words of half-weight n, in serialization order."""
        return _words_of_weight(self.generators, n)

    def word_sort_key(self, word):
        return (self.word_weight(word), word)

    # -- Lyndon machinery -------------------------------------------------

    def lyndon_key(self, word):
        return tuple(self._lyndon_rank[g] for g in word)


def monomials(weights, total):
    """Exponent vectors e >= 0 with sum(e[i] * weights[i]) == total.

    The weights are positive.  The vectors come in lexicographic order,
    fewest copies of the first variable first.  This is the one enumerator
    of weighted monomials: the Li- and f-monomials in elimination.
    """
    if total == 0:
        yield (0,) * len(weights)
        return
    if not weights:
        return
    w, rest = weights[0], weights[1:]
    for k in range(total // w + 1):
        for tail in monomials(rest, total - k * w):
            yield (k,) + tail


@lru_cache(maxsize=None)
def _words_of_weight(generators, n):
    if n == 0:
        return ((),)
    out = []
    for g in generators:
        if g.weight <= n:
            out.extend((g.id,) + w for w in _words_of_weight(generators, n - g.weight))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _shuffle_words(u, v):
    """Multiset of shuffles of two words, as a tuple of (word, multiplicity)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    counts = {}
    for w, m in _shuffle_words(u[1:], v):
        key = (u[0],) + w
        counts[key] = counts.get(key, 0) + m
    for w, m in _shuffle_words(u, v[1:]):
        key = (v[0],) + w
        counts[key] = counts.get(key, 0) + m
    return tuple(sorted(counts.items()))


# -- exact linear combinations ---------------------------------------------
#
# The one implementation of the linear operations behind every sparse exact
# combination: shuffle elements and tensors here, symbol expressions and
# their tensors in symbols, polynomials in elimination.


def add_term(terms, key, c):
    """terms[key] += c, dropping the key when the sum is zero."""
    if key in terms:
        s = terms[key] + c
        if s:
            terms[key] = s
        else:
            del terms[key]
    elif c:
        terms[key] = c


class LinearCombination:
    """Finite combination {key: nonzero coefficient} with exact coefficients.

    The base owns construction, sums, scaling, products, powers and the
    ring map (evaluate); a subclass states only its keys: the slot holding
    its context (_context: a generator set or a ring, set by its
    constructor; None when there is none), how an input key normalizes
    (_key), when keys multiply, how (_mul_keys) and, when they name
    products of atoms, which atoms (_factors).  The constructor adds the
    terms of keys that normalize alike and drops zeros; results built here
    (_new) take their terms as given.  Combinations in different contexts
    are unequal and do not add.
    """

    __slots__ = ("terms",)
    _context = None

    def __init__(self, terms=None):
        self.terms = {}
        for k, c in (terms or {}).items():
            add_term(self.terms, self._key(k), c)

    @staticmethod
    def _key(k):
        return k

    def _new(self, terms):
        out = object.__new__(type(self))
        out.terms = terms
        if self._context:
            setattr(out, self._context, getattr(self, self._context))
        return out

    def _check(self, other):
        ctx = self._context
        if ctx and getattr(self, ctx) != getattr(other, ctx):
            raise ValueError("mismatched %s: %r and %r"
                             % (ctx, getattr(self, ctx), getattr(other, ctx)))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        ctx = self._context
        return (type(other) is type(self) and self.terms == other.terms
                and (not ctx or getattr(self, ctx) == getattr(other, ctx)))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return self._new(terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """c times self; c may be any ring element, it is not coerced."""
        if not c:
            return self._new({})
        return self._new({k: c * x for k, x in self.terms.items()})

    def __mul__(self, other):
        """An int or Fraction scales; anything else takes the product."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._product(other)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self * ... * self, k >= 1 factors; self ** 1 is self."""
        if k < 1:
            raise ValueError("power %r of a combination: k >= 1 needed" % (k,))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def evaluate(self, image, const):
        """The ring map sending each atom a to image(a) and each scalar c to
        const(c): const(0) plus, term by term, const(c) * image(a1) *
        image(a2) * ... over the atoms the key names (_factors), with repeats."""
        out = const(0)
        for k, c in self.terms.items():
            t = const(c)
            for a in self._factors(k):
                t = t * image(a)
            out = out + t
        return out

    @staticmethod
    def _factors(k):
        return k

    def _product(self, other):
        """Bilinear extension of _mul_keys over the two term dicts."""
        self._check(other)
        mul = self._mul_keys
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_term(terms, mul(k1, k2), c1 * c2)
        return self._new(terms)


class ShuffleElement(LinearCombination):
    """Finite linear combination of basis words f_w; its product * is the shuffle."""

    __slots__ = ("genset",)
    _context = "genset"
    _key = tuple

    def __init__(self, genset, terms=None):
        self.genset = genset
        super().__init__(terms)

    def _product(self, other):
        return shuffle_product(self, other)

    @classmethod
    def word(cls, genset, word, coeff=Fraction(1)):
        return cls(genset, {tuple(word): coeff})

    @classmethod
    def one(cls, genset):
        return cls(genset, {(): Fraction(1)})

    def coefficient(self, word):
        return self.terms.get(tuple(word), Fraction(0))

    def weights(self):
        return sorted({self.genset.word_weight(w) for w in self.terms})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: self.genset.word_sort_key(wc[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            name = "f[%s]" % ".".join(w) if w else "1"
            bits.append("%s*%s" % (c, name))
        return " + ".join(bits)

    def to_json(self):
        return [{"word": list(w), "coeff": _frac_str(c)} for w, c in self.sorted_terms()]


def _frac_str(c):
    f = Fraction(c)
    return "%d/%d" % (f.numerator, f.denominator) if f.denominator != 1 else "%d" % f.numerator


class TensorElement(LinearCombination):
    """Element of the tensor square, keyed by pairs of words."""

    __slots__ = ("genset",)
    _context = "genset"

    def __init__(self, genset, terms=None):
        self.genset = genset
        super().__init__(terms)

    @staticmethod
    def _key(k):
        return (tuple(k[0]), tuple(k[1]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (l, r), c in sorted(self.terms.items()):
            bits.append("%s*f[%s](x)f[%s]" % (c, ".".join(l) or "1", ".".join(r) or "1"))
        return " + ".join(bits)


def shuffle_product(a, b):
    """Bilinear extension of the shuffle of basis words.

    Commutative; half-weights add term by term.  Raises on mismatched
    generator sets.
    """
    a._check(b)
    terms = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            for w, m in _shuffle_words(u, v):
                add_term(terms, w, c * m)
    return a._new(terms)


def reduced_coproduct(a):
    """Delta'(x) = Delta(x) - x (x) 1 - 1 (x) x + eps(x) 1 (x) 1: the proper cuts.

    Zero on constants and on single letters (the primitives).
    """
    return TensorElement(a.genset, {(w[:i], w[i:]): c for w, c in a.terms.items()
                                    for i in range(1, len(w))})


def cobar_square(a):
    """(Delta' (x) id - id (x) Delta') Delta'(a) as {(x, y, z): coefficient}.

    Zero by coassociativity.  Each composite is a dict without collisions:
    (x, y, z) determines the two cuts it came from.  The inner Delta' of a
    factor (word, coefficient) is computed once per call and read for every
    outer cut that has that factor on its left or its right.  Equal
    composites, the expected case, return {} after one dict comparison;
    otherwise only the keys whose values differ are subtracted.
    """
    gs = a.genset
    inner = {}

    def cuts(w, c):
        t = inner.get((w, c))
        if t is None:
            t = inner[w, c] = reduced_coproduct(ShuffleElement.word(gs, w, c)).terms
        return t

    left, right = {}, {}
    for (l, r), c in reduced_coproduct(a).terms.items():
        left.update(((x, y, r), d) for (x, y), d in cuts(l, c).items())
        right.update(((l, x, y), d) for (x, y), d in cuts(r, c).items())
    if left == right:
        return {}
    return {k: left.get(k, 0) - right.get(k, 0) for k in left.keys() | right.keys()
            if left.get(k) != right.get(k)}


# -- Lyndon polynomial decomposition --------------------------------------
#
# The shuffle algebra is a free commutative polynomial ring on the duals of
# Lyndon words (Radford).  word_as_lyndon_poly expresses any f_w as an exact
# polynomial in those generators; with heavier letters ordered first, the
# words sigma tau^r used by the cocycle evaluation images are themselves
# Lyndon, so e.g. f_{sigma tau} is a polynomial coordinate.

def lyndon_factors(genset, word):
    """The Chen-Fox-Lyndon factors l1 >= l2 >= ... of word, by Duval's algorithm.

    Words compare by genset.lyndon_key; the factors concatenate to word.
    """
    key = genset.lyndon_key(word)
    out = []
    i = 0
    while i < len(word):
        j, k = i + 1, i
        while j < len(word) and key[k] <= key[j]:
            k = i if key[k] < key[j] else k + 1
            j += 1
        while i <= k:
            out.append(word[i:i + j - k])
            i += j - k
    return out


@lru_cache(maxsize=None)
def _lyndon_poly(genset, word):
    """f_word as {sorted tuple of Lyndon words: coefficient}, by Radford's recursion.

    For the factors l1 >= ... >= lk of word, l1 sh ... sh lk is c f_word
    plus words u below word (c the product of the factorials of the
    factors' multiplicities), so f_word = (l1 ... lk - sum d_u f_u) / c.
    """
    factors = lyndon_factors(genset, word)
    if len(factors) <= 1:
        return {tuple(factors): Fraction(1)}
    product = ShuffleElement.one(genset)
    for lw in factors:
        product = product * ShuffleElement.word(genset, lw)
    c = product.terms.pop(word)
    poly = {tuple(sorted(factors)): Fraction(1)}
    for u, d in product.terms.items():
        for mono, e in _lyndon_poly(genset, u).items():
            add_term(poly, mono, -d * e)
    return {mono: x / c for mono, x in poly.items()}


def word_as_lyndon_poly(genset, word):
    """f_word as {multiset of Lyndon words: coefficient}."""
    return dict(_lyndon_poly(genset, tuple(word)))


def element_as_lyndon_poly(el):
    out = {}
    for w, c in el.terms.items():
        for mono, d in word_as_lyndon_poly(el.genset, w).items():
            add_term(out, mono, c * d)
    return out


# -- exact row reduction ----------------------------------------------------
#
# The one Gauss-Jordan elimination behind every exact linear solve: the
# coordinate solve and basis determinant in galois, and the graded kernel
# in elimination.


def row_reduce(rows, ncols):
    """Gauss-Jordan elimination of the first ncols columns of rows, in place.

    Coefficients in those columns are Fractions.  Entries past them (the
    right-hand sides) are Fractions at every caller; they need only
    x * Fraction and x - Fraction * y.  Returns
    ({pivot column: row index}, det): pivot rows come first, in column
    order, each scaled to a leading 1 with zeros above and below.  For a
    square block, det is the signed product of the pivots, and 0 when the
    block is singular.
    """
    pivots = {}
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        inv = 1 / pv
        row = rows[r] = [x * inv for x in rows[r]]
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(other, row)]
        pivots[c] = r
        r += 1
    return pivots, det if len(pivots) == ncols else Fraction(0)


def solve_columns(columns, target):
    """Coefficients x_j with sum_j x_j * columns[j] = target, or None.

    columns and target are sparse {key: coefficient} vectors.  Free
    directions are set to 0; None means target is outside the span.
    """
    n = len(columns)
    vecs = (*columns, target)
    keys = {}
    for vec in vecs:
        for k in vec:
            keys.setdefault(k, len(keys))
    rows = [[Fraction(0)] * (n + 1) for _ in keys]
    for j, vec in enumerate(vecs):
        for k, c in vec.items():
            rows[keys[k]][j] = c
    basic, _ = row_reduce(rows, n)
    if any(row[n] for row in rows[len(basic):]):
        return None
    x = [Fraction(0)] * n
    for c, r in basic.items():
        x[c] = rows[r][n]
    return x
