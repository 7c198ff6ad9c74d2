"""Symbolic coordinates on the Galois side: period tables in low weight.

Writes motivic polylogarithm symbols as exact combinations of the f-word
basis attached to the generators tau_ell (weight one, dual to log(ell))
and sigma_{2n+1} (dual to zeta(2n+1)).  A row Li_n(z) at an S-unit point z
is its point's cocycle, `cocycles.cocycle_apply` at the Kummer coordinates
of z and the zeta-coefficients of its lower odd Li_k(z).  In odd weight the
row's own zeta-coefficient is left open: a basis choice fixes it, or it is
recognized numerically through the p-adic period map at one prime,
RECOGNITION_PRIME, and recorded with its provenance.  The tests and
`verify identities` recognize the same coefficients at other primes, and
`verify hopf` checks each row against Goncharov's symbol coproduct.

A period table is its description, S, a basis choice and its rows, all
given to the constructor; each row pulls in every lower entry its cocycle
reads, and the table is complete when built: each entry is its symbol's
whole f-basis form, sigma word included.  The f-alphabet is a free
polynomial ring on its Lyndon words (Radford), so an f-element reads as
periods through its Lyndon coordinates: `coordinate_period` solves for one
coordinate from the linear Lyndon parts of the entries of its weight, and
`f_sigma_tau_expression` is the coordinate sigma_3 tau_ell.
"""

from __future__ import annotations

from fractions import Fraction

from . import cocycles
from . import symbols as sy
from . import words as wd
from .padic import PrecisionPolicy, rational_reconstruct, valuation
from .words import ShuffleElement, TensorElement


def standard_genset(S, max_weight):
    """tau_ell for ell in S (weight 1) and sigma_3, sigma_5, ... up to the bound."""
    gens = [("tau_%d" % ell, 1) for ell in sorted(S)]
    k = 3
    while k <= max_weight:
        gens.append(("sigma_%d" % k, k))
        k += 2
    return wd.GeneratorSet(gens)


def tau_id(ell):
    return "tau_%d" % ell


def sigma_id(k):
    return "sigma_%d" % k


def _is_s_unit(q, S):
    rest = Fraction(q)
    for ell in S:
        _, rest = valuation(rest, ell)
    return abs(rest) == 1


class PeriodTable:
    """Expansion table for one open integer scheme Spec Z[1/S].

    rows are Li symbols; choice, the basis choice, maps odd Li symbols to
    (value, provenance) pairs that fix their zeta-coefficients (a choice
    of another symbol is rejected before any entry is built).  The
    constructor builds the zeta(k) duals, then the chosen symbols, then the
    rows, each in symbol order, and every entry a row's cocycle reads;
    once it returns the table never grows.  entries maps each symbol to its
    complete f-basis form: a Li entry is its point's cocycle plus, in odd
    weight, the sigma word of a zeta-coefficient from the choice or
    `numeric_primitive_resolver`, and provenance says where that came from.
    """

    def __init__(self, S, rows=(), choice=None, max_weight=4):
        self.S = tuple(sorted(S))
        self.max_weight = max_weight
        self.genset = standard_genset(self.S, max_weight)
        self.choice = dict(choice or {})
        for symbol in self.choice:
            if symbol.kind != "li" or not self.has_sigma(symbol.n):
                raise ValueError("a choice for %r fixes no zeta-coefficient: only Li_n "
                                 "with odd 3 <= n <= %d has one" % (symbol, max_weight))
        self.rows = tuple(sorted(rows))
        self.entries = {}
        self.provenance = {}
        zetas = [sy.Symbol("zeta", k, Fraction(0)) for k in range(3, max_weight + 1, 2)]
        for symbol in zetas + sorted(self.choice) + list(self.rows):
            self._ensure(symbol)

    def has_sigma(self, n):
        return n % 2 == 1 and n >= 3 and n <= self.max_weight

    # -- expansion -------------------------------------------------------------

    def _ensure(self, symbol):
        """Build the entry of symbol unless it is built."""
        if symbol in self.entries:
            return
        if symbol.kind == "log":
            ell = int(symbol.z)
            if ell not in self.S:
                raise ValueError("log(%d) is ramified outside S=%s" % (ell, list(self.S)))
            form, source = ShuffleElement.word(self.genset, (tau_id(ell),)), "Kummer"
        elif symbol.kind == "zeta":
            if not self.has_sigma(symbol.n):
                raise ValueError("zeta(%d) has no generator under weight bound %d"
                                 % (symbol.n, self.max_weight))
            form, source = ShuffleElement.word(self.genset, (sigma_id(symbol.n),)), "dual generator"
        else:
            form, source = self._expand_li(symbol)
        self.entries[symbol] = form
        self.provenance[symbol] = source

    def _expand_li(self, symbol):
        n, z = symbol.n, symbol.z
        if n > self.max_weight:
            raise ValueError("weight %d beyond table bound %d" % (n, self.max_weight))
        if not (_is_s_unit(z, self.S) and _is_s_unit(1 - z, self.S)):
            raise ValueError("Li_%d(%s) is not an S-point symbol for S=%s"
                             % (n, z, list(self.S)))
        kappa = {ell: cocycles.kappa_coordinates(z, ell) for ell in self.S}
        # build the entries the cocycle reads: Li_k(z) below n, log ell for ell | z(1 - z)
        for k in range(2, n):
            self._ensure(sy.Symbol("li", k, z))
        for ell, e in kappa.items():
            if any(e):
                self._ensure(sy.Symbol("log", 1, Fraction(ell)))
        values = {cocycles.coordinate_name(tau_id(ell), k): e[k]
                  for ell, e in kappa.items() for k in (0, 1)}
        for k in range(3, n + 1, 2):
            lower = self.entries[sy.Symbol("li", k, z)].coefficient((sigma_id(k),)) if k < n else 0
            values[cocycles.coordinate_name(sigma_id(k), k)] = lower
        dec = cocycles.cocycle_apply(values, self.genset, n)["li%d" % n]
        if not self.has_sigma(n):
            return dec, "coproduct (no primitives)"
        choice = self.choice.get(symbol)
        if choice is None:
            # looked up per call, so a wrapper installed on the factory is the one that runs
            choice = numeric_primitive_resolver()(symbol, self.period_expression_of(dec))
        prim, source = choice
        return dec + ShuffleElement.word(self.genset, (sigma_id(n),), prim), source

    # -- expressions <-> words ---------------------------------------------------

    def expression_to_words(self, expr):
        """The f-alphabet decomposition: the ring map sending each symbol to
        its entry, its complete f-basis form."""
        return expr.evaluate(self.entries.__getitem__, ShuffleElement.one(self.genset).scale)

    def tensor_to_words(self, tens):
        out = TensorElement(self.genset, {})
        for (ml, mr), c in tens.terms.items():
            le = self.expression_to_words(sy.Expression({ml: Fraction(1)}))
            re = self.expression_to_words(sy.Expression({mr: Fraction(1)}))
            for wl, cl in le.terms.items():
                for wr, cr in re.terms.items():
                    wd.add_term(out.terms, (wl, wr), c * cl * cr)
        return out

    def period_expression_of(self, el):
        """Rewrite an f-word element as a polynomial in tabled period symbols:
        its Lyndon polynomial, each coordinate f_w read as coordinate_period(w)."""
        return self._lyndon_period(wd.element_as_lyndon_poly(el))

    def _lyndon_period(self, poly):
        return wd.LinearCombination(poly).evaluate(self.coordinate_period,
                                                   sy.Expression.const)

    def coordinate_period(self, word):
        """The period expression of the Lyndon coordinate f_word.

        Solves for a combination of the entries of word's weight whose
        linear Lyndon parts sum to f_word; the nonlinear part of each entry
        is a polynomial in lower-weight coordinates, read through them.
        """
        m = self.genset.word_weight(word)
        built = sorted(s for s in self.entries if s.weight == m)
        polys = [wd.element_as_lyndon_poly(self.entries[s]) for s in built]
        x = wd.solve_columns([{mono: c for mono, c in poly.items() if len(mono) == 1}
                              for poly in polys], {(word,): Fraction(1)})
        if x is None:
            raise ValueError("the weight-%d entries %s do not determine the coordinate %s"
                             % (m, ", ".join(map(repr, built)) or "(none)", " ".join(word)))
        out = sy.Expression()
        for c, s, poly in zip(x, built, polys):
            if c:
                nonlinear = {mono: d for mono, d in poly.items() if len(mono) > 1}
                out = out + (sy.Expression.sym(s) - self._lyndon_period(nonlinear)).scale(c)
        return out

    # -- reporting ----------------------------------------------------------------

    def to_json(self):
        """One row per entry: its form split into the sigma word of its
        weight (primitiveCoefficient) and the rest (basisForm)."""
        rows = []
        for s, form in sorted(self.entries.items(), key=lambda kv: (kv[0].weight, repr(kv[0]))):
            sigma = (sigma_id(s.weight),)
            prim = form.coefficient(sigma)
            rows.append({
                "symbol": repr(s),
                "Z": "Z[1/%s]" % ",".join(str(x) for x in self.S),
                "basisForm": (form - ShuffleElement.word(self.genset, sigma, prim)).to_json(),
                "primitiveCoefficient": wd._frac_str(prim),
                "provenance": self.provenance[s],
            })
        return rows


# -- numeric resolution of zeta coefficients -----------------------------------

# a zeta-coefficient is recognized at RECOGNITION_PRIME from RECOGNITION_DIGITS
# digits above M - g, within numerator and denominator bounds RECOGNITION_BOUNDS
RECOGNITION_DIGITS = 4
RECOGNITION_BOUNDS = (10 ** 4, 10 ** 3)
RECOGNITION_PRIME = 5


def recognize_zeta_ratio(eng, num, n):
    """The rational num / zeta_p(n) within RECOGNITION_BOUNDS, or None."""
    ratio = num / eng.zeta_nonzero(n)
    digits = eng.policy.equality_threshold + RECOGNITION_DIGITS
    return rational_reconstruct(ratio.truncate_abs(digits), *RECOGNITION_BOUNDS)


def numeric_primitive_resolver():
    """Recognize the zeta-coefficient of a symbol at RECOGNITION_PRIME."""

    def resolve(symbol, dec_expression):
        from .polylog import get_engine
        p = RECOGNITION_PRIME
        eng = get_engine(p, PrecisionPolicy())
        num = eng.period(sy.Expression.sym(symbol)) - eng.period(dec_expression)
        q = recognize_zeta_ratio(eng, num, symbol.weight)
        if q is None:
            raise ArithmeticError(
                "could not recognize the zeta coefficient of %r at p=%d" % (symbol, p))
        return q, "numerically recognized at p=%d" % p

    return resolve


# -- assembled tables ------------------------------------------------------------


def build_table_z_half():
    """Period table over Z[1/2]: the row Li_4(1/2), which pulls in the rest."""
    return PeriodTable({2}, rows=[sy.Symbol("li", 4, Fraction(1, 2))])


P3_CHOICE = (Fraction(-2), Fraction(3))  # arguments whose Li_3 spans P_3(Z[1/6])


def build_table_z_sixth():
    """Period table over Z' = Z[1/6] feeding the Z[1/3] pipeline.

    P_3(Z') is pinned to span{Li_3(-2), Li_3(3)}: their zeta-coefficients
    vanish by this basis choice, which is what defines sigma_3 here.  The
    rows Li_4(3) and Li_4(9) pull in the rest, and Li_3(9) carries the one
    genuinely unknown coefficient.
    """
    choice = (Fraction(0), "P_3 basis choice (defines sigma_3)")
    return PeriodTable({2, 3}, rows=[sy.Symbol("li", 4, Fraction(z)) for z in (3, 9)],
                       choice={sy.Symbol("li", 3, z): choice for z in P3_CHOICE})


def basis_certificate_deg3():
    """The 8x8 matrix of Delta'_{1,2} coordinates certifying the weight-3 basis
    over Z[1/6], together with its determinant (which must be 9).

    Rows: log(2) (x) {log2^2, log2 log3, log3^2, Li2(-2)} then log(3) (x) same.
    Columns: log2^3, log3^3, log2^2 log3, log2 log3^2, log2 Li2(-2),
             log3 Li2(-2), Li3(-2), Li3(3).
    """
    l2 = sy.log_u(2)
    l3 = sy.log_u(3)
    li2m2 = sy.li_u(2, Fraction(-2))
    cols = [l2 ** 3, l3 ** 3, l2 * l2 * l3, l2 * l3 * l3,
            l2 * li2m2, l3 * li2m2,
            sy.li_u(3, Fraction(-2)), sy.li_u(3, Fraction(3))]
    right_basis = [l2 * l2, l2 * l3, l3 * l3, li2m2]
    left_basis = [l2, l3]
    rows = [(i, j) for i in range(2) for j in range(4)]
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for cj, col in enumerate(cols):
        t12 = sy.reduced_coproduct(col).bidegree_part(1, 2)
        coords = _tensor_coords(t12, left_basis, right_basis)
        for (i, j), val in coords.items():
            mat[rows.index((i, j))][cj] = val
    _, det = wd.row_reduce([row[:] for row in mat], len(cols))
    return mat, det


def _tensor_coords(t12, left_basis, right_basis):
    lkeys = {}
    for i, b in enumerate(left_basis):
        (mono,) = b.terms
        lkeys[mono] = (i, b.terms[mono])
    rkeys = {}
    for j, b in enumerate(right_basis):
        (mono,) = b.terms
        rkeys[mono] = (j, b.terms[mono])
    out = {}
    for (ml, mr), c in t12.terms.items():
        if ml not in lkeys or mr not in rkeys:
            raise ValueError("tensor term (%r, %r) misses the stated bases" % (ml, mr))
        i, cl = lkeys[ml]
        j, cr = rkeys[mr]
        out[(i, j)] = out.get((i, j), Fraction(0)) + c / (cl * cr)
    return {k: v for k, v in out.items() if v}


# ell -> name of the builder of the table feeding Z[1/ell], looked up at call time
TABLED = {2: "build_table_z_half", 3: "build_table_z_sixth"}
TABLED_S = tuple((ell,) for ell in TABLED)  # the bases whose f_{sigma tau} is tabled


def f_sigma_tau_expression(S, table):
    """The period expression of the coordinate f_{sigma tau} over Z[1/ell]:
    the table's coordinate_period of the Lyndon word sigma_3 tau_ell."""
    S = tuple(sorted(S))
    if S not in TABLED_S:
        raise ValueError("f_sigma_tau is tabled for %s only"
                         % " and ".join("S={%d}" % ell for ell in TABLED))
    (ell,) = S
    return table.coordinate_period((sigma_id(3), tau_id(ell)))


# ell -> its period table, built once per process; the builder is looked up by
# name, so a wrapper installed on it is the one that runs
_TABLES = {}


def specialization_assignment(S):
    """Period expressions for the Galois coordinates of the |S|=1 ideal.

    Returns {Lyndon word tuple: Expression} covering f_tau, f_sigma and
    f_{sigma tau} for Z = Spec Z[1/ell], ell in TABLED.
    """
    (ell,) = tuple(S)
    if ell not in _TABLES:
        _TABLES[ell] = globals()[TABLED[ell]]()
    fst = f_sigma_tau_expression(S, _TABLES[ell])
    return {
        (tau_id(ell),): sy.log_u(ell),
        (sigma_id(3),): sy.zeta_u(3),
        (sigma_id(3), tau_id(ell)): fst,
    }
