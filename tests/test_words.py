import ast
import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

import ckpolylog.elimination as E
from ckpolylog.elimination import Poly, _nullspace
from ckpolylog.symbols import Expression, ExprFraction, Symbol, TensorExpr, log_u
from ckpolylog.words import (
    GeneratorSet, ShuffleElement, TensorElement, cobar_square,
    element_as_lyndon_poly, reduced_coproduct, row_reduce, shuffle_product,
    solve_columns, word_as_lyndon_poly,
)
import ckpolylog.words as wd
from ckpolylog.galois import specialization_assignment, standard_genset
from oracles import (cobar_square_by_terms, deconcat_by_accumulation, expr_fraction_equals,
                     is_lyndon, lyndon_decomposition_dense, reduced_by_accumulation,
                     solve_delta_prime, solve_delta_prime_dense)

GS = GeneratorSet([("tau_2", 1), ("tau_3", 1), ("sigma_3", 3)])
GS1 = GeneratorSet([("tau", 1), ("sigma", 3), ("sigma_5", 5)])


def w(genset, *letters):
    return ShuffleElement.word(genset, letters)


def test_shuffle_two_single_letters():
    a, b = w(GS, "tau_2"), w(GS, "tau_3")
    res = shuffle_product(a, b)
    assert res.terms == {("tau_2", "tau_3"): F(1), ("tau_3", "tau_2"): F(1)}


def test_shuffle_symmetric_square():
    t = w(GS, "tau_3")
    assert shuffle_product(t, t).terms == {("tau_3", "tau_3"): F(2)}


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
def test_shuffle_power_of_letter_is_factorial(i):
    import math
    t = w(GS1, "tau")
    assert (t ** i).terms == {("tau",) * i: F(math.factorial(i))}


def test_shuffle_requires_same_genset():
    with pytest.raises(ValueError):
        shuffle_product(w(GS, "tau_2"), w(GS1, "tau"))


def test_reduced_coproduct_examples():
    assert reduced_coproduct(w(GS, "tau_3")).is_zero()
    assert reduced_coproduct(w(GS, "sigma_3", "tau_3")).terms == {
        (("sigma_3",), ("tau_3",)): F(1)}
    ttt = reduced_coproduct(w(GS1, "tau", "tau", "tau"))
    assert ttt.terms == {
        (("tau",), ("tau", "tau")): F(1),
        (("tau", "tau"), ("tau",)): F(1),
    }


def random_combination(genset, rng, max_weight=6, size=12):
    words = [wd for n in range(max_weight + 1) for wd in genset.words_of_weight(n)]
    return ShuffleElement(genset, {wd: F(rng.randint(-9, 9), rng.randint(1, 5))
                                   for wd in rng.sample(words, size)})


def test_coproducts_on_combinations_match_accumulation(rng):
    for gs in (GS, GS1):
        for _ in range(20):
            a = random_combination(gs, rng)
            a = a + ShuffleElement.one(gs).scale(F(rng.randint(-3, 3)))
            assert reduced_coproduct(a) == reduced_by_accumulation(a)


def test_coassociativity_up_to_weight_8():
    for n in range(1, 9):
        for word in GS1.words_of_weight(n):
            el = ShuffleElement.word(GS1, word)
            full = deconcat_by_accumulation(el)
            left = {}
            right = {}
            for (l, r), c in full.terms.items():
                for (x, y), d in deconcat_by_accumulation(
                        ShuffleElement.word(GS1, l)).terms.items():
                    k = (x, y, r)
                    left[k] = left.get(k, 0) + c * d
                for (x, y), d in deconcat_by_accumulation(
                        ShuffleElement.word(GS1, r)).terms.items():
                    k = (l, x, y)
                    right[k] = right.get(k, 0) + c * d
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right


def test_cobar_exactness_stage_two_weight_8():
    for n in range(1, 9):
        for word in GS1.words_of_weight(n):
            assert cobar_square(ShuffleElement.word(GS1, word)) == {}


def _cobar_inputs():
    gs = standard_genset({2, 3}, 8)
    inputs = [ShuffleElement(gs, dict.fromkeys(gs.words_of_weight(n), F(1)))
              for n in range(1, 9)]
    coeffs = [F(2), F(-3, 4), F(5)]
    spread = {}
    for n in range(2, 9):
        for i, word in enumerate(gs.words_of_weight(n)[:5]):
            spread[word] = coeffs[(n + i) % 3]
    inputs.append(ShuffleElement(gs, spread))
    inputs.append(ShuffleElement.word(gs, ("tau_2", "tau_3", "tau_2", "sigma_3", "tau_3")))
    return inputs


def test_cobar_square_equals_per_cut_oracle():
    # the memoized inner Delta' and the equality short-circuit change nothing
    for a in _cobar_inputs():
        assert cobar_square(a) == cobar_square_by_terms(a) == {}


def test_cobar_square_equals_per_cut_oracle_with_a_cut_dropped(monkeypatch):
    # a broken Delta' is read the same way by both: equal nonzero defects
    real = wd.reduced_coproduct

    def drop_first_cut(a):
        t = real(a)
        for word in a.terms:
            if len(word) == 3:
                t.terms.pop((word[:1], word[1:]), None)
        return t

    monkeypatch.setattr(wd, "reduced_coproduct", drop_first_cut)
    inputs = _cobar_inputs()
    for a in inputs:
        assert cobar_square(a) == cobar_square_by_terms(a)
    # the weight 1 and 2 basis sums have no word of length 3 to break
    assert all(cobar_square(a) for a in inputs[2:])


def tensor_mul(t1, t2):
    out = TensorElement(t1.genset, {})
    for (l1, r1), c1 in t1.terms.items():
        for (l2, r2), c2 in t2.terms.items():
            prod_l = shuffle_product(ShuffleElement.word(t1.genset, l1),
                                     ShuffleElement.word(t1.genset, l2))
            prod_r = shuffle_product(ShuffleElement.word(t1.genset, r1),
                                     ShuffleElement.word(t1.genset, r2))
            for wl, cl in prod_l.terms.items():
                for wr, cr in prod_r.terms.items():
                    k = (wl, wr)
                    s = out.terms.get(k, 0) + c1 * c2 * cl * cr
                    if s:
                        out.terms[k] = s
                    else:
                        out.terms.pop(k, None)
    return out


def random_element(rng, genset, max_weight):
    terms = {}
    for _ in range(4):
        n = rng.randint(1, max_weight)
        words = genset.words_of_weight(n)
        terms[rng.choice(words)] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return ShuffleElement(genset, terms)


def test_bialgebra_compatibility_random(rng):
    for _ in range(12):
        a = random_element(rng, GS, 3)
        b = random_element(rng, GS, 3)
        lhs = deconcat_by_accumulation(shuffle_product(a, b))
        rhs = tensor_mul(deconcat_by_accumulation(a), deconcat_by_accumulation(b))
        assert lhs == rhs


def test_grading_additivity(rng):
    for _ in range(8):
        a = random_element(rng, GS, 3)
        b = random_element(rng, GS, 3)
        prod = shuffle_product(a, b)
        weights = {GS.word_weight(word) for word in prod.terms}
        expect = {GS.word_weight(u) + GS.word_weight(v)
                  for u in a.terms for v in b.terms}
        assert weights <= expect


@pytest.mark.parametrize("weights", [(), (1,), (2,), (1, 1), (3, 1, 2), (1, 2, 3, 5),
                                     [2, 2, 1, 4]])
def test_monomials_match_brute_force_in_lex_order(weights):
    for total in range(9):
        ranges = [range(total // w + 1) for w in weights]
        want = [e for e in itertools.product(*ranges)
                if sum(k * w for k, w in zip(e, weights)) == total]
        assert list(wd.monomials(weights, total)) == want


def test_lyndon_decomposition_round_trip():
    # every word's Lyndon polynomial expands back to the word
    for n in range(1, 6):
        for word in GS.words_of_weight(n):
            poly = word_as_lyndon_poly(GS, word)
            acc = ShuffleElement(GS)
            for mono, c in poly.items():
                el = ShuffleElement.one(GS).scale(c)
                for lw in mono:
                    el = shuffle_product(el, ShuffleElement.word(GS, lw))
                acc = acc + el
            assert acc.terms == {word: F(1)}


def test_empty_word_is_the_empty_lyndon_monomial():
    assert word_as_lyndon_poly(GS, ()) == {(): F(1)}
    assert word_as_lyndon_poly(GS1, []) == {(): F(1)}


def test_lyndon_coordinates_sigma_leading():
    assert word_as_lyndon_poly(GS1, ("sigma", "tau")) == {((("sigma", "tau")),): F(1)}
    mixed = word_as_lyndon_poly(GS1, ("tau", "sigma"))
    assert mixed == {(("sigma", "tau"),): F(-1), (("sigma",), ("tau",)): F(1)}


def test_lyndon_factors_are_nonincreasing_lyndon_words():
    gs = standard_genset({2, 3}, 6)
    for n in range(1, 7):
        for word in gs.words_of_weight(n):
            factors = wd.lyndon_factors(gs, word)
            assert sum(factors, ()) == word
            assert all(is_lyndon(gs, f) for f in factors)
            keys = [gs.lyndon_key(f) for f in factors]
            assert keys == sorted(keys, reverse=True)
            # Duval's single factor is the rotation test
            assert (len(factors) == 1) == is_lyndon(gs, word)


@pytest.mark.parametrize("S, top", [({2, 3}, 5), ({3}, 8)])
def test_radford_recursion_matches_the_dense_inverse(S, top):
    gs = standard_genset(S, top)
    for n in range(1, top + 1):
        for word, poly in lyndon_decomposition_dense(gs, n).items():
            assert word_as_lyndon_poly(gs, word) == poly, word


def test_solve_delta_prime_and_primitive_count():
    target = reduced_coproduct(w(GS1, "tau", "tau", "tau", "tau"))
    sol = solve_delta_prime(GS1, 4, target)
    assert sol.terms == {("tau",) * 4: F(1)}
    target3 = reduced_coproduct(w(GS1, "tau", "tau", "tau"))
    sol3 = solve_delta_prime(GS1, 3, target3)
    assert sol3.terms == {("tau",) * 3: F(1)}  # the sigma direction stays zero


def test_solve_delta_prime_matches_dense_solve(table_z_half, table_z_sixth, rng):
    for gs in (table_z_half.genset, table_z_sixth.genset):
        for n in range(1, 5):
            words = gs.words_of_weight(n)
            targets = [reduced_coproduct(ShuffleElement.word(gs, wd)) for wd in words]
            for _ in range(3):
                el = random_combination(gs, rng, n, len(words))
                targets.append(reduced_coproduct(ShuffleElement(gs, {
                    w: c for w, c in el.terms.items() if gs.word_weight(w) == n})))
            for target in targets:
                x = solve_delta_prime(gs, n, target)
                assert x == solve_delta_prime_dense(gs, n, target)


def test_solve_delta_prime_rejects_inconsistent_targets():
    target = reduced_coproduct(w(GS1, "tau", "tau", "sigma"))
    # a cut of another weight, a cut missing, a cut with the wrong coefficient
    bad = [target + TensorElement(GS1, {(("tau",), ("tau",)): F(1)}),
           TensorElement(GS1, {(("tau",), ("tau", "sigma")): F(1)}),
           target + TensorElement(GS1, {(("tau", "tau"), ("sigma",)): F(1)})]
    for t in bad:
        with pytest.raises(ValueError):
            solve_delta_prime(GS1, 5, t)
        with pytest.raises(ValueError):
            solve_delta_prime_dense(GS1, 5, t)


def test_primitive_profile_matches_expected_dimensions():
    # ker Delta'_n = span of single letters: |S| in weight 1, one in odd
    # weights >= 3 with a generator, zero in even weights
    for n in range(1, 7):
        prim = [word for word in GS.words_of_weight(n)
                if len(word) == 1]
        if n == 1:
            assert len(prim) == 2
        elif n == 3:
            assert len(prim) == 1
        else:
            assert len(prim) == 0
        for word in GS.words_of_weight(n):
            red = reduced_coproduct(ShuffleElement.word(GS, word))
            assert red.is_zero() == (len(word) == 1)


def test_serialization_canonical_order():
    el = (w(GS, "tau_3", "tau_2") + w(GS, "tau_2").scale(F(1, 2))
          + w(GS, "sigma_3").scale(F(-2)))
    data = el.to_json()
    assert data == [
        {"word": ["tau_2"], "coeff": "1/2"},
        {"word": ["tau_3", "tau_2"], "coeff": "1"},
        {"word": ["sigma_3"], "coeff": "-2"},
    ]


def test_element_lyndon_poly_linear():
    el = w(GS1, "tau", "sigma") + w(GS1, "sigma", "tau")
    poly = element_as_lyndon_poly(el)
    assert poly == {(("sigma",), ("tau",)): F(1)}


# -- exact row reduction ----------------------------------------------------


def test_row_reduce_determinant_sign_after_swap():
    rows = [[F(0), F(2)], [F(3), F(0)]]
    lead, det = row_reduce(rows, 2)
    assert det == -6
    assert lead == {0: 0, 1: 1}
    assert rows == [[1, 0], [0, 1]]
    _, det = row_reduce([[F(3), F(0)], [F(0), F(2)]], 2)
    assert det == 6


def test_row_reduce_singular_block_has_zero_determinant():
    rows = [[F(1), F(2), F(5)], [F(2), F(4), F(7)]]
    lead, det = row_reduce(rows, 2)
    assert det == 0
    assert lead == {0: 0}
    assert rows[1] == [0, 0, -3]  # the right-hand side keeps the inconsistency


def test_row_reduce_expression_right_hand_side():
    a, b = log_u(2), log_u(3)
    rows = [[F(1), F(1), a], [F(1), F(-1), b]]
    lead, det = row_reduce(rows, 2)
    assert det == -2
    assert rows[lead[0]][2] == (a + b).scale(F(1, 2))
    assert rows[lead[1]][2] == (a - b).scale(F(1, 2))


def test_solve_columns_free_directions_and_inconsistency():
    cols = [{"x": F(1)}, {"x": F(2)}, {"y": F(1)}]
    assert solve_columns(cols, {"x": F(3), "y": F(-1)}) == [3, 0, -1]
    assert solve_columns(cols, {"z": F(1)}) is None
    assert solve_columns([{"x": F(1), "y": F(1)}], {"x": F(1)}) is None


def test_nullspace_of_rank_deficient_matrix():
    mat = [[F(1), F(2), F(3), F(4)],
           [F(2), F(4), F(6), F(8)],
           [F(0), F(0), F(1), F(1)]]
    null = _nullspace(mat, 4)
    assert len(null) == 2  # rank 2, four columns
    for vec in null:
        assert all(sum(r[j] * vec[j] for j in range(4)) == 0 for r in mat)
    assert mat[1] == [2, 4, 6, 8]  # the input is left untouched


_L2, _L3 = Symbol("log", 1, F(2)), Symbol("log", 1, F(3))
# class -> (build from a context and two keys, two contexts or None, two keys)
_CORE = {
    "ShuffleElement": (lambda ctx, a, b: ShuffleElement(ctx, {a: F(2), b: F(-1, 3)}),
                       (GS1, GeneratorSet([("tau", 1), ("sigma", 3)])),
                       (("tau",), ("sigma", "tau"))),
    "TensorElement": (lambda ctx, a, b: TensorElement(ctx, {(a, b): F(2), (b, a): F(-1, 3)}),
                      (GS1, GeneratorSet([("tau", 1), ("sigma", 3)])),
                      (("tau",), ("sigma",))),
    "Expression": (lambda ctx, a, b: Expression({a: F(2), b: F(-1, 3)}),
                   None, ((_L2,), (_L2, _L3))),
    "TensorExpr": (lambda ctx, a, b: TensorExpr({(a, b): F(2), (b, a): F(-1, 3)}),
                   None, ((_L2,), (_L3,))),
    "Poly": (lambda ctx, a, b: Poly(ctx, {a: F(2), b: F(-1, 3)}),
             (("x", "y"), ("x", "z")), ((1, 0), (0, 2))),
}


@pytest.mark.parametrize("name", sorted(_CORE))
def test_linear_combination_core(name):
    build, contexts, (a, b) = _CORE[name]
    ctx, other_ctx = contexts or (None, None)
    x = build(ctx, a, b)
    assert x and not x.is_zero()
    for zero in (x - x, x.scale(0), x + -x):
        assert type(zero) is type(x) and zero.is_zero() and not zero and zero.terms == {}
        assert zero == build(ctx, a, b).scale(0)
    assert x - x == x.scale(0) and x.scale(2) == x + x and x.scale(2) != x
    assert x == build(ctx, a, b) and x != build(ctx, b, a)
    twin = _CORE[min(set(_CORE) - {name})][0](None, a, b)
    twin.terms = dict(x.terms)
    assert x != twin  # same terms, another class
    assert 2 * x == x * 2 == x.scale(2) and F(1, 3) * x == x * F(1, 3) == x.scale(F(1, 3))
    if name != "TensorElement":  # its keys do not multiply
        assert x ** 3 == x * x * x and x ** 2 != x and x ** 1 == x
        for k in (0, -1):
            with pytest.raises(ValueError):
                x ** k
    if name in ("ShuffleElement", "TensorElement"):
        ef = ExprFraction(Expression.sym(_L2), Expression.sym(_L3))
        y = x.scale(ef)
        assert set(y.terms) == set(x.terms)
        assert all(type(c) is ExprFraction and expr_fraction_equals(c, ef * x.terms[k])
                   for k, c in y.terms.items())
    if contexts:
        elsewhere = build(other_ctx, a, b)
        assert x.terms == elsewhere.terms and x != elsewhere
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(ValueError):
                op(x, elsewhere)
        with pytest.raises(TypeError):
            hash(x)
    elif name == "Expression":
        y = build(None, b, a) + x - build(None, b, a)
        assert y == x and hash(y) == hash(x)
        assert hash(x - x) == hash(Expression())
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_constructors_normalize_keys_and_add_what_normalizes_alike():
    assert Expression({(_L3, _L2): F(1), (_L2, _L3): F(2)}).terms == {(_L2, _L3): F(3)}
    assert Expression({(_L3, _L2): F(1), (_L2, _L3): F(-1)}).is_zero()
    poly = Poly(("x",), {(1,): 2, (0,): F(0)})
    assert poly.terms == {(1,): F(2)} and type(poly.terms[(1,)]) is F


def test_shuffle_is_the_product_of_shuffle_elements():
    x = w(GS, "tau_2") + w(GS, "sigma_3", "tau_3").scale(F(1, 2))
    y = w(GS, "tau_3").scale(3)
    assert x * y == shuffle_product(x, y) == y * x
    assert x * ShuffleElement.one(GS) == x


def test_no_combination_in_src_defines_its_own_constructor_loop_products_or_powers():
    # LinearCombination builds, multiplies and raises to powers; a subclass
    # states its keys (_key, _mul_keys) and hands its terms to the base
    found = {}
    for path in sorted(Path(wd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef)
                    and any(ast.unparse(b).endswith("LinearCombination") for b in node.bases)):
                found[node.name] = node
    assert set(found) == {"ShuffleElement", "TensorElement", "Expression", "TensorExpr", "Poly"}
    for name, node in found.items():
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                defined = [item.name]
            elif isinstance(item, ast.Assign):
                defined = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            assert not {"__mul__", "__rmul__", "__pow__"} & set(defined), (name, defined)
            if defined == ["__init__"]:
                assert not any(isinstance(n, (ast.For, ast.While)) for n in ast.walk(item)), name
                assert "super().__init__(" in ast.unparse(item), name


def test_ring_map_is_written_once():
    # the period map, the f-alphabet decomposition, the Goncharov coproduct
    # and the period specialization each hand their atoms to evaluate
    src = Path(wd.__file__).parent
    want = {("polylog.py", "period"), ("galois.py", "expression_to_words"),
            ("symbols.py", "coproduct"), ("elimination.py", "specialize_coefficients")}
    found = set()
    for module, name in want:
        for node in ast.walk(ast.parse((src / module).read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                found.add((module, name))
                assert not any(isinstance(n, ast.For) for n in ast.walk(node)), name
                assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                           and n.func.attr == "evaluate" for n in ast.walk(node)), name
    assert found == want


def _random_expression(rng, atoms, size=4, degree=2):
    return Expression({tuple(rng.sample(atoms, rng.randint(0, degree))):
                       F(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in range(size)})


def _random_poly(rng, ring, free, size=4):
    return Poly(ring, {tuple(rng.randint(0, 2) if i in free else 0 for i in range(len(ring))):
                       F(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in range(size)})


def test_evaluate_on_own_atoms_is_the_identity_and_constants_go_through_const(rng):
    atoms = [_L2, _L3, Symbol("zeta", 3, F(0))]
    ring = ("x", "y", "z")
    for _ in range(10):
        x = _random_expression(rng, atoms)
        assert x.evaluate(Expression.sym, Expression.const) == x
        p = _random_poly(rng, ring, range(3))
        assert p.evaluate(lambda v: Poly.var(ring, v), lambda c: Poly(ring, {(0, 0, 0): c})) == p
    for empty in (Expression(), Poly(ring)):
        assert empty.evaluate(None, lambda c: ("const", c)) == ("const", 0)
    c = F(-7, 3)
    assert Expression.const(c).evaluate(None, F) == c
    assert Poly(ring, {(0, 0, 0): c}).evaluate(None, F) == c
    assert Poly(ring, {(2, 0, 1): c})._factors((2, 0, 1)) == ["x", "x", "z"]


def test_expression_to_words_is_multiplicative(table_z_sixth, rng):
    atoms = sorted(table_z_sixth.entries)
    to_words = table_z_sixth.expression_to_words
    for _ in range(8):
        a, b = (_random_expression(rng, atoms, degree=1) for _ in "ab")
        assert to_words(a * b) == to_words(a) * to_words(b)


def test_specialize_coefficients_is_multiplicative(rng):
    prob, _ = E.structured_shortcut_generators({3})
    assignment = specialization_assignment((3,))
    f_block = range(len(prob.phi_names) + len(prob.li_names), len(prob.ring))
    for _ in range(6):
        # a has Li-monomials, b only Galois coordinates, so the keys of a * b are a's
        a = _random_poly(rng, prob.ring, set(prob.li_index) | set(f_block))
        b = _random_poly(rng, prob.ring, f_block)
        spec_a, spec_b, spec_ab = (
            E.specialize_coefficients(E.IdealElement(prob, x), assignment) for x in (a, b, a * b))
        assert set(spec_b) == {()} and spec_ab == {k: v * spec_b[()] for k, v in spec_a.items()}


@pytest.mark.parametrize("name", ["ShuffleElement", "TensorElement"])
def test_exprfraction_coefficients_negate_and_cancel(name):
    # scale(-1) multiplies -1 * ExprFraction, which needs __rmul__ and __neg__
    build, (ctx, _), (a, b) = _CORE[name]
    y = build(ctx, a, b).scale(ExprFraction(Expression.sym(_L2), Expression.sym(_L3)))
    for zero in (y - y, -y + y):
        assert type(zero) is type(y) and zero.is_zero() and zero.terms == {}
    assert all(type(c) is ExprFraction and expr_fraction_equals(c, -y.terms[k])
               for k, c in (-y).terms.items())
