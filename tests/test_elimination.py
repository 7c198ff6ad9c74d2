from fractions import Fraction as F
from math import factorial

import pytest

import ckpolylog.elimination as E
import ckpolylog.galois as G
import ckpolylog.symbols as sy
from ckpolylog.cocycles import coordinate_name, eval_universal
from ckpolylog.elimination import Poly
from ckpolylog.words import ShuffleElement, shuffle_product
from oracles import canonical_form, lyndon_words


def test_weight1_no_relations():
    assert E.ck_ideal_generators(1, {3}) == []


def test_weight2_generator():
    gens = E.ck_ideal_generators(2, {3})
    assert len(gens) == 1
    prob, short = E.structured_shortcut_generators({3})
    assert canonical_form(gens[0]) == canonical_form(short[0])
    assert gens[0].weight == 2


def test_weight3_nothing_new():
    gens = E.ck_ideal_generators(3, {3})
    assert len(gens) == 1
    assert gens[0].weight == 2


def test_weight4_exactly_the_two_generators():
    gens = E.ck_ideal_generators(4, {3})
    prob, short = E.structured_shortcut_generators({3})
    assert [canonical_form(g) for g in gens] == [canonical_form(s) for s in short]
    assert [g.weight for g in gens] == [2, 8]


def test_weight4_other_base_prime():
    gens = E.ck_ideal_generators(4, {2})
    prob, short = E.structured_shortcut_generators({2})
    assert [canonical_form(g) for g in gens] == [canonical_form(s) for s in short]


def test_verify_vanishing_examples():
    prob, short = E.structured_shortcut_generators({3})
    assert E.verify_vanishing(short[1])
    # Li_2 alone does not vanish
    li2 = E.IdealElement(prob, Poly.var(prob.ring, "li2"))
    assert not E.verify_vanishing(li2)
    zero = E.IdealElement(prob, Poly(prob.ring))
    assert E.verify_vanishing(zero)


def test_normalization_idempotent_and_deterministic():
    gens1 = E.ck_ideal_generators(4, {3})
    gens2 = E.ck_ideal_generators(4, {3})
    assert [g.poly.terms for g in gens1] == [g.poly.terms for g in gens2]
    for g in gens1:
        assert g.normalized().poly == g.poly


def test_content_normalize_clears_denominators_and_content():
    ring = ("x", "y")
    f = Poly(ring, {(2, 0): F(-3, 4), (1, 1): F(9, 10), (0, 0): F(3, 2)})
    assert f.content_normalize().terms == {(2, 0): 5, (1, 1): -6, (0, 0): -10}
    assert Poly(ring, {(0, 1): F(-7, 3)}).content_normalize().terms == {(0, 1): 1}
    assert Poly(ring).content_normalize().terms == {}


def test_soundness_all_outputs_vanish():
    for n in (2, 3, 4):
        for g in E.ck_ideal_generators(n, {3}):
            assert E.verify_vanishing(g)


def inverted(element):
    """An ideal element after z -> 1/z: log -> -log and
    Li_k -> (-1)^(k-1) Li_k - (-1)^k log^k / k!, Coleman's inversion formula
    with log p = 0 and zeta_p(even) = 0; every other variable is fixed."""
    ring = element.poly.ring
    log = Poly.var(ring, "log")

    def image(name):
        if name == "log":
            return -log
        if name in element.problem.li_names:
            k = int(name[2:])
            return (-1) ** (k - 1) * Poly.var(ring, name) - F((-1) ** k, factorial(k)) * log ** k
        return Poly.var(ring, name)

    return element.poly.evaluate(image, lambda c: Poly(ring, {(0,) * len(ring): c}))


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_shortcut_generators_are_odd_under_inversion(ell):
    prob, gens = E.structured_shortcut_generators({ell})
    for g in gens:
        assert inverted(g) == -g.poly, g
    # an element that is not odd: Li_1 goes to Li_1 + log
    li1 = E.IdealElement(prob, Poly.var(prob.ring, "li1"))
    assert inverted(li1) == li1.poly + Poly.var(prob.ring, "log")


@pytest.mark.parametrize("S, n", [({2}, 4), ({3}, 5), ({5}, 5), ({2}, 5)])
def test_ideal_generators_are_odd_under_inversion(S, n):
    gens = E.ck_ideal_generators(n, S)
    assert gens
    for g in gens:
        assert inverted(g) == -g.poly, g


def _span_dimension_at_weight(prob, gens, m):
    """Dimension of the weight-m piece of the ideal generated by gens."""
    ring = prob.ring
    vecs = []
    for g in gens:
        base = prob.weight(g.poly)
        if base is None or base > m:
            continue
        cofactor_mono_weights = m - base
        for lm, lw in E._li_monomials(prob, cofactor_mono_weights, 8) + [((), 0)]:
            for fm in E._f_monomials(prob, cofactor_mono_weights - lw):
                e = [0] * len(ring)
                for name, k in lm:
                    e[ring.index(name)] += k
                for name, k in fm:
                    e[ring.index(name)] += k
                prod = g.poly * Poly(ring, {tuple(e): F(1)})
                vecs.append(prod)
    keys = sorted({k for v in vecs for k in v.terms})
    kidx = {k: i for i, k in enumerate(keys)}
    mat = [[F(0)] * len(vecs) for _ in keys]
    for j, v in enumerate(vecs):
        for k, c in v.terms.items():
            mat[kidx[k]][j] = c
    return _rank(mat)


def _rank(mat):
    if not mat:
        return 0
    mat = [row[:] for row in mat]
    rows, cols = len(mat), len(mat[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == rows:
            break
    return r


@pytest.mark.parametrize("ell", [2, 3])
def test_ring_names_the_image_coordinates_sigma_first(ell):
    prob = E.SubstitutionProblem(4, {ell})
    images = eval_universal(4, prob.genset)
    assert set(prob.phi_names) == {name for poly in images.values()
                                   for mono in poly for name in mono}
    sigma = coordinate_name("sigma_3", 3)
    taus = [coordinate_name(G.tau_id(ell)), coordinate_name(G.tau_id(ell), 1)]
    assert list(prob.ring[:3]) == [sigma] + taus


@pytest.mark.parametrize("n", range(1, 11))
def test_ring_targets_are_the_image_keys_with_their_weights(n):
    prob = E.SubstitutionProblem(n, {3})
    assert prob.li_names == list(eval_universal(n, prob.genset))
    assert [prob.weight(Poly.var(prob.ring, name)) for name in prob.li_names] \
        == [1] + list(range(1, n + 1))


@pytest.mark.parametrize("S, n", [({2, 3}, 6), ({3}, 10)])
def test_f_block_is_the_lyndon_words_the_images_use(S, n):
    prob = E.SubstitutionProblem(n, S)
    gs = prob.genset
    f_block = slice(len(prob.phi_names) + len(prob.li_names), None)
    fvars = prob.ring[f_block]
    # a KeyError names an f-variable that is no Lyndon word
    lyndon = {E.f_var_name(w): w for w in lyndon_words(gs, n)}
    block = [lyndon[name] for name in fvars]
    assert block == sorted(block, key=gs.word_sort_key)
    used = {v for poly in prob.image_polys.values() for e in poly.terms
            for v, k in zip(prob.ring, e) if k}
    assert set(fvars) <= used
    assert prob.half_weights[f_block] == tuple(gs.word_weight(w) for w in block)
    # each image, its Lyndon monomials shuffled back into words, is eval_universal's
    phi = len(prob.phi_names)
    for tgt, image in eval_universal(n, gs).items():
        back = {}
        for e, c in prob.image_polys[tgt].terms.items():
            mono = tuple(name for name, k in zip(prob.phi_names, e[:phi]) for _ in range(k))
            el = ShuffleElement.one(gs).scale(c)
            for w, k in zip(block, e[f_block]):
                for _ in range(k):
                    el = shuffle_product(el, ShuffleElement.word(gs, w))
            back[mono] = back[mono] + el if mono in back else el
        assert back == image


def test_split_reassembles_each_polynomial():
    prob, short = E.structured_shortcut_generators({3})
    polys = [g.poly for g in short] + prob.graph_ideal()
    for poly in polys:
        total = Poly(prob.ring)
        for key, coeff in prob.split(poly).items():
            for name, k in key:
                coeff = coeff * Poly.var(prob.ring, name) ** k
            total = total + coeff
        assert total == poly


def test_completeness_brute_force_kernel_certification():
    """The generated ideal matches the full elimination kernel, weight by weight."""
    prob = E.SubstitutionProblem(4, {3})
    gens = E.ck_ideal_generators(4, {3})
    for m in range(1, 9):
        kdim, _ = E.graded_kernel_dimension(prob, m, max_li_degree=8)
        sdim = _span_dimension_at_weight(prob, gens, m)
        assert kdim == sdim, "weight %d: kernel %d vs generated %d" % (m, kdim, sdim)


def test_specialize_weight2_unchanged():
    prob, short = E.structured_shortcut_generators({3})
    assignment = {(): sy.Expression.const(1)}  # weight-2 element needs nothing
    spec = E.specialize_coefficients(short[0], {})
    assert spec == {
        (("li2", 1),): sy.Expression.const(2),
        (("log", 1), ("li1", 1)): sy.Expression.const(-1),
    }


def test_specialize_weight4_verbatim(table_z_sixth):
    prob, short = E.structured_shortcut_generators({3})
    assignment = G.specialization_assignment((3,))
    spec = E.specialize_coefficients(short[1], assignment)
    fst = G.f_sigma_tau_expression((3,), table_z_sixth)
    z3l3 = sy.zeta_u(3) * sy.log_u(3)
    assert spec[(("li4", 1),)] == z3l3.scale(24)
    assert spec[(("log", 1), ("li3", 1))] == fst.scale(-24)
    assert spec[(("log", 3), ("li1", 1))] == fst.scale(4) - z3l3


def test_specialize_weight4_z_half(table_z_half):
    prob, short = E.structured_shortcut_generators({2})
    assignment = G.specialization_assignment((2,))
    spec = E.specialize_coefficients(short[1], assignment)
    fst = G.f_sigma_tau_expression((2,), table_z_half)
    assert spec[(("log", 1), ("li3", 1))] == fst.scale(-24)


def test_specialize_missing_coordinate_errors():
    prob, short = E.structured_shortcut_generators({3})
    with pytest.raises(KeyError, match="sigma_3"):
        E.specialize_coefficients(short[1], {("tau_3",): sy.log_u(3)})


def test_weight5_best_effort_no_new_relation(monkeypatch):
    # the new coordinate Phi[sigma_5;li5] matches the new function Li_5:
    # nothing new
    monkeypatch.setattr(E, "MAX_DEGREE", 14)
    gens = E.ck_ideal_generators(5, {3})
    assert [g.weight for g in gens] == [2, 8]
    for g in gens:
        assert E.verify_vanishing(g)


def test_two_prime_base_runs_best_effort():
    # |S| = 2 is uncertified; at these weights the cocycle space is too
    # large for relations, and the machinery must simply report none
    assert E.ck_ideal_generators(2, {2, 3}) == []


def test_guard_trips_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(E, "MAX_STEPS", 3)
    with pytest.raises(E.EliminationGuard):
        E.ck_ideal_generators(4, {3})


def test_ideal_element_json():
    gens = E.ck_ideal_generators(2, {3})
    data = gens[0].to_json()
    assert data["weight"] == 2
    assert {"liMonomial": ["Li2"], "coeff": "2"} in data["terms"]
    assert {"liMonomial": ["log", "Li1"], "coeff": "-1"} in data["terms"]
