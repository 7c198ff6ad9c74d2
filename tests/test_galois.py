import hashlib
import json
import re
from fractions import Fraction as F

import pytest

from ckpolylog import cli
import ckpolylog.galois as G
import ckpolylog.symbols as sy
import ckpolylog.words as wd
from oracles import expand_in_basis, kummer_degree_one, solve_delta_prime
from test_golden import COMMANDS, GOLDEN


def sym_li(n, z):
    return sy.Symbol("li", n, F(z))


def test_kummer_degree_one_examples():
    gs = G.standard_genset({2, 3}, 1)
    el = kummer_degree_one(F(9), {2, 3}, gs)
    assert el.terms == {("tau_3",): F(2)}
    assert kummer_degree_one(F(-1), {2, 3}, gs).is_zero()
    gs2 = G.standard_genset({2}, 1)
    assert kummer_degree_one(F(1, 2), {2}, gs2).terms == {("tau_2",): F(-1)}


def test_kummer_names_offending_prime():
    gs = G.standard_genset({2}, 1)
    with pytest.raises(ValueError, match="prime 5"):
        kummer_degree_one(F(10), {2}, gs)
    with pytest.raises(ValueError):
        kummer_degree_one(F(0), {2}, gs)


def test_li2_minus2_exact_expansion(table_z_sixth):
    # dim E_2 = 0: the expansion is complete with no zeta ambiguity
    form = table_z_sixth.entries[sym_li(2, -2)]
    assert form.terms == {("tau_3", "tau_2"): F(-1)}


def test_li3_half_expansion_with_resolved_coefficient(table_z_half):
    sym = sym_li(3, F(1, 2))
    form, _ = expand_in_basis(table_z_half, sym)
    assert form.terms == {("tau_2",) * 3: F(1)}
    assert table_z_half.entries[sym].coefficient(("sigma_3",)) == F(7, 8)
    assert table_z_half.provenance[sym] == "numerically recognized at p=5"


def test_li3_half_supplied_coefficient_matches_numeric(table_z_half):
    sym = sym_li(3, F(1, 2))
    table = G.PeriodTable({2}, choice={sym: (F(7, 8), "supplied")}, max_weight=4)
    assert (table.entries[sym].coefficient(("sigma_3",)), table.provenance[sym]) == (
        F(7, 8), "supplied")
    assert table.entries[sym] == table_z_half.entries[sym]


@pytest.mark.parametrize("symbol", [sym_li(2, 3), sym_li(5, 3), sy.Symbol("li", 1, F(3)),
                                    sy.Symbol("log", 1, F(3)), sy.Symbol("zeta", 3, F(0))],
                         ids=repr)
def test_a_choice_without_a_zeta_coefficient_is_rejected(symbol, monkeypatch):
    # rejected before any entry is built: Li4(9)'s row would resolve Li3(9) numerically
    def resolver():
        raise AssertionError("an entry was built before the choice was checked")

    monkeypatch.setattr(G, "numeric_primitive_resolver", resolver)
    with pytest.raises(ValueError, match=r"a choice for %s fixes no zeta-coefficient"
                       % re.escape(repr(symbol))):
        G.PeriodTable({2, 3}, rows=[sym_li(4, 9)], choice={symbol: (F(5), "chosen")})


def test_li4_half_tabled_form(table_z_half):
    form = table_z_half.entries[sym_li(4, F(1, 2))]
    assert form.terms == {
        ("tau_2",) * 4: F(-1),
        ("sigma_3", "tau_2"): F(-7, 8),
    }


def test_expand_in_basis_surface(table_z_half, table_z_sixth):
    form, prim = expand_in_basis(table_z_half, sym_li(3, F(1, 2)))
    assert form.terms == {("tau_2",) * 3: F(1)}
    assert prim == F(7, 8)
    form, prim = expand_in_basis(table_z_sixth, sym_li(2, -2))
    assert form.terms == {("tau_3", "tau_2"): F(-1)}
    assert prim == 0  # dim E_2 = 0: complete


def test_li3_nine_minus_12_li3_three_is_primitive(table_z_sixth):
    dec9, _ = expand_in_basis(table_z_sixth, sym_li(3, 9))
    dec3, _ = expand_in_basis(table_z_sixth, sym_li(3, 3))
    assert (dec9 - dec3.scale(12)).is_zero()
    assert table_z_sixth.entries[sym_li(3, 9)].coefficient(("sigma_3",)) == F(-26, 3)


def test_weight4_table_values(table_z_sixth):
    li43 = table_z_sixth.entries[sym_li(4, 3)]
    assert li43.terms == {("tau_2", "tau_3", "tau_3", "tau_3"): F(-1)}
    li49 = table_z_sixth.entries[sym_li(4, 9)]
    assert li49.terms == {
        ("sigma_3", "tau_3"): 2 * F(-26, 3),
        ("tau_2", "tau_3", "tau_3", "tau_3"): F(-24),
    }


def test_basis_certificate_deg3_matrix_and_determinant():
    mat, det = G.basis_certificate_deg3()
    assert det == 9
    assert mat[0][0] == 3            # log2 (x) log2^2 of log2^3
    assert mat[2][7] == F(-1, 2)     # log2 (x) log3^2 of Li3(3)
    assert mat[4][6] == F(-1, 2)     # log3 (x) log2^2 of Li3(-2)
    expected = [
        [3, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, F(-1, 2)],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, F(-1, 2), 0],
        [0, 0, 0, 2, 0, -1, 0, 0],
        [0, 3, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ]
    assert mat == [[F(x) for x in row] for row in expected]


def test_f_sigma_tau_z_half(table_z_half):
    fst = G.f_sigma_tau_expression((2,), table_z_half)
    expected = (sy.li_u(4, F(1, 2)).scale(F(-8, 7))
                + (sy.log_u(2) ** 4).scale(F(-8, 7) * F(1, 24)))
    assert fst == expected


def test_f_sigma_tau_z_third(table_z_sixth):
    fst = G.f_sigma_tau_expression((3,), table_z_sixth)
    expected = sy.li_u(4, F(3)).scale(F(18, 13)) + sy.li_u(4, F(9)).scale(F(-3, 52))
    assert fst == expected


def test_table_z_half_holds_its_row_and_what_it_pulls_in(table_z_half):
    assert sorted(map(repr, table_z_half.entries)) == [
        "Li2(1/2)", "Li3(1/2)", "Li4(1/2)", "log(2)", "zeta(3)"]


def test_table_z_sixth_holds_its_rows_its_choice_and_what_they_pull_in(table_z_sixth):
    assert sorted(map(repr, table_z_sixth.entries)) == [
        "Li2(-2)", "Li2(3)", "Li2(9)", "Li3(-2)", "Li3(3)", "Li3(9)", "Li4(3)", "Li4(9)",
        "log(2)", "log(3)", "zeta(3)"]
    # the choice belongs to the table, so a row that pulls Li_3(3) in finds it
    for z in G.P3_CHOICE:
        s = sym_li(3, z)
        assert (table_z_sixth.entries[s].coefficient(("sigma_3",)), table_z_sixth.provenance[s]) \
            == (0, "P_3 basis choice (defines sigma_3)")


def test_f_sigma_tau_names_rows_and_words_of_an_underdetermined_table():
    table = G.PeriodTable({2, 3}, rows=[sym_li(4, 3)],
                          choice={sym_li(3, z): (F(0), "P_3 basis choice (defines sigma_3)")
                                  for z in G.P3_CHOICE})
    with pytest.raises(ValueError, match=r"the weight-4 entries Li4\(3\) do not determine "
                                         r"the coordinate sigma_3 tau_3"):
        G.f_sigma_tau_expression((3,), table)


def test_a_table_is_its_description_in_any_order(table_z_sixth):
    # rows and choice entries given in either order build the same table
    rows = [sym_li(4, 3), sym_li(4, 9)]
    choice = [(sym_li(3, z), (F(0), "P_3 basis choice (defines sigma_3)")) for z in G.P3_CHOICE]
    for order in (list, lambda xs: xs[::-1]):
        table = G.PeriodTable({2, 3}, rows=order(rows), choice=dict(order(choice)))
        assert table.rows == table_z_sixth.rows == tuple(rows)
        assert table.to_json() == table_z_sixth.to_json()
        for s in table_z_sixth.entries:
            assert table.entries[s] == table_z_sixth.entries[s], s
        assert (G.f_sigma_tau_expression((3,), table)
                == G.f_sigma_tau_expression((3,), table_z_sixth))


def test_f_sigma_tau_solves_from_the_rows_only(table_z_half, table_z_sixth):
    # a built table never grows: a symbol outside its description has no
    # entry, the decomposition refuses it, and the solve does not change
    for table, ell, extra in [(table_z_half, 2, [sym_li(4, -1), sym_li(2, -1)]),
                              (table_z_sixth, 3, [sym_li(4, -3), sym_li(2, -3)])]:
        fst = G.f_sigma_tau_expression((ell,), table)
        for s in extra:
            with pytest.raises(KeyError):
                table.entries[s]
            with pytest.raises(KeyError):
                table.expression_to_words(sy.Expression.sym(s))
        assert G.f_sigma_tau_expression((ell,), table) == fst
    assert fst == sy.li_u(4, F(3)).scale(F(18, 13)) + sy.li_u(4, F(9)).scale(F(-3, 52))


def test_tabled_tables_json_is_pinned(table_z_half, table_z_sixth):
    # both builders' tables, byte for byte, whatever route builds their rows
    digests = [hashlib.sha256(json.dumps(t.to_json(), sort_keys=True).encode()).hexdigest()
               for t in (table_z_half, table_z_sixth)]
    assert digests == ["a5bd0d6cafa51f8300b3fff71edb6a984b08885b6e5cee241f9f9ee73cd72718",
                       "3ca031bebfe0112b9bf17ec546bb00745d22f0d7425889bc997e2a31df30f3b5"]


def test_f_sigma_tau_rejects_an_untabled_base(table_z_sixth):
    with pytest.raises(ValueError, match=r"is tabled for S=\{2\} and S=\{3\} only"):
        G.f_sigma_tau_expression((5,), table_z_sixth)


def test_full_forms_reproduce_goncharov_coproducts(table_z_sixth):
    # Delta' of the word form equals the substituted Goncharov coproduct
    for s in [sym_li(2, -2), sym_li(2, 3), sym_li(3, 3), sym_li(3, 9),
              sym_li(4, 3), sym_li(4, 9)]:
        lhs = wd.reduced_coproduct(table_z_sixth.entries[s])
        rhs = table_z_sixth.tensor_to_words(
            sy.reduced_coproduct(sy.Expression.sym(s)))
        assert lhs == rhs


def test_product_rule_expansion(table_z_sixth):
    # expansion of a product equals the shuffle product of expansions
    prod_expr = sy.log_u(2) * sy.li_u(2, F(-2))
    via_product = table_z_sixth.expression_to_words(prod_expr)
    direct = wd.shuffle_product(
        table_z_sixth.expression_to_words(sy.log_u(2)),
        table_z_sixth.expression_to_words(sy.li_u(2, F(-2))))
    assert via_product == direct
    # and the Delta'-solve route recovers the same element
    target = table_z_sixth.tensor_to_words(sy.reduced_coproduct(prod_expr))
    solved = solve_delta_prime(table_z_sixth.genset, 3, target)
    assert solved == via_product  # weight 3, sigma-coefficient zero on both


def test_expansion_rejects_non_s_unit_points():
    with pytest.raises(ValueError, match=r"Li_2\(5\) is not an S-point symbol"):
        G.PeriodTable({2, 3}, rows=[sym_li(2, 5)])


def test_a_wrong_row_fails_its_goncharov_check_in_verify_hopf(monkeypatch, capsys):
    # a table row off its Goncharov coproduct is caught by verify hopf, by name
    real = G.build_table_z_sixth

    def corrupt():
        table = real()
        table.entries[sym_li(4, 3)] = wd.ShuffleElement.word(
            table.genset, ("tau_3", "tau_3", "tau_3", "tau_2"))  # wrong on purpose
        return table

    monkeypatch.setattr(G, "build_table_z_sixth", corrupt)
    assert cli.main(["verify", "hopf", "--p", "5"]) == 1
    rows = json.loads(capsys.readouterr().out)["suites"]["hopf"]
    assert [r["check"] for r in rows if not r["passed"]] == ["goncharov:Li4(3) over Z[1/2,3]"]
    assert {"check": "cobar exactness through weight 8", "passed": True} in rows


def test_li_rows_are_their_delta_prime_solves(table_z_half, table_z_sixth):
    # the cocycle route gives each row the word form the Delta' solve of its
    # Goncharov coproduct gives, plus its sigma word
    assert (len(table_z_half.entries), len(table_z_sixth.entries)) == (5, 11)
    for table in (table_z_half, table_z_sixth):
        for s in (s for s in table.entries if s.kind == "li"):
            target = table.tensor_to_words(sy.reduced_coproduct(sy.Expression.sym(s)))
            form = solve_delta_prime(table.genset, s.n, target)
            if table.has_sigma(s.n):
                sigma = (G.sigma_id(s.n),)
                form = form + wd.ShuffleElement.word(table.genset, sigma,
                                                     table.entries[s].coefficient(sigma))
            assert table.entries[s] == form, s


def test_li1_row_is_minus_log_of_one_minus_z():
    # its cocycle coordinate Phi[tau;li1] is -ord(1 - z); Delta' of Li_1 is 0
    table = G.PeriodTable({2, 3}, rows=[sym_li(1, -2), sym_li(1, 3)])
    assert table.entries[sym_li(1, -2)].terms == {("tau_3",): F(-1)}
    assert table.entries[sym_li(1, 3)].terms == {("tau_2",): F(-1)}


def test_tables_and_commands_need_no_goncharov_coproduct(monkeypatch, capsys):
    def refuse(expr):
        raise AssertionError("reduced_coproduct called on %r" % (expr,))

    monkeypatch.setattr(sy, "reduced_coproduct", refuse)
    monkeypatch.setattr(G, "_TABLES", {})
    assert len(G.build_table_z_half().entries) == 5
    assert len(G.build_table_z_sixth().entries) == 11
    for name in ("ideal_S3", "locus_S3_p5"):
        argv, status = COMMANDS[name]
        assert cli.main(argv) == status
        assert capsys.readouterr().out == (GOLDEN / (name + ".json")).read_text()


def test_period_table_json(table_z_half):
    rows = table_z_half.to_json()
    by_symbol = {r["symbol"]: r for r in rows}
    assert by_symbol["Li3(1/2)"]["primitiveCoefficient"] == "7/8"
    assert by_symbol["Li3(1/2)"]["Z"] == "Z[1/2]"
    assert by_symbol["log(2)"]["basisForm"] == [{"word": ["tau_2"], "coeff": "1"}]


def test_period_expression_round_trip(table_z_sixth, eng5):
    # re-expressing a word form through tabled symbols preserves periods
    el = table_z_sixth.entries[sym_li(3, 9)]
    expr = table_z_sixth.period_expression_of(el)
    direct = eng5.period(sy.Expression.sym(sym_li(3, 9)))
    assert (eng5.period(expr) - direct).val_lower_bound() >= 20


@pytest.mark.parametrize("build, count", [
    ("build_table_z_half", 10),
    ("build_table_z_sixth", 34),
])
def test_period_expressions_read_back(build, count):
    # every entry and every product of two within the weight bound reads back
    # to its words exactly
    table = getattr(G, build)()
    atoms = sorted(table.entries)
    els = [table.entries[s] for s in atoms]
    els += [table.entries[s] * table.entries[t] for i, s in enumerate(atoms)
            for t in atoms[i:] if s.weight + t.weight <= table.max_weight]
    assert len(els) == count
    for el in els:
        assert table.expression_to_words(table.period_expression_of(el)) == el, el


def test_period_expression_of_a_constant_term(table_z_sixth):
    # the constant term is the empty Lyndon monomial, read as the constant
    one = wd.ShuffleElement.one(table_z_sixth.genset)
    assert table_z_sixth.period_expression_of(one.scale(F(5, 2))).terms == {(): F(5, 2)}
    el = table_z_sixth.entries[sym_li(3, 9)]
    with_constant = table_z_sixth.period_expression_of(el + one.scale(F(-3)))
    assert with_constant.terms == {**table_z_sixth.period_expression_of(el).terms, (): F(-3)}


# -- the one zeta-ratio recognition ---------------------------------------------


def _li3_nine_minus_12_li3_three(eng):
    return eng.polylog(3, F(9)) - 12 * eng.polylog(3, F(3))


@pytest.mark.parametrize("p", [5, 7, 13])
def test_recognize_minus_26_thirds_at_the_default_policy(p):
    from ckpolylog.padic import PrecisionPolicy
    from ckpolylog.polylog import get_engine
    eng = get_engine(p, PrecisionPolicy())
    assert G.recognize_zeta_ratio(eng, _li3_nine_minus_12_li3_three(eng), 3) == F(-26, 3)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_recognize_seven_eighths_at_the_default_policy(p):
    # the tables recognize at one prime; the same coefficient must come out at others
    from ckpolylog.padic import PrecisionPolicy
    from ckpolylog.polylog import get_engine
    eng = get_engine(p, PrecisionPolicy())
    num = eng.polylog(3, F(1, 2)) - eng.log(F(2)) ** 3 / 6
    assert G.recognize_zeta_ratio(eng, num, 3) == F(7, 8)


def test_unrecognized_coefficient_names_symbol_and_prime(monkeypatch):
    monkeypatch.setattr(G, "recognize_zeta_ratio", lambda eng, num, n: None)
    with pytest.raises(ArithmeticError, match=r"Li3\(9\) at p=5"):
        G.build_table_z_sixth()


def _least_verify_prec(p, guard=3):
    from ckpolylog import cli
    for M in range(guard + 1, 40):
        args = cli.parse_args(["verify", "identities", "--p", str(p),
                               "--prec", str(M), "--guard", str(guard)])
        if cli._unsupported(args) is None:
            return M
    raise AssertionError("no --prec accepted at p=%d" % p)


def test_resolver_and_verify_threshold_share_digits_and_bounds(monkeypatch):
    from ckpolylog.padic import PrecisionPolicy
    from ckpolylog.polylog import get_engine
    num, den = G.RECOGNITION_BOUNDS
    calls = []

    def spy(x, *bounds):
        calls.append((x.p, x.abs_precision(), bounds))
        return real(x, *bounds)

    real = G.rational_reconstruct
    monkeypatch.setattr(G, "rational_reconstruct", spy)
    G.build_table_z_sixth()
    # the resolver recognizes Li_3(9)'s coefficient once, at the recognition prime
    threshold = PrecisionPolicy().equality_threshold
    assert calls == [(G.RECOGNITION_PRIME, threshold + G.RECOGNITION_DIGITS, (num, den))]
    for p in (5, 7, 13):
        # verify accepts the least --prec whose recognition digits suffice for
        # the bounds, unless the zeta_p(3) division needs more
        M = _least_verify_prec(p)
        digits = M - 3 + G.RECOGNITION_DIGITS
        assert p ** digits > 2 * num * den
        assert p ** (digits - 1) <= 2 * num * den or M == 3 + 4
        eng = get_engine(p, PrecisionPolicy(M, 3))
        assert G.recognize_zeta_ratio(eng, _li3_nine_minus_12_li3_three(eng), 3) == F(-26, 3)
    # both sides read the one constant
    least = _least_verify_prec(5)
    monkeypatch.setattr(G, "RECOGNITION_DIGITS", G.RECOGNITION_DIGITS + 1)
    assert _least_verify_prec(5) == least - 1
    calls.clear()
    G.build_table_z_sixth()
    assert [c[1] for c in calls] == [threshold + G.RECOGNITION_DIGITS]
