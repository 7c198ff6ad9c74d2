import json
import os
import re
import subprocess
import sys

import pytest

import ckpolylog
import ckpolylog.words as wd
from ckpolylog.cli import _emit, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_ideal_weight4(capsys):
    code, data = run_cli(capsys, "ideal", "--S", "3", "--n", "4", "--abstract-only")
    assert code == 0
    assert "specialized" not in data
    assert data["certified"] is True
    assert [g["weight"] for g in data["generators"]] == [2, 8]
    wt2 = data["generators"][0]["terms"]
    assert {"liMonomial": ["Li2"], "coeff": "2"} in wt2
    wt4 = {tuple(t["liMonomial"]): t["coeff"] for t in data["generators"][1]["terms"]}
    assert wt4[("Li4",)] == "24*f[tau_3]*f[sigma_3]"
    assert wt4[("log", "Li3")] == "-24*f[sigma_3.tau_3]"


def test_ideal_weight2_other_prime(capsys):
    code, data = run_cli(capsys, "ideal", "--S", "2", "--n", "2")
    assert code == 0
    assert len(data["generators"]) == 1
    assert data["generators"][0]["weight"] == 2


def test_ideal_weight1_empty(capsys):
    code, data = run_cli(capsys, "ideal", "--S", "3", "--n", "1")
    assert code == 0
    assert data["generators"] == []


def test_locus_weight2_p7(capsys, policy):
    code, data = run_cli(capsys, "locus", "--S", "3", "--p", "7", "--n", "2")
    assert code == 0
    guesses = sorted(z["rationalGuess"] for z in data["zeros"])
    assert guesses == ["-1/1", "1/2", "2/1"]
    assert all(z["certified"] for z in data["zeros"])


def test_locus_weight4_and_symmetrized(capsys):
    code, data = run_cli(capsys, "locus", "--S", "3", "--p", "5", "--n", "4")
    assert code == 0
    assert [z["rationalGuess"] for z in data["zeros"]] == ["-1/1"]
    code, data = run_cli(capsys, "locus", "--S", "3", "--p", "5", "--n", "4",
                         "--symmetrize")
    assert code == 0
    assert data["zeros"] == []


def test_locus_above_weight4_says_it_narrowed(capsys):
    # --n 6 asks for more than the wt2 and wt4 functions: the run says so on
    # stderr and in the payload, and finds the same locus as --n 4
    code = main(["locus", "--S", "3", "--p", "5", "--n", "6"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 0
    assert data["usedWeights"] == [2, 4]
    assert data["functions"] == ["wt2", "wt4[S=3]"]
    assert [z["rationalGuess"] for z in data["zeros"]] == ["-1/1"]
    line, = captured.err.splitlines()
    assert "--n 6" in line and "weight 2 and 4" in line
    _, at4 = run_cli(capsys, "locus", "--S", "3", "--p", "5", "--n", "4")
    assert "usedWeights" not in at4


def test_locus_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "locus", "--S", "3", "--p", "5", "--n", "4",
                       "--symmetrize")
    a = json.dumps(first, sort_keys=True)
    _, second = run_cli(capsys, "locus", "--S", "3", "--p", "5", "--n", "4",
                        "--symmetrize")
    b = json.dumps(second, sort_keys=True)
    assert a == b


def test_verify_suites_pass(capsys):
    # only counterexample reads --S
    for suite, S in (("identities", ()), ("appendix", ()), ("counterexample", ("--S", "3")),
                     ("hopf", ())):
        code, data = run_cli(capsys, "verify", suite, *S, "--p", "5")
        assert code == 0, suite
        assert suite in data["suites"]
    # the zeta-coefficient recognition at primes other than the tables' one
    for p in ("7", "13"):
        code, data = run_cli(capsys, "verify", "identities", "--p", p)
        assert code == 0, p
        assert data["suites"]["identities"][-1]["recognized"] == "-26/3"


@pytest.mark.parametrize("argv, primes", [(("ideal", "--S", "2"), {5}),
                                          (("ideal", "--S", "3"), {5}),
                                          (("locus", "--S", "3", "--p", "13"), {5, 13})])
def test_commands_build_engines_only_at_their_primes(argv, primes, capsys, monkeypatch):
    # the period tables recognize their zeta-coefficients at p = 5 alone
    import ckpolylog.galois as galois
    import ckpolylog.polylog as polylog
    monkeypatch.setattr(polylog, "_ENGINES", {})
    monkeypatch.setattr(galois, "_TABLES", {})
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert {key[0] for key in polylog._ENGINES} == primes


def test_verify_hopf_fails_when_a_cut_is_dropped(capsys, monkeypatch):
    real = wd.reduced_coproduct

    def drop_first_cut(a):
        t = real(a)
        for word in a.terms:
            if len(word) == 3:
                t.terms.pop((word[:1], word[1:]), None)
        return t

    monkeypatch.setattr(wd, "reduced_coproduct", drop_first_cut)
    code, data = run_cli(capsys, "verify", "hopf", "--p", "5")
    assert code == 1
    failing = [row["check"] for row in data["suites"]["hopf"] if not row["passed"]]
    assert "cobar:tau_2.tau_3.tau_2" in failing
    assert "cobar exactness through weight 8" in failing
    # the Goncharov rows of the period tables take Delta' through the same cuts
    assert all(c.startswith(("cobar", "goncharov:")) for c in failing)


def test_cli_rejects_bad_primes(capsys):
    assert main(["locus", "--S", "3", "--p", "3"]) == 2
    assert main(["verify", "counterexample", "--S", "5", "--p", "5"]) == 2


@pytest.mark.parametrize("argv, message", [
    (("ideal", "--S", "4"), "argument --S: 4 is not prime"),
    (("ideal", "--S", "0"), "argument --S: 0 is not prime"),
    (("ideal", "--S", "-3"), "argument --S: -3 is not prime"),
    (("locus", "--p", "1"), "argument --p: 1 is not prime"),
    (("locus", "--p", "4"), "argument --p: 4 is not prime"),
    (("locus", "--p", "9"), "argument --p: 9 is not prime"),
])
def test_cli_rejects_non_prime_input(argv, message):
    # a fresh process, so the exit status and stderr are the real ones and a
    # hang (as --p 1 once did) fails on the timeout
    _assert_rejected(argv, message, timeout=5)


def _assert_rejected(argv, message, timeout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckpolylog.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ckpolylog", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    return proc.stderr


# argv -> the one line it must print; tests/test_reachability.py runs these too
ARGUMENT_ERRORS = [
    ((), "the following arguments are required: command"),
    (("solve",), "argument command: invalid choice: 'solve'"),
    (("--p", "5", "locus"), "argument command: invalid choice: '--p'"),
    (("locus", "--p"), "argument --p: expected one argument"),
    (("locus", "--out", "--S", "3"), "argument --out: expected one argument"),
    (("locus", "--n", "four"), "argument --n: invalid int value: 'four'"),
    (("locus", "--prec=x"), "argument --prec: invalid int value: 'x'"),
    (("ideal", "--S", "3,x"), "argument --S: invalid int value: 'x'"),
    (("ideal", "--S=4"), "argument --S: 4 is not prime"),
    (("locus", "--bogus"), "unrecognized arguments: --bogus"),
    (("locus", "--abstract-only"), "unrecognized arguments: --abstract-only"),
    (("ideal", "--symmetrize"), "unrecognized arguments: --symmetrize"),
    (("ideal", "--suite", "hopf"), "unrecognized arguments: --suite"),
    (("locus", "extra"), "unrecognized arguments: extra"),
    (("verify", "hopf", "identities"), "unrecognized arguments: identities"),
    (("verify", "nope"), "argument suite: invalid choice: 'nope'"),
    (("verify", "--suite", "nope"), "argument --suite: invalid choice: 'nope'"),
    # the suite is named once, either way
    (("verify", "hopf", "--suite", "identities"),
     "argument --suite: the suite is named twice: 'hopf' and 'identities'"),
    (("verify", "--suite", "hopf", "identities"), "unrecognized arguments: identities"),
    (("ideal", "--S", "3,3"), "argument --S: 3,3 repeats a prime"),
    (("locus", "--S", "3,3", "--p", "5"), "argument --S: 3,3 repeats a prime"),
]


@pytest.mark.parametrize("argv, message", ARGUMENT_ERRORS)
def test_cli_argument_errors_are_one_line(argv, message, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert message in line


def test_cli_argument_error_in_a_fresh_process():
    stderr = _assert_rejected(("locus", "--n", "four"), "invalid int value", timeout=5)
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help_prints_the_module_docstring(flag, capsys):
    import ckpolylog.cli as cli
    assert main(["locus", flag]) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.__doc__ and captured.err == ""


def test_cli_docstring_states_the_parsed_defaults():
    # -h prints the docstring, so each "(default X)" in it must be what
    # parse_args gives when the option is left out
    import ckpolylog.cli as cli
    documented = dict(re.findall(r"^  (--\w+) .*\(default (\S+)\)$", cli.__doc__, re.M))
    for command in cli.FLAGS:
        args = cli.parse_args([command])
        for option, (attr, parse) in cli.OPTIONS.items():
            default = getattr(args, attr)
            if default is None:
                assert option not in documented, (command, option)
            else:
                assert parse(documented[option]) == default, (command, option)


def test_cli_option_spellings_and_defaults(capsys):
    # --opt=value, repeated options (the last wins), options in any order
    code, data = run_cli(capsys, "locus", "--n=2", "--p", "11", "--S", "3", "--p=7")
    assert code == 0 and data["p"] == 7 and data["n"] == 2 and data["S"] == [3]
    assert data["policy"] == {"M": 12, "g": 3}
    _, default = run_cli(capsys, "locus", "--n", "2")
    assert default["p"] == 5 and default["S"] == [3]


def test_cli_runs_without_argparse_gettext_or_locale(tmp_path):
    # the parser is the module's own; -S keeps site hooks out of the count
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckpolylog.__file__)))
    out = str(tmp_path / "cert.json")
    code = ("import sys\n"
            "from ckpolylog.cli import main\n"
            "codes = [main(['locus', '--S', '3', '--p', '5', '--out', %r]),\n"
            "         main(['verify', 'all', '--p', '5', '--out', %r])]\n"
            "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
            % (out, out))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"


# argv -> the one line it must print; tests/test_reachability.py runs these too
UNSUPPORTED_INPUT = [
    (("locus", "--S", "5", "--p", "7"), "locus --n >= 4 needs --S 2 or --S 3"),
    (("locus", "--S", "2,3"), "locus --n >= 4 needs --S 2 or --S 3"),
    (("locus", "--n", "1"), "locus needs --n >= 2"),
    (("locus", "--prec", "2", "--guard", "3"), "need --prec > --guard >= 0"),
    (("ideal", "--n", "0"), "ideal needs --n >= 1"),
    (("ideal", "--S", "3", "--n", "6"),
     "ideal --S 3 --n 6 is unsupported: degree 13 exceeds guard 12"),
    (("ideal", "--S", "2,3"),
     "ideal --S 2,3 --n 4 is unsupported: degree 13 exceeds guard 12"),
    (("verify", "counterexample", "--S", "2,3"),
     "verify counterexample needs a single prime in --S"),
    (("verify", "all", "--S", "2,3"), "verify counterexample needs a single prime in --S"),
    (("locus", "--S", "2,3", "--n", "2", "--p", "5"), "locus needs a single prime in --S"),
    (("locus", "--S", "2,3", "--n", "3", "--p", "5"), "locus needs a single prime in --S"),
    # zeta_p(3) has valuation 3, so M - g <= 3 cannot divide by it
    (("verify", "identities", "--p", "7", "--prec", "6"),
     "verify identities needs --prec >= 7 at --guard 3"),
    (("verify", "appendix", "--p", "7", "--prec", "5"),
     "verify appendix needs --prec >= 7 at --guard 3"),
    (("verify", "all", "--p", "7", "--prec", "6"), "verify all needs --prec >= 7 at --guard 3"),
    # recognizing -26/3 needs 5^(M - g + 4) > 2 * 10^4 * 10^3
    (("verify", "identities", "--p", "5", "--prec", "7"),
     "verify identities needs --prec >= 10 at --p 5 --guard 3"),
    (("locus", "--p", "3"), "numerics need p > 3"),
    (("locus", "--S", "5", "--p", "5"), "working prime must avoid S"),
    (("verify", "counterexample", "--p", "5", "--n", "0"), "verify counterexample needs --n >= 1"),
    (("verify", "all", "--p", "5", "--n", "0"), "verify counterexample needs --n >= 1"),
    (("verify", "counterexample", "--p", "5", "--n", "-2"),
     "verify counterexample needs --n >= 1"),
    (("verify", "--p", "5"), "verify needs a suite (positional or --suite)"),
    # only counterexample (alone or in all) reads --S and --n
    (("verify", "hopf", "--p", "5", "--n", "0"), "verify hopf takes no --n: only counterexample"),
    (("verify", "identities", "--p", "5", "--S", "7"), "verify identities takes no --S: only"),
    (("verify", "appendix", "--S", "3", "--n", "4"), "verify appendix takes no --S and --n: only"),
    # ideal computes exactly over Z[1/S] and reads no prime or precision
    (("ideal", "--S", "3", "--p", "3"), "ideal takes no --p: it computes exactly"),
    (("ideal", "--prec", "30"), "ideal takes no --prec: it computes exactly"),
    (("ideal", "--S", "2", "--guard", "5"), "ideal takes no --guard: it computes exactly"),
    (("ideal", "--p", "7", "--prec", "2", "--guard", "3"),
     "ideal takes no --p and --prec and --guard: it computes exactly"),
    # the ring has a target for each of log, Li_1, ..., Li_n, however large n
    (("ideal", "--S", "3", "--n", "9"),
     "ideal --S 3 --n 9 is unsupported: degree 13 exceeds guard 12"),
    # an empty --out names no file; it once printed the certificate to stdout
    (("ideal", "--S", "3", "--n", "2", "--out="), "--out needs a file name"),
    (("ideal", "--S", "3", "--n", "2", "--out", ""), "--out needs a file name"),
    # a twisted series too large to build is refused before any engine is
    # built; building it would run for hours
    (("locus", "--S", "3", "--p", "1000003"),
     "--p 1000003 at --prec 12 is too large for the numerics"),
    (("locus", "--S", "3", "--p", "5", "--prec", "100000"),
     "--p 5 at --prec 100000 is too large for the numerics"),
    # the counterexample's engine runs through weight --n; this one would
    # take hours
    (("verify", "counterexample", "--S", "3", "--p", "5", "--n", "10000"),
     "--p 5 at --prec 12 is too large for the numerics: its twisted series would have "
     "degree 244 at 27 digits through weight 10000"),
    (("verify", "all", "--p", "5", "--n", "10000"),
     "--p 5 at --prec 12 is too large for the numerics"),
    # the first refused --n at p = 5, and a run that would take about three
    # times as long as the slowest admitted locus
    (("verify", "counterexample", "--S", "3", "--p", "5", "--n", "475"),
     "--p 5 at --prec 12 is too large for the numerics: its twisted series would have "
     "degree 244 at 27 digits through weight 475"),
    (("verify", "counterexample", "--S", "3", "--p", "31", "--n", "396"),
     "--p 31 at --prec 12 is too large for the numerics"),
]


@pytest.mark.parametrize("argv, message", UNSUPPORTED_INPUT)
def test_cli_rejects_unsupported_input(argv, message):
    # ideal --S 2,3 runs the elimination until its degree guard fires (~1.5 s)
    stderr = _assert_rejected(argv, message, timeout=60)
    assert stderr.count("\n") == 1


def test_untabled_base_message_names_every_tabled_base(monkeypatch):
    import ckpolylog.cli as cli
    import ckpolylog.galois as galois
    monkeypatch.setattr(galois, "TABLED", {**galois.TABLED, 11: galois.TABLED[3]})
    reason = cli._unsupported(cli.parse_args(["locus", "--S", "7", "--p", "5"]))
    assert reason.startswith("locus --n >= 4 needs --S 2 or --S 3 or --S 11: ")


def test_readme_exit_2_list_names_the_tabled_bases():
    import ckpolylog.galois as galois
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = " ".join(fh.read().split())
    bases = " or ".join("`{%d}`" % ell for ell in galois.TABLED)
    assert "`locus --n >= 4` with `S` other than %s" % bases in text


@pytest.mark.parametrize("argv", [("locus", "--S", "3", "--p", "5"), ("ideal", "--S", "3")])
def test_cli_rejects_bad_out_path(argv, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    stderr = _assert_rejected(argv + ("--out", str(missing)), "does not exist", timeout=30)
    assert stderr.count("\n") == 1
    assert not missing.parent.exists()
    stderr = _assert_rejected(argv + ("--out", str(tmp_path)), "is a directory", timeout=30)
    assert stderr.count("\n") == 1


def test_cli_rejects_unwritable_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main(["ideal", "--S", "3", "--out", str(tmp_path / "x.json")]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert "is not writable" in line


def test_rejected_run_neither_creates_nor_truncates_out(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for out in (new, old):
        _assert_rejected(("verify", "identities", "--p", "5", "--prec", "7", "--out", str(out)),
                         "needs --prec >= 10", timeout=30)
    assert not new.exists()
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [("ideal", "--S", "3", "--n", "5", "--abstract-only"),
                                  ("ideal", "--S", "2,3", "--n", "2")])
def test_uncertified_ideal_exits_1(argv, capsys):
    code, data = run_cli(capsys, *argv)
    assert code == 1
    assert data["certified"] is False


def test_ideal_exits_1_when_a_generator_does_not_vanish(capsys, monkeypatch):
    # the re-check in cmd_ideal is the certificate: a failure is reported, not raised
    import ckpolylog.elimination as E
    monkeypatch.setattr(E, "verify_vanishing", lambda *args, **kwargs: False)
    code, data = run_cli(capsys, "ideal", "--S", "3")
    assert code == 1
    assert data["certified"] is False
    assert [g["weight"] for g in data["generators"]] == [2, 8]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command pays its import time; -S keeps site hooks out of the count
    src = os.path.dirname(os.path.dirname(os.path.abspath(ckpolylog.__file__)))
    code = ("import sys, ckpolylog.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_emit_rejects_non_finite_numbers(capsys):
    # an infinite valuation (an exact zero) fails loudly, never prints Infinity
    with pytest.raises(ValueError):
        _emit({"v": float("inf")}, None)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p, M", [(5, 4), (7, 6)])
def test_counterexample_fails_when_zeta_vanishes_to_working_precision(p, M, capsys):
    # at M - g <= 3, zeta_p(3) vanishes to working precision, so the sigma
    # coordinate Li_3(-1)/zeta_p(3) has no p-adic realization
    argv = ["verify", "counterexample", "--p", str(p), "--prec", str(M), "--guard", "3"]
    code, data = run_cli(capsys, *argv)
    (row,) = data["suites"]["counterexample"]
    assert row["zetaNonzeroGuard"] is False
    assert row["passed"] is False and code == 1
    # the valuations are tracked zeros at workprec M + g + 8, never exact zeros
    assert set(row["numericValuations"].values()) == {M + 11}
    # --n 2 has no sigma coordinate and divides by no zeta value
    code, data = run_cli(capsys, *argv, "--n", "2")
    (row,) = data["suites"]["counterexample"]
    assert row["zetaNonzeroGuard"] is True
    assert row["passed"] is True and code == 0


@pytest.mark.parametrize("p, n, prec, code", [
    (5, 10, None, 0), (5, 11, None, 1), (7, 8, None, 0), (7, 9, None, 1),
    (7, 9, 40, 0), (7, 10, 40, 0), (11, 8, None, 0), (11, 9, None, 1),
    (13, 8, None, 0), (13, 9, None, 1)])
def test_counterexample_zeta_guard_edges(p, n, prec, code, capsys):
    # the guard fails once an odd k <= n has val zeta_p(k) >= M - g = 9 (the
    # default): zeta_5(11) has valuation 11 and zeta_p(9) valuation 9 at
    # p = 7, 11 and 13; --prec 40 lifts p = 7 past n = 10
    argv = ["verify", "counterexample", "--S", "3", "--p", str(p), "--n", str(n)]
    got, data = run_cli(capsys, *argv, *(("--prec", str(prec)) if prec else ()))
    (row,) = data["suites"]["counterexample"]
    assert (got, row["zetaNonzeroGuard"], row["passed"]) == (code, code == 0, code == 0)


def test_verify_suite_flag_spelling(capsys):
    code, data = run_cli(capsys, "verify", "--suite", "hopf", "--p", "5")
    assert code == 0 and "hopf" in data["suites"]
    assert main(["verify", "--p", "5"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["ideal", "--S", "3", "--n", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "ideal"


def test_ideal_specialized_output(capsys):
    code, data = run_cli(capsys, "ideal", "--S", "3", "--n", "4")
    assert code == 0
    rows = data["specialized"]
    wt4 = next(r for r in rows if r["weight"] == 8)
    li4_coeff = wt4["coefficients"]["li4"]
    assert "zeta(3)" in li4_coeff and "log(3)" in li4_coeff
